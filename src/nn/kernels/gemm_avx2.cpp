// Hand-tiled AVX2/FMA micro-kernel and transpose. This is the only TU
// compiled with -mavx2 -mfma (see src/nn/CMakeLists.txt): every symbol here
// is reached strictly behind the runtime cpuid gate in gemm.cpp, so the rest
// of the binary keeps its baseline ISA and RLATTACK_NATIVE semantics.
//
// Register tiling: 6 output rows x 16 output columns per inner block —
// 12 ymm accumulators + 2 B-row vectors + 1 broadcast A value = 15 of the
// 16 architectural ymm registers. Blocks of 1 and 2 rows (the batch-1 and
// batch-2 products of per-frame crafting) widen to 64 and 32 columns, so
// they too keep 8 independent FMA chains in flight. Column remainders run
// in halving chunks down to 8 wide, then masked.
//
// Determinism: each output element accumulates over p = 0..kb-1 in ascending
// order into a fresh zero accumulator, with the same per-element instruction
// sequence in every tile shape, chunk width and masked tail — so results are
// bit-identical for any RLATTACK_THREADS and any panel strides.
#if defined(RLATTACK_HAVE_AVX2_KERNEL)

#include <immintrin.h>

#include <cstdint>

#include "gemm_internal.hpp"

namespace rlattack::nn::kernels::internal {

namespace {

// Sliding-window tail masks: for t in [1, 7] remaining lanes, the 8 ints at
// kTailMask + (8 - t) select the first t lanes.
alignas(32) constexpr std::int32_t kTailMask[16] = {-1, -1, -1, -1, -1, -1,
                                                   -1, -1, 0,  0,  0,  0,
                                                   0,  0,  0,  0};

// R rows of A times a kb x 8V slice of B, into R rows x 8V columns of C.
// The unroll pragmas unroll the register loops before scalar replacement
// runs: without them GCC 12 keeps the 6 x 2 accumulator array in memory
// and stores every accumulator on every p step (measured: half the 6-row
// tile's throughput).
template <int R, int V>
inline void tile(std::size_t kb, const float* a, std::size_t lda,
                 const float* b, std::size_t ldb, float* c, std::size_t ldc,
                 bool store) {
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  for (std::size_t p = 0; p < kb; ++p) {
    const float* bpr = b + p * ldb;
    __m256 bv[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(bpr + 8 * v);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 av =
          _mm256_broadcast_ss(a + static_cast<std::size_t>(r) * lda + p);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v)
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* cr = c + static_cast<std::size_t>(r) * ldc;
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      if (store)
        _mm256_storeu_ps(cr + 8 * v, acc[r][v]);
      else
        _mm256_storeu_ps(cr + 8 * v, _mm256_add_ps(_mm256_loadu_ps(cr + 8 * v),
                                                   acc[r][v]));
    }
  }
}

// The last `tail` (1..7) columns: masked loads and stores, so no access
// touches the ldb/ldc slack past column nb.
template <int R>
void tail_tile(std::size_t tail, std::size_t kb, const float* a,
               std::size_t lda, const float* b, std::size_t ldb, float* c,
               std::size_t ldc, bool store) {
  const __m256i mask = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + (8 - tail)));
  __m256 acc[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (std::size_t p = 0; p < kb; ++p) {
    const __m256 bv = _mm256_maskload_ps(b + p * ldb, mask);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r)
      acc[r] = _mm256_fmadd_ps(
          _mm256_broadcast_ss(a + static_cast<std::size_t>(r) * lda + p), bv,
          acc[r]);
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* cr = c + static_cast<std::size_t>(r) * ldc;
    if (store)
      _mm256_maskstore_ps(cr, mask, acc[r]);
    else
      _mm256_maskstore_ps(cr, mask,
                          _mm256_add_ps(_mm256_maskload_ps(cr, mask), acc[r]));
  }
}

// Columns [j, nb) in chunks of 8V, then 4V, ... 8 wide.
template <int R, int V>
void col_chunks(std::size_t nb, std::size_t& j, std::size_t kb,
                const float* a, std::size_t lda, const float* b,
                std::size_t ldb, float* c, std::size_t ldc, bool store) {
  for (; j + 8 * V <= nb; j += 8 * V)
    tile<R, V>(kb, a, lda, b + j, ldb, c + j, ldc, store);
  if constexpr (V > 1) col_chunks<R, V / 2>(nb, j, kb, a, lda, b, ldb, c, ldc,
                                            store);
}

// R rows of A times the full kb x nb B panel, into R rows of C. R is the
// register-tile height (6) or a remainder count.
template <int R>
void rows_block(std::size_t nb, std::size_t kb, const float* a,
                std::size_t lda, const float* b, std::size_t ldb, float* c,
                std::size_t ldc, bool store) {
  constexpr int kVectors = R == 1 ? 8 : R == 2 ? 4 : 2;
  std::size_t j = 0;
  col_chunks<R, kVectors>(nb, j, kb, a, lda, b, ldb, c, ldc, store);
  if (j < nb)
    tail_tile<R>(nb - j, kb, a, lda, b + j, ldb, c + j, ldc, store);
}

// One 8 x 8 block: source rows i..i+7 become destination columns.
inline void transpose8x8(const float* src, std::size_t lds, float* dst,
                         std::size_t ldd) {
  __m256 r[8];
  for (int i = 0; i < 8; ++i)
    r[i] = _mm256_loadu_ps(src + static_cast<std::size_t>(i) * lds);
  __m256 t[8];
  for (int i = 0; i < 4; ++i) {
    t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
    t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
  }
  // s[q] holds column q (low lane) and column q + 4 (high lane) of source
  // rows 0-3; s[q + 4] the same for rows 4-7.
  __m256 s[8];
  for (int h = 0; h < 2; ++h) {
    const __m256 lo = t[4 * h], hi = t[4 * h + 1];
    const __m256 lo2 = t[4 * h + 2], hi2 = t[4 * h + 3];
    s[4 * h + 0] = _mm256_shuffle_ps(lo, lo2, _MM_SHUFFLE(1, 0, 1, 0));
    s[4 * h + 1] = _mm256_shuffle_ps(lo, lo2, _MM_SHUFFLE(3, 2, 3, 2));
    s[4 * h + 2] = _mm256_shuffle_ps(hi, hi2, _MM_SHUFFLE(1, 0, 1, 0));
    s[4 * h + 3] = _mm256_shuffle_ps(hi, hi2, _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int q = 0; q < 4; ++q) {
    _mm256_storeu_ps(dst + static_cast<std::size_t>(q) * ldd,
                     _mm256_permute2f128_ps(s[q], s[q + 4], 0x20));
    _mm256_storeu_ps(dst + static_cast<std::size_t>(q + 4) * ldd,
                     _mm256_permute2f128_ps(s[q], s[q + 4], 0x31));
  }
}

}  // namespace

void micro_kernel_avx2(std::size_t mb, std::size_t nb, std::size_t kb,
                       const float* a, std::size_t lda, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc,
                       bool store) {
  constexpr std::size_t kRows = 6;
  std::size_t i = 0;
  for (; i + kRows <= mb; i += kRows)
    rows_block<6>(nb, kb, a + i * lda, lda, b, ldb, c + i * ldc, ldc, store);
  const float* at = a + i * lda;
  float* ct = c + i * ldc;
  switch (mb - i) {
    case 5: rows_block<5>(nb, kb, at, lda, b, ldb, ct, ldc, store); break;
    case 4: rows_block<4>(nb, kb, at, lda, b, ldb, ct, ldc, store); break;
    case 3: rows_block<3>(nb, kb, at, lda, b, ldb, ct, ldc, store); break;
    case 2: rows_block<2>(nb, kb, at, lda, b, ldb, ct, ldc, store); break;
    case 1: rows_block<1>(nb, kb, at, lda, b, ldb, ct, ldc, store); break;
    default: break;
  }
}

// 8 x 8 register tiles, taken down each 8-row band of the destination so
// its rows are written in order; edges that do not fill a tile fall back to
// the scalar loop.
void transpose_avx2(std::size_t rows, std::size_t cols, const float* src,
                    std::size_t lds, float* dst, std::size_t ldd) {
  const std::size_t rows8 = rows - rows % 8, cols8 = cols - cols % 8;
  for (std::size_t j = 0; j < cols8; j += 8) {
    for (std::size_t i = 0; i < rows8; i += 8)
      transpose8x8(src + i * lds + j, lds, dst + j * ldd + i, ldd);
    transpose_scalar(rows - rows8, 8, src + rows8 * lds + j, lds,
                     dst + j * ldd + rows8, ldd);
  }
  transpose_scalar(rows, cols - cols8, src + cols8, lds, dst + cols8 * ldd,
                   ldd);
}

}  // namespace rlattack::nn::kernels::internal

#endif  // RLATTACK_HAVE_AVX2_KERNEL
