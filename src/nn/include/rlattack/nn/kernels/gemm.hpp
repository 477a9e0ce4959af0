// Shared compute kernels for the NN substrate. Every hot layer (Dense,
// Conv2D via im2col, Lstm's fused gate matmuls) routes its matrix products
// through the one cache-blocked, pool-parallel `sgemm` below, so a single
// optimisation point serves victim training, seq2seq approximator training
// and per-step FGSM/PGD attack crafting alike.
//
// Determinism: for fixed operand values the result is bit-identical for any
// RLATTACK_THREADS setting — the pool partitions output rows (each row's
// accumulation order is fixed by the K-blocking, not by the thread count).
// The guarantee holds *within* a SIMD kernel choice: the scalar and AVX2
// micro-kernels accumulate every output element over K in the same order,
// but the AVX2 kernel uses fused multiply-add (one rounding per term
// instead of two), so results across kernels agree only to rounding.
#pragma once

#include <cstddef>

namespace rlattack::nn::kernels {

enum class Trans : bool { kNo = false, kYes = true };

/// Which micro-kernel `sgemm` runs. kScalar is the portable cache-blocked
/// kernel (compiler-autovectorised, no FMA); kAvx2 is the hand-tiled
/// 6x16 AVX2/FMA kernel, available only when both the build
/// and the host CPU support AVX2+FMA.
enum class SimdKernel : int { kScalar = 0, kAvx2 = 1 };

/// True when the AVX2 kernel was compiled in (x86 toolchain with
/// -mavx2/-mfma support) *and* the running CPU reports AVX2+FMA.
bool avx2_available() noexcept;

/// The kernel the next sgemm call will use. Resolved once on first use:
/// the RLATTACK_SIMD environment variable ("avx2" | "scalar" | "auto")
/// wins when set and satisfiable; otherwise the best available kernel is
/// picked by cpuid. The choice is exported as the `nn.gemm.kernel` gauge
/// (0 = scalar, 1 = avx2).
SimdKernel active_simd_kernel() noexcept;

/// Overrides the kernel choice at runtime (tests and the parity matrix in
/// run_checks.sh flip this per run). Throws std::invalid_argument when
/// asked for kAvx2 on a host without it.
void set_simd_kernel(SimdKernel kernel);

/// "scalar" / "avx2" — stable names shared by RLATTACK_SIMD parsing, test
/// output and bench JSON.
const char* simd_kernel_name(SimdKernel kernel) noexcept;

/// C = op(A) * op(B), or C += op(A) * op(B) when `accumulate` (backward
/// passes += into gradient buffers).
///
/// Shapes: op(A) is m x k, op(B) is k x n, C is m x n. `lda`/`ldb`/`ldc` are
/// leading dimensions of the *physical* row-major arrays: A is m x k when
/// `ta == Trans::kNo` and k x m when `ta == Trans::kYes` (same for B). All
/// four transpose combinations are supported.
///
/// C must overlap neither A nor B: a row-major operand may be read in place
/// while C is being written. Checked builds assert it.
void sgemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
           const float* a, std::size_t lda, const float* b, std::size_t ldb,
           float* c, std::size_t ldc, bool accumulate);

/// dst[j * ldd + i] = src[i * lds + j] for i < rows, j < cols: writes the
/// cols x rows transpose of a rows x cols row-major source. Runs the active
/// SIMD kernel's transpose (both copy values exactly). `sgemm` packs every
/// transposed operand through it; a caller that multiplies by the same
/// transposed matrix many times can lay it out once and pass Trans::kNo.
void transpose(std::size_t rows, std::size_t cols, const float* src,
               std::size_t lds, float* dst, std::size_t ldd) noexcept;

/// y[i] += alpha * x[i] for i in [0, n).
void axpy(std::size_t n, float alpha, const float* x, float* y) noexcept;

/// Initialises each of the m rows of dst (leading dimension ldd) with the
/// n-vector `bias` — the "y = bias, then sgemm-accumulate" idiom that avoids
/// a separate zero-fill pass.
void broadcast_bias_rows(std::size_t m, std::size_t n, const float* bias,
                         float* dst, std::size_t ldd) noexcept;

/// out[j] += sum_i a[i * lda + j] — column sums of an m x n matrix,
/// accumulated (bias gradients).
void col_sums_accumulate(std::size_t m, std::size_t n, const float* a,
                         std::size_t lda, float* out) noexcept;

}  // namespace rlattack::nn::kernels
