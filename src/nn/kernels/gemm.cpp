#include "rlattack/nn/kernels/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "gemm_internal.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/obs/trace.hpp"
#include "rlattack/util/check.hpp"
#include "rlattack/util/env.hpp"
#include "rlattack/util/log.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace rlattack::nn::kernels {

using internal::kKC;
using internal::kMC;
using internal::kMR;
using internal::kNC;

namespace internal {

// mb x nb += (or =) mb x kb A panel times kb x nb B panel, both row-major
// with the given row strides. `store` overwrites C (first K block without
// accumulate); otherwise adds.
void micro_kernel_scalar(std::size_t mb, std::size_t nb, std::size_t kb,
                         const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         bool store) {
  float acc0[kNC], acc1[kNC], acc2[kNC], acc3[kNC];
  std::size_t i = 0;
  for (; i + kMR <= mb; i += kMR) {
    for (std::size_t j = 0; j < nb; ++j) acc0[j] = 0.0f;
    for (std::size_t j = 0; j < nb; ++j) acc1[j] = 0.0f;
    for (std::size_t j = 0; j < nb; ++j) acc2[j] = 0.0f;
    for (std::size_t j = 0; j < nb; ++j) acc3[j] = 0.0f;
    const float* a0 = a + (i + 0) * lda;
    const float* a1 = a + (i + 1) * lda;
    const float* a2 = a + (i + 2) * lda;
    const float* a3 = a + (i + 3) * lda;
    for (std::size_t p = 0; p < kb; ++p) {
      const float* bpr = b + p * ldb;
      const float s0 = a0[p], s1 = a1[p], s2 = a2[p], s3 = a3[p];
      for (std::size_t j = 0; j < nb; ++j) {
        const float bv = bpr[j];
        acc0[j] += s0 * bv;
        acc1[j] += s1 * bv;
        acc2[j] += s2 * bv;
        acc3[j] += s3 * bv;
      }
    }
    float* c0 = c + (i + 0) * ldc;
    float* c1 = c + (i + 1) * ldc;
    float* c2 = c + (i + 2) * ldc;
    float* c3 = c + (i + 3) * ldc;
    if (store) {
      for (std::size_t j = 0; j < nb; ++j) c0[j] = acc0[j];
      for (std::size_t j = 0; j < nb; ++j) c1[j] = acc1[j];
      for (std::size_t j = 0; j < nb; ++j) c2[j] = acc2[j];
      for (std::size_t j = 0; j < nb; ++j) c3[j] = acc3[j];
    } else {
      for (std::size_t j = 0; j < nb; ++j) c0[j] += acc0[j];
      for (std::size_t j = 0; j < nb; ++j) c1[j] += acc1[j];
      for (std::size_t j = 0; j < nb; ++j) c2[j] += acc2[j];
      for (std::size_t j = 0; j < nb; ++j) c3[j] += acc3[j];
    }
  }
  for (; i < mb; ++i) {  // remainder rows, one at a time
    float acc[kNC];
    for (std::size_t j = 0; j < nb; ++j) acc[j] = 0.0f;
    const float* a0 = a + i * lda;
    for (std::size_t p = 0; p < kb; ++p) {
      const float* bpr = b + p * ldb;
      const float s0 = a0[p];
      for (std::size_t j = 0; j < nb; ++j) acc[j] += s0 * bpr[j];
    }
    float* c0 = c + i * ldc;
    if (store) {
      for (std::size_t j = 0; j < nb; ++j) c0[j] = acc[j];
    } else {
      for (std::size_t j = 0; j < nb; ++j) c0[j] += acc[j];
    }
  }
}

void transpose_scalar(std::size_t rows, std::size_t cols, const float* src,
                      std::size_t lds, float* dst, std::size_t ldd) {
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < rows; ++i) dst[j * ldd + i] = src[i * lds + j];
}

}  // namespace internal

namespace {

// Pre-registered telemetry handles (one registry lookup at load, pointer
// dereference + relaxed fetch_add per kernel call). Flops use the standard
// 2*m*n*k / 2*n conventions.
struct KernelMetrics {
  obs::Counter& gemm_calls =
      obs::MetricsRegistry::global().counter("nn.gemm.calls");
  obs::Counter& gemm_flops =
      obs::MetricsRegistry::global().counter("nn.gemm.flops");
  obs::Counter& axpy_calls =
      obs::MetricsRegistry::global().counter("nn.axpy.calls");
  obs::Counter& axpy_flops =
      obs::MetricsRegistry::global().counter("nn.axpy.flops");
};
KernelMetrics g_metrics;

void publish_kernel_choice(SimdKernel kernel) {
  obs::MetricsRegistry::global()
      .gauge("nn.gemm.kernel")
      .set(static_cast<double>(static_cast<int>(kernel)));
}

// -1 = unresolved; otherwise holds a SimdKernel value. Resolution is
// idempotent (env + cpuid are stable), so a racing double-resolve is benign.
std::atomic<int> g_kernel{-1};

SimdKernel resolve_simd_kernel() {
  const SimdKernel best = avx2_available() ? SimdKernel::kAvx2
                                           : SimdKernel::kScalar;
  const char* env = util::env::get(util::env::Var::kSimd);
  if (env == nullptr || env[0] == '\0') return best;
  const std::string value(env);
  if (value == "auto") return best;
  if (value == "scalar") return SimdKernel::kScalar;
  if (value == "avx2") {
    if (avx2_available()) return SimdKernel::kAvx2;
    util::log_warn("RLATTACK_SIMD=avx2 requested but AVX2/FMA is ",
                   "unavailable on this host/build; using scalar kernel");
    return SimdKernel::kScalar;
  }
  util::log_warn("unknown RLATTACK_SIMD value '", value,
                 "' (expected avx2|scalar|auto); auto-selecting");
  return best;
}

struct KernelSet {
  internal::MicroKernelFn micro;
  internal::TransposeFn transpose;
};

KernelSet kernels_for(SimdKernel kernel) noexcept {
#if defined(RLATTACK_HAVE_AVX2_KERNEL)
  if (kernel == SimdKernel::kAvx2)
    return {internal::micro_kernel_avx2, internal::transpose_avx2};
#else
  (void)kernel;
#endif
  return {internal::micro_kernel_scalar, internal::transpose_scalar};
}

// Full blocked GEMM restricted to output rows [m0, m1). Each pool chunk gets
// a disjoint row range, so results are independent of the chunking (every
// row's K-accumulation order is fixed by the kKC blocking alone).
//
// Operand panels: a row-major operand is read in place, a transposed one is
// packed through the transpose kernel. The micro-kernel sees the same values
// either way, so neither choice changes a bit of C.
void sgemm_rows(Trans ta, Trans tb, std::size_t m0, std::size_t m1,
                std::size_t n, std::size_t k, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, float* c, std::size_t ldc,
                bool accumulate, const KernelSet& kernels) {
  // Per-thread packing scratch, reused across calls (no per-call allocation
  // once warmed up).
  thread_local std::vector<float> ap(kMC * kKC);
  thread_local std::vector<float> bp(kKC * kNC);
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nb = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kb = std::min(kKC, k - pc);
      const bool store = pc == 0 && !accumulate;
      const float* b_panel = bp.data();
      std::size_t ldb_panel = nb;
      if (tb == Trans::kNo) {
        b_panel = b + pc * ldb + jc;
        ldb_panel = ldb;
      } else {
        // op(B) = B^T: the nb x kb block of B becomes the kb x nb panel.
        kernels.transpose(nb, kb, b + jc * ldb + pc, ldb, bp.data(), nb);
      }
      for (std::size_t ic = m0; ic < m1; ic += kMC) {
        const std::size_t mb = std::min(kMC, m1 - ic);
        const float* a_panel = ap.data();
        std::size_t lda_panel = kb;
        if (ta == Trans::kNo) {
          a_panel = a + ic * lda + pc;
          lda_panel = lda;
        } else {
          // op(A) = A^T: the kb x mb block of A becomes the mb x kb panel.
          kernels.transpose(kb, mb, a + pc * lda + ic, lda, ap.data(), kb);
        }
        kernels.micro(mb, nb, kb, a_panel, lda_panel, b_panel, ldb_panel,
                      c + ic * ldc + jc, ldc, store);
      }
    }
  }
}

}  // namespace

bool avx2_available() noexcept {
#if defined(RLATTACK_HAVE_AVX2_KERNEL)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

SimdKernel active_simd_kernel() noexcept {
  int current = g_kernel.load(std::memory_order_acquire);
  if (current < 0) {
    const SimdKernel resolved = resolve_simd_kernel();
    publish_kernel_choice(resolved);
    g_kernel.store(static_cast<int>(resolved), std::memory_order_release);
    return resolved;
  }
  return static_cast<SimdKernel>(current);
}

void set_simd_kernel(SimdKernel kernel) {
  if (kernel == SimdKernel::kAvx2 && !avx2_available())
    throw std::invalid_argument(
        "set_simd_kernel(kAvx2): AVX2/FMA unavailable on this host/build");
  publish_kernel_choice(kernel);
  g_kernel.store(static_cast<int>(kernel), std::memory_order_release);
}

const char* simd_kernel_name(SimdKernel kernel) noexcept {
  return kernel == SimdKernel::kAvx2 ? "avx2" : "scalar";
}

namespace {

// Compute body, split out of the public wrapper and kept noinline so the
// TraceScope living in the wrapper's frame (a non-trivial destructor the
// optimiser must path around) cannot perturb codegen of the packing and
// dispatch loops. Measured: inlining this under the scope object cost
// ~10-15% on mid-size AVX2 shapes.
[[gnu::noinline]] void sgemm_body(Trans ta, Trans tb, std::size_t m,
                                  std::size_t n, std::size_t k, const float* a,
                                  std::size_t lda, const float* b,
                                  std::size_t ldb, float* c, std::size_t ldc,
                                  bool accumulate) {
  if (k == 0) {
    if (!accumulate)
      for (std::size_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0, n * sizeof(float));
    return;
  }
  const KernelSet kernels = kernels_for(active_simd_kernel());
  // Parallelise over output rows; below ~8 row-blocks' worth of work the
  // dispatch overhead outweighs the win and the loop runs inline anyway.
  util::ThreadPool::global().parallel_for(
      m, /*grain=*/kMR * 2, [&](std::size_t r0, std::size_t r1) {
        sgemm_rows(ta, tb, r0, r1, n, k, a, lda, b, ldb, c, ldc, accumulate,
                   kernels);
      });
}

// Byte range [first, last) spanned by a rows x cols row-major view.
struct Extent {
  std::uintptr_t first, last;
};

Extent extent(const float* p, std::size_t rows, std::size_t cols,
              std::size_t ld) noexcept {
  const auto first = reinterpret_cast<std::uintptr_t>(p);
  if (rows == 0 || cols == 0) return {first, first};
  return {first, first + ((rows - 1) * ld + cols) * sizeof(float)};
}

bool overlaps(Extent x, Extent y) noexcept {
  return x.first < y.last && y.first < x.last;
}

}  // namespace

void sgemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
           const float* a, std::size_t lda, const float* b, std::size_t ldb,
           float* c, std::size_t ldc, bool accumulate) {
  if (m == 0 || n == 0) return;
  if constexpr (util::kCheckedBuild) {
    const Extent c_range = extent(c, m, n, ldc);
    RLATTACK_CHECK(!overlaps(c_range, ta == Trans::kNo
                                          ? extent(a, m, k, lda)
                                          : extent(a, k, m, lda)),
                   "sgemm: C overlaps A");
    RLATTACK_CHECK(!overlaps(c_range, tb == Trans::kNo
                                          ? extent(b, k, n, ldb)
                                          : extent(b, n, k, ldb)),
                   "sgemm: C overlaps B");
  }
  const std::uint64_t flops = 2 * static_cast<std::uint64_t>(m) *
                              static_cast<std::uint64_t>(n) *
                              static_cast<std::uint64_t>(k);
  g_metrics.gemm_calls.add();
  g_metrics.gemm_flops.add(flops);
  // Only GEMMs above ~1 MFLOP get a timeline slot: the decoder's per-step
  // single-row calls would drown the trace (and the ring) in microsecond
  // events, while the batched tail/training GEMMs are exactly the ones
  // whose scheduling the timeline should show.
  constexpr std::uint64_t kTraceMinFlops = 1u << 20;
  obs::TraceScope trace(flops >= kTraceMinFlops ? "nn.gemm" : nullptr,
                        "mflops", static_cast<double>(flops) * 1e-6, "m",
                        static_cast<double>(m));
  sgemm_body(ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

void transpose(std::size_t rows, std::size_t cols, const float* src,
               std::size_t lds, float* dst, std::size_t ldd) noexcept {
  kernels_for(active_simd_kernel()).transpose(rows, cols, src, lds, dst, ldd);
}

void axpy(std::size_t n, float alpha, const float* x, float* y) noexcept {
  g_metrics.axpy_calls.add();
  g_metrics.axpy_flops.add(2 * static_cast<std::uint64_t>(n));
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void broadcast_bias_rows(std::size_t m, std::size_t n, const float* bias,
                         float* dst, std::size_t ldd) noexcept {
  for (std::size_t i = 0; i < m; ++i)
    std::memcpy(dst + i * ldd, bias, n * sizeof(float));
}

void col_sums_accumulate(std::size_t m, std::size_t n, const float* a,
                         std::size_t lda, float* out) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = a + i * lda;
    for (std::size_t j = 0; j < n; ++j) out[j] += row[j];
  }
}

}  // namespace rlattack::nn::kernels
