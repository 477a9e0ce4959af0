// Internals shared between the portable scalar GEMM TU (gemm.cpp) and the
// AVX2/FMA TU (gemm_avx2.cpp, compiled with -mavx2 -mfma and therefore kept
// out of every other translation unit). Both micro-kernels read the same
// panels through the same kKC-blocked loop nest, so the determinism
// contract — per-element K-accumulation order fixed by the blocking, not the
// thread partition or where a panel lives — holds for either choice.
#pragma once

#include <cstddef>

namespace rlattack::nn::kernels::internal {

// Cache blocking: the packed B panel (kKC x kNC = 128 KiB) and A panel
// (kMC x kKC = 64 KiB) both sit in L2; the micro-kernel accumulators stay in
// L1/registers. Panels are row-major with a row stride: a row-major operand
// is read where it lies and a transposed one is packed through the transpose
// kernel. Either way the inner loop is a unit-stride multiply-add over
// independent output columns — the scalar kernel vectorises without FP
// reassociation (-ffast-math) and the AVX2 kernel loads B rows directly.
constexpr std::size_t kMC = 64;
constexpr std::size_t kKC = 256;
constexpr std::size_t kNC = 128;
constexpr std::size_t kMR = 4;  // scalar kernel's row-register tile

// mb x nb C tile (+)= mb x kb A panel (row stride lda) times kb x nb B panel
// (row stride ldb). `store` overwrites C (first K block without accumulate);
// otherwise adds. Implementations must accumulate each output element over
// p = 0..kb-1 in ascending order into fresh accumulators — that is what
// makes the result independent of the row partition handed out by the
// thread pool and of the panel strides.
using MicroKernelFn = void (*)(std::size_t mb, std::size_t nb, std::size_t kb,
                               const float* a, std::size_t lda,
                               const float* b, std::size_t ldb, float* c,
                               std::size_t ldc, bool store);

// dst[j * ldd + i] = src[i * lds + j] for i < rows, j < cols: the
// rows x cols source becomes a cols x rows destination.
using TransposeFn = void (*)(std::size_t rows, std::size_t cols,
                             const float* src, std::size_t lds, float* dst,
                             std::size_t ldd);

void micro_kernel_scalar(std::size_t mb, std::size_t nb, std::size_t kb,
                         const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         bool store);
void transpose_scalar(std::size_t rows, std::size_t cols, const float* src,
                      std::size_t lds, float* dst, std::size_t ldd);
#if defined(RLATTACK_HAVE_AVX2_KERNEL)
void micro_kernel_avx2(std::size_t mb, std::size_t nb, std::size_t kb,
                       const float* a, std::size_t lda, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc,
                       bool store);
void transpose_avx2(std::size_t rows, std::size_t cols, const float* src,
                    std::size_t lds, float* dst, std::size_t ldd);
#endif

}  // namespace rlattack::nn::kernels::internal
