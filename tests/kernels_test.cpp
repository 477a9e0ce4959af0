// Parity and determinism tests for the shared GEMM kernel layer and the
// thread pool. Registered with CTest twice — once with RLATTACK_THREADS=1
// (serial) and once with RLATTACK_THREADS=4 — so the pool dispatch path is
// exercised under the tier-1 test command.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <tuple>
#include <vector>

#include "gradcheck.hpp"
#include "rlattack/nn/activations.hpp"
#include "rlattack/nn/conv2d.hpp"
#include "rlattack/nn/dense.hpp"
#include "rlattack/nn/kernels/gemm.hpp"
#include "rlattack/nn/lstm.hpp"
#include "rlattack/nn/reference.hpp"
#include "rlattack/nn/sequential.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace rlattack::nn {
namespace {

using kernels::Trans;
using rlattack::testing::check_input_gradient;
using rlattack::testing::check_param_gradients;
using rlattack::testing::random_tensor;

constexpr double kParityTol = 1e-4;

void expect_close(const Tensor& got, const Tensor& want, double tol,
                  const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what << ": shape " << got.shape_string()
                                    << " vs " << want.shape_string();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double a = got[i], b = want[i];
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    ASSERT_NEAR(a, b, tol * scale) << what << " mismatch at " << i;
  }
}

// ---------------------------------------------------------------------------
// sgemm vs a naive triple loop, all four transpose variants.

float naive_at(Trans t, const float* m, std::size_t ld, std::size_t r,
               std::size_t c) {
  return t == Trans::kNo ? m[r * ld + c] : m[c * ld + r];
}

void naive_gemm(Trans ta, Trans tb, std::size_t m, std::size_t n,
                std::size_t k, const float* a, std::size_t lda, const float* b,
                std::size_t ldb, float* c, std::size_t ldc, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * ldc + j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p)
        acc += naive_at(ta, a, lda, i, p) * naive_at(tb, b, ldb, p, j);
      c[i * ldc + j] = acc;
    }
}

struct GemmCase {
  std::size_t m, n, k;
};

class SgemmParity : public ::testing::TestWithParam<GemmCase> {};

TEST_P(SgemmParity, AllTransposeVariantsAndAccumulate) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(99);
  for (const Trans ta : {Trans::kNo, Trans::kYes}) {
    for (const Trans tb : {Trans::kNo, Trans::kYes}) {
      for (const bool accumulate : {false, true}) {
        const std::size_t lda = ta == Trans::kNo ? k : m;
        const std::size_t ldb = tb == Trans::kNo ? n : k;
        Tensor a = random_tensor({ta == Trans::kNo ? m : k, lda}, rng);
        Tensor b = random_tensor({tb == Trans::kNo ? k : n, ldb}, rng);
        Tensor c = random_tensor({m, n}, rng);
        Tensor c_ref = c;
        kernels::sgemm(ta, tb, m, n, k, a.raw(), lda, b.raw(), ldb, c.raw(),
                       n, accumulate);
        naive_gemm(ta, tb, m, n, k, a.raw(), lda, b.raw(), ldb, c_ref.raw(),
                   n, accumulate);
        expect_close(c, c_ref, kParityTol, "sgemm");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SgemmParity,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{4, 4, 4}, GemmCase{5, 7, 3},
                      GemmCase{17, 33, 9}, GemmCase{64, 64, 64},
                      GemmCase{3, 200, 1}, GemmCase{128, 1, 70},
                      GemmCase{65, 130, 257}));

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch matrix: every kernel choice must agree with the
// naive reference on odd shapes (register-tile remainders, masked column
// tails, kMC/kNC/kKC block boundaries), for all four transpose combos,
// accumulate on/off — and must be bit-identical across thread counts
// *within* a kernel choice (the determinism contract is per-kernel; scalar
// vs AVX2 agree only to rounding because FMA rounds once per term).

/// Restores the process-wide kernel choice and global pool on scope exit,
/// including early ASSERT exits.
struct DispatchGuard {
  kernels::SimdKernel saved = kernels::active_simd_kernel();
  ~DispatchGuard() {
    kernels::set_simd_kernel(saved);
    util::ThreadPool::reset_global(0);
  }
};

std::vector<GemmCase> dispatch_matrix_shapes() {
  // Full cube over dims that straddle the 4/6-row tiles and 8/16-wide column
  // chunks, plus sentinels that cross the kMC=64 / kNC=128 / kKC=256 cache
  // blocks (255/257/130).
  const std::size_t dims[] = {1, 3, 17, 63, 64, 65};
  std::vector<GemmCase> cases;
  for (std::size_t m : dims)
    for (std::size_t n : dims)
      for (std::size_t k : dims) cases.push_back({m, n, k});
  cases.push_back({255, 255, 255});
  cases.push_back({255, 1, 255});
  cases.push_back({1, 255, 255});
  cases.push_back({255, 255, 1});
  cases.push_back({17, 33, 257});
  cases.push_back({65, 255, 130});
  return cases;
}

class SimdDispatchMatrix : public ::testing::TestWithParam<GemmCase> {};

TEST_P(SimdDispatchMatrix, EveryKernelMatchesReferenceAndIsThreadStable) {
  const auto [m, n, k] = GetParam();
  DispatchGuard guard;
  std::vector<kernels::SimdKernel> choices{kernels::SimdKernel::kScalar};
  if (kernels::avx2_available())
    choices.push_back(kernels::SimdKernel::kAvx2);
  util::Rng rng(71);
  for (const Trans ta : {Trans::kNo, Trans::kYes}) {
    for (const Trans tb : {Trans::kNo, Trans::kYes}) {
      for (const bool accumulate : {false, true}) {
        const std::size_t lda = ta == Trans::kNo ? k : m;
        const std::size_t ldb = tb == Trans::kNo ? n : k;
        Tensor a = random_tensor({ta == Trans::kNo ? m : k, lda}, rng);
        Tensor b = random_tensor({tb == Trans::kNo ? k : n, ldb}, rng);
        Tensor c0 = random_tensor({m, n}, rng);
        Tensor c_ref = c0;
        naive_gemm(ta, tb, m, n, k, a.raw(), lda, b.raw(), ldb, c_ref.raw(),
                   n, accumulate);
        for (const kernels::SimdKernel choice : choices) {
          kernels::set_simd_kernel(choice);
          util::ThreadPool::reset_global(1);
          Tensor c1 = c0;
          kernels::sgemm(ta, tb, m, n, k, a.raw(), lda, b.raw(), ldb,
                         c1.raw(), n, accumulate);
          util::ThreadPool::reset_global(4);
          Tensor c4 = c0;
          kernels::sgemm(ta, tb, m, n, k, a.raw(), lda, b.raw(), ldb,
                         c4.raw(), n, accumulate);
          expect_close(c1, c_ref, kParityTol,
                       kernels::simd_kernel_name(choice));
          for (std::size_t i = 0; i < c1.size(); ++i)
            ASSERT_EQ(c1[i], c4[i])
                << kernels::simd_kernel_name(choice)
                << " kernel drifted across thread counts at " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SimdDispatchMatrix,
                         ::testing::ValuesIn(dispatch_matrix_shapes()));

TEST(SimdDispatch, NamesAndOverrideContract) {
  DispatchGuard guard;
  EXPECT_STREQ(kernels::simd_kernel_name(kernels::SimdKernel::kScalar),
               "scalar");
  EXPECT_STREQ(kernels::simd_kernel_name(kernels::SimdKernel::kAvx2), "avx2");
  kernels::set_simd_kernel(kernels::SimdKernel::kScalar);
  EXPECT_EQ(kernels::active_simd_kernel(), kernels::SimdKernel::kScalar);
  if (kernels::avx2_available()) {
    kernels::set_simd_kernel(kernels::SimdKernel::kAvx2);
    EXPECT_EQ(kernels::active_simd_kernel(), kernels::SimdKernel::kAvx2);
  } else {
    EXPECT_THROW(kernels::set_simd_kernel(kernels::SimdKernel::kAvx2),
                 std::invalid_argument);
  }
}

TEST(SimdDispatch, NonTightLeadingDimensionsEveryKernel) {
  DispatchGuard guard;
  util::Rng rng(7);
  const std::size_t m = 13, n = 21, k = 11;
  const std::size_t lda = k + 3, ldb = n + 5, ldc = n + 2;
  Tensor a = random_tensor({m, lda}, rng);
  Tensor b = random_tensor({k, ldb}, rng);
  Tensor c0 = random_tensor({m, ldc}, rng);
  Tensor c_ref = c0;
  naive_gemm(Trans::kNo, Trans::kNo, m, n, k, a.raw(), lda, b.raw(), ldb,
             c_ref.raw(), ldc, false);
  std::vector<kernels::SimdKernel> choices{kernels::SimdKernel::kScalar};
  if (kernels::avx2_available())
    choices.push_back(kernels::SimdKernel::kAvx2);
  for (const kernels::SimdKernel choice : choices) {
    kernels::set_simd_kernel(choice);
    Tensor c = c0;
    kernels::sgemm(Trans::kNo, Trans::kNo, m, n, k, a.raw(), lda, b.raw(),
                   ldb, c.raw(), ldc, false);
    // The ldc slack columns must be untouched — the masked tail stores may
    // not write past column n.
    expect_close(c, c_ref, kParityTol, kernels::simd_kernel_name(choice));
  }
}

// ---------------------------------------------------------------------------
// Operand paths. sgemm reads row-major operands in place and packs
// transposed ones through the transpose kernel; a product taller than
// kMC = 64 rows splits into row blocks, and the AVX2 kernel runs 1- and
// 2-row tiles over wider column chunks than its 6-row tile. Every path must
// give every other path's bits, under both kernels and at any thread count.

class SgemmOperandPaths
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

/// The cols x rows transpose of the rows x cols matrix at x (leading
/// dimension ld), with `pad` slack columns.
Tensor transposed(const float* x, std::size_t rows, std::size_t cols,
                  std::size_t ld, std::size_t pad) {
  Tensor t({cols, rows + pad});
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      t[j * (rows + pad) + i] = x[i * ld + j];
  return t;
}

TEST_P(SgemmOperandPaths, SmallRowsMatchTallProductAndTransposedOperands) {
  const auto [m, n] = GetParam();
  // The large product spans two row blocks of 6-row tiles; the small
  // product's rows sit across the row-block boundary.
  constexpr std::size_t kBigRows = 71, kRow0 = 62;
  DispatchGuard guard;
  std::vector<kernels::SimdKernel> choices{kernels::SimdKernel::kScalar};
  if (kernels::avx2_available())
    choices.push_back(kernels::SimdKernel::kAvx2);
  util::Rng rng(1000 * m + n);
  // K on both sides of kKC = 256.
  for (const std::size_t k : {std::size_t{37}, std::size_t{300}}) {
    const std::size_t lda = k + 3, ldb = n + 5, ldc = n + 2;
    const Tensor a = random_tensor({kBigRows, lda}, rng);
    const Tensor b = random_tensor({k, ldb}, rng);
    const Tensor c0 = random_tensor({kBigRows, ldc}, rng);
    const float* a_rows = a.raw() + kRow0 * lda;
    const Tensor at = transposed(a_rows, m, k, lda, 4);
    const Tensor bt = transposed(b.raw(), k, n, ldb, 6);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::ThreadPool::reset_global(threads);
      for (const kernels::SimdKernel choice : choices) {
        kernels::set_simd_kernel(choice);
        for (const bool accumulate : {false, true}) {
          Tensor big = c0;
          kernels::sgemm(Trans::kNo, Trans::kNo, kBigRows, n, k, a.raw(), lda,
                         b.raw(), ldb, big.raw(), ldc, accumulate);
          for (const Trans ta : {Trans::kNo, Trans::kYes}) {
            for (const Trans tb : {Trans::kNo, Trans::kYes}) {
              Tensor small({m, ldc});
              std::copy_n(c0.raw() + kRow0 * ldc, m * ldc, small.raw());
              kernels::sgemm(ta, tb, m, n, k,
                             ta == Trans::kNo ? a_rows : at.raw(),
                             ta == Trans::kNo ? lda : m + 4,
                             tb == Trans::kNo ? b.raw() : bt.raw(),
                             tb == Trans::kNo ? ldb : k + 6, small.raw(), ldc,
                             accumulate);
              // Every column, slack included: the slack must stay c0's.
              for (std::size_t i = 0; i < m * ldc; ++i)
                ASSERT_EQ(std::bit_cast<std::uint32_t>(small[i]),
                          std::bit_cast<std::uint32_t>(big[kRow0 * ldc + i]))
                    << kernels::simd_kernel_name(choice) << " threads "
                    << threads << " k " << k << " accumulate " << accumulate
                    << " ta " << (ta == Trans::kYes) << " tb "
                    << (tb == Trans::kYes) << " at row " << i / ldc
                    << " col " << i % ldc;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SgemmOperandPaths,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 6, 7),
                       ::testing::Values<std::size_t>(1, 7, 8, 15, 16, 33, 64,
                                                      65, 129)));

TEST(SgemmOperandPaths, TransposeMatchesIndexedCopyEveryKernel) {
  DispatchGuard guard;
  std::vector<kernels::SimdKernel> choices{kernels::SimdKernel::kScalar};
  if (kernels::avx2_available())
    choices.push_back(kernels::SimdKernel::kAvx2);
  util::Rng rng(5);
  for (const std::size_t rows : {1, 7, 8, 17, 64}) {
    for (const std::size_t cols : {1, 8, 13, 48}) {
      const std::size_t lds = cols + 3, ldd = rows + 2;
      const Tensor src = random_tensor({rows, lds}, rng);
      const Tensor want = transposed(src.raw(), rows, cols, lds, 2);
      for (const kernels::SimdKernel choice : choices) {
        kernels::set_simd_kernel(choice);
        Tensor got({cols, ldd});
        for (std::size_t i = 0; i < got.size(); ++i) got[i] = -7.0f;
        kernels::transpose(rows, cols, src.raw(), lds, got.raw(), ldd);
        for (std::size_t j = 0; j < cols; ++j) {
          for (std::size_t i = 0; i < ldd; ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(got[j * ldd + i]),
                      std::bit_cast<std::uint32_t>(
                          i < rows ? want[j * ldd + i] : -7.0f))
                << kernels::simd_kernel_name(choice) << " " << rows << "x"
                << cols << " at " << j << "," << i;
        }
      }
    }
  }
}

TEST(SgemmParity, NonTightLeadingDimensions) {
  util::Rng rng(7);
  const std::size_t m = 6, n = 9, k = 11;
  const std::size_t lda = k + 3, ldb = n + 5, ldc = n + 2;
  Tensor a = random_tensor({m, lda}, rng);
  Tensor b = random_tensor({k, ldb}, rng);
  Tensor c = random_tensor({m, ldc}, rng);
  Tensor c_ref = c;
  kernels::sgemm(Trans::kNo, Trans::kNo, m, n, k, a.raw(), lda, b.raw(), ldb,
                 c.raw(), ldc, false);
  naive_gemm(Trans::kNo, Trans::kNo, m, n, k, a.raw(), lda, b.raw(), ldb,
             c_ref.raw(), ldc, false);
  // Columns beyond n (the ldc slack) must be untouched.
  expect_close(c, c_ref, kParityTol, "sgemm-ld");
}

TEST(SgemmParity, ZeroKZeroesOrKeepsC) {
  util::Rng rng(8);
  Tensor a({2, 2}), b({2, 2});
  Tensor c = random_tensor({2, 2}, rng);
  Tensor kept = c;
  kernels::sgemm(Trans::kNo, Trans::kNo, 2, 2, 0, a.raw(), 2, b.raw(), 2,
                 c.raw(), 2, true);
  expect_close(c, kept, 0.0, "k=0 accumulate");
  kernels::sgemm(Trans::kNo, Trans::kNo, 2, 2, 0, a.raw(), 2, b.raw(), 2,
                 c.raw(), 2, false);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 0.0f);
}

TEST(KernelHelpers, AxpyBiasRowsColSums) {
  Tensor x({4}, {1, 2, 3, 4});
  Tensor y({4}, {10, 20, 30, 40});
  kernels::axpy(4, 0.5f, x.raw(), y.raw());
  EXPECT_FLOAT_EQ(y[0], 10.5f);
  EXPECT_FLOAT_EQ(y[3], 42.0f);

  Tensor bias({3}, {1, 2, 3});
  Tensor rows({2, 3});
  kernels::broadcast_bias_rows(2, 3, bias.raw(), rows.raw(), 3);
  EXPECT_FLOAT_EQ(rows.at2(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(rows.at2(1, 0), 1.0f);

  Tensor sums({3}, {100, 100, 100});
  kernels::col_sums_accumulate(2, 3, rows.raw(), 3, sums.raw());
  EXPECT_FLOAT_EQ(sums[0], 102.0f);
  EXPECT_FLOAT_EQ(sums[2], 106.0f);
}

// ---------------------------------------------------------------------------
// Thread pool semantics.

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  const std::size_t n = 1337;
  std::vector<int> hits(n, 0);
  pool.parallel_for(n, 16, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, ChunkLayoutIndependentOfThreadCount) {
  // parallel_for_chunks must produce the same (chunk -> range) mapping for
  // any worker count: that is what makes chunk-ordered reductions bit-stable.
  auto collect = [](util::ThreadPool& pool) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges(
        util::ThreadPool::chunk_count(23, 5));
    std::mutex mu;
    pool.parallel_for_chunks(23, 5, [&](std::size_t c, std::size_t b,
                                        std::size_t e) {
      std::lock_guard<std::mutex> lock(mu);
      ranges[c] = {b, e};
    });
    return ranges;
  };
  util::ThreadPool serial(1), parallel(4);
  EXPECT_EQ(collect(serial), collect(parallel));
  EXPECT_EQ(util::ThreadPool::chunk_count(23, 5), 5u);
  EXPECT_EQ(util::ThreadPool::chunk_count(0, 5), 0u);
}

TEST(ThreadPool, PropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [](std::size_t, std::size_t) {
                          throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must remain usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(10, 1, [&](std::size_t b, std::size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  util::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(4, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      pool.parallel_for(25, 1, [&](std::size_t ib, std::size_t ie) {
        total += static_cast<int>(ie - ib);
      });
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, PoolChunksNestGemmWithoutDeadlockOrDrift) {
  // Production shape of Conv2D's per-item loops: chunks run on the *global*
  // pool, and each one issues GEMM parallel_fors against that same pool.
  // The nested calls must run caller-inline (no deadlock, no
  // oversubscription) and produce bits identical to the same GEMM computed
  // outside the pool.
  util::Rng rng(99);
  const std::size_t m = 33, n = 27, k = 41;
  Tensor a = random_tensor({m, k}, rng);
  Tensor b = random_tensor({k, n}, rng);
  Tensor expected({m, n});
  kernels::sgemm(Trans::kNo, Trans::kNo, m, n, k, a.raw(), k, b.raw(), n,
                 expected.raw(), n, false);

  util::ThreadPool& pool = util::ThreadPool::global();
  ASSERT_FALSE(util::ThreadPool::inside_worker());
  const std::size_t workers = 4;
  std::vector<Tensor> results(workers);
  std::atomic<int> flagged{0};
  pool.parallel_for_chunks(
      workers, 1, [&](std::size_t w, std::size_t, std::size_t) {
        if (util::ThreadPool::inside_worker()) flagged.fetch_add(1);
        Tensor c({m, n});
        kernels::sgemm(Trans::kNo, Trans::kNo, m, n, k, a.raw(), k, b.raw(),
                       n, c.raw(), n,
                       false);  // nested under a pool chunk
        results[w] = std::move(c);
      });
  // With >1 pool threads every chunk must see the inside-worker flag; a
  // serial pool runs chunks inline without it (and nesting is trivially
  // safe there).
  if (pool.size() > 1) {
    EXPECT_EQ(flagged.load(), static_cast<int>(workers));
  }
  EXPECT_FALSE(util::ThreadPool::inside_worker());
  for (std::size_t w = 0; w < workers; ++w) {
    ASSERT_EQ(results[w].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      ASSERT_EQ(results[w][i], expected[i])
          << "nested GEMM drifted in worker " << w << " at " << i;
  }
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  util::ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(0, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(3, 100, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 3u);
  });
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Layer parity against the retained naive reference implementations, and
// of backward_input against backward: the same input-gradient bits, with
// every parameter gradient left holding a sentinel.

constexpr float kGradSentinel = 1234.5f;

void expect_same_bits(const Tensor& got, const Tensor& want,
                      const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what << ": shape "
                                    << got.shape_string() << " vs "
                                    << want.shape_string();
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " differs at " << i;
}

/// Runs backward_input(g) after the forward that `backward_gx` =
/// backward(g) followed, with every parameter gradient preset to a
/// sentinel: the input gradient must match backward's bit for bit and the
/// sentinels must survive.
void expect_backward_input_parity(Layer& layer, const Tensor& g,
                                  const Tensor& backward_gx) {
  for (Param& p : layer.params()) p.grad->fill(kGradSentinel);
  expect_same_bits(layer.backward_input(g), backward_gx, "backward_input");
  for (const Param& p : layer.params())
    for (std::size_t i = 0; i < p.grad->size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>((*p.grad)[i]),
                std::bit_cast<std::uint32_t>(kGradSentinel))
          << p.name << "[" << i << "] written by backward_input";
}

TEST(DenseParity, ForwardBackwardMatchReference) {
  util::Rng rng(11);
  Dense d(37, 29, rng);
  auto params = d.params();
  Tensor x = random_tensor({5, 37}, rng);
  Tensor y = d.forward(x);
  Tensor y_ref = ref::dense_forward(x, *params[0].value, *params[1].value);
  expect_close(y, y_ref, kParityTol, "dense forward");

  Tensor g = random_tensor({5, 29}, rng);
  d.zero_grad();
  Tensor gx = d.backward(g);
  Tensor gw({29, 37}), gb({29});
  Tensor gx_ref = ref::dense_backward(x, *params[0].value, g, gw, gb);
  expect_close(gx, gx_ref, kParityTol, "dense dx");
  expect_close(*params[0].grad, gw, kParityTol, "dense dW");
  expect_close(*params[1].grad, gb, kParityTol, "dense db");
  expect_backward_input_parity(d, g, gx);
}

struct ConvParityCase {
  std::size_t batch, in_c, out_c, hw, k, stride, pad;
};

class Conv2DParity : public ::testing::TestWithParam<ConvParityCase> {};

TEST_P(Conv2DParity, ForwardBackwardMatchReference) {
  const auto p = GetParam();
  util::Rng rng(21);
  Conv2D conv(p.in_c, p.out_c, p.k, p.stride, p.pad, rng);
  auto params = conv.params();
  Tensor x = random_tensor({p.batch, p.in_c, p.hw, p.hw}, rng);
  Tensor y = conv.forward(x);
  Tensor y_ref =
      ref::conv2d_forward(x, *params[0].value, *params[1].value, p.stride,
                          p.pad);
  expect_close(y, y_ref, kParityTol, "conv forward");

  Tensor g = random_tensor(y.shape(), rng);
  conv.zero_grad();
  Tensor gx = conv.backward(g);
  Tensor gw(params[0].value->shape()), gb({p.out_c});
  Tensor gx_ref =
      ref::conv2d_backward(x, *params[0].value, g, p.stride, p.pad, gw, gb);
  expect_close(gx, gx_ref, kParityTol, "conv dx");
  expect_close(*params[0].grad, gw, kParityTol, "conv dW");
  expect_close(*params[1].grad, gb, kParityTol, "conv db");
  expect_backward_input_parity(conv, g, gx);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv2DParity,
    // The 9-item batch spans three backward reduction chunks (grain 4), the
    // stride/pad variants cover every im2col edge case.
    ::testing::Values(ConvParityCase{1, 1, 2, 5, 3, 1, 0},
                      ConvParityCase{3, 2, 4, 9, 3, 2, 1},
                      ConvParityCase{9, 2, 3, 8, 3, 1, 1},
                      ConvParityCase{2, 3, 1, 6, 2, 2, 0},
                      ConvParityCase{1, 1, 1, 4, 3, 1, 2}));

class LstmParity : public ::testing::TestWithParam<bool> {};

TEST_P(LstmParity, ForwardBackwardMatchReference) {
  const bool return_sequences = GetParam();
  util::Rng rng(31);
  Lstm lstm(6, 5, return_sequences, rng);
  auto params = lstm.params();
  ref::LstmRef ref_lstm(*params[0].value, *params[1].value, *params[2].value,
                        return_sequences);
  Tensor x = random_tensor({3, 4, 6}, rng);
  Tensor y = lstm.forward(x);
  Tensor y_ref = ref_lstm.forward(x);
  expect_close(y, y_ref, kParityTol, "lstm forward");

  Tensor g = random_tensor(y.shape(), rng);
  lstm.zero_grad();
  Tensor gx = lstm.backward(g);
  Tensor gw(params[0].value->shape()), gu(params[1].value->shape()),
      gb(params[2].value->shape());
  Tensor gx_ref = ref_lstm.backward(g, gw, gu, gb);
  expect_close(gx, gx_ref, kParityTol, "lstm dx");
  expect_close(*params[0].grad, gw, kParityTol, "lstm dW");
  expect_close(*params[1].grad, gu, kParityTol, "lstm dU");
  expect_close(*params[2].grad, gb, kParityTol, "lstm db");
  expect_backward_input_parity(lstm, g, gx);
}

INSTANTIATE_TEST_SUITE_P(Modes, LstmParity, ::testing::Bool());

/// Restores the env-resolved global pool on scope exit.
struct PoolSizeGuard {
  explicit PoolSizeGuard(std::size_t threads) {
    util::ThreadPool::reset_global(threads);
  }
  ~PoolSizeGuard() { util::ThreadPool::reset_global(0); }
  PoolSizeGuard(const PoolSizeGuard&) = delete;
  PoolSizeGuard& operator=(const PoolSizeGuard&) = delete;
};

class TimeDistributedParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TimeDistributedParity, ConvStackBackwardInputMatchesBackward) {
  // The seq2seq image heads' shape: flattened frames [B, T, H*W] folded
  // into a conv stack, ten folded items spanning three reduction chunks.
  PoolSizeGuard pool(GetParam());
  util::Rng rng(61);
  auto frame_net = std::make_unique<Sequential>();
  frame_net->emplace<Conv2D>(1, 3, 3, 2, 1, rng);
  frame_net->emplace<ReLU>();
  frame_net->emplace<Flatten>();
  frame_net->emplace<Dense>(3 * 3 * 3, 5, rng);
  TimeDistributed td(std::move(frame_net), {1, 6, 6});
  Tensor x = random_tensor({2, 5, 36}, rng);
  Tensor y = td.forward(x);
  Tensor g = random_tensor(y.shape(), rng);
  td.zero_grad();
  Tensor gx = td.backward(g);
  ASSERT_TRUE(gx.same_shape(x));
  expect_backward_input_parity(td, g, gx);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, TimeDistributedParity,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

// ---------------------------------------------------------------------------
// Finite-difference gradient checks on the GEMM paths (run at both
// RLATTACK_THREADS registrations).

TEST(GemmGradCheck, Dense) {
  util::Rng rng(41);
  Dense d(8, 6, rng);
  Tensor x = random_tensor({4, 8}, rng);
  check_input_gradient(d, x, rng);
  check_param_gradients(d, x, rng);
}

TEST(GemmGradCheck, Conv2D) {
  util::Rng rng(42);
  Conv2D c(2, 3, 3, 2, 1, rng);
  Tensor x = random_tensor({2, 2, 6, 6}, rng);
  check_input_gradient(c, x, rng);
  check_param_gradients(c, x, rng);
}

TEST(GemmGradCheck, Lstm) {
  util::Rng rng(43);
  Lstm lstm(5, 4, false, rng);
  Tensor x = random_tensor({2, 3, 5}, rng);
  check_input_gradient(lstm, x, rng);
  check_param_gradients(lstm, x, rng);
}

// ---------------------------------------------------------------------------
// Bit-level determinism across thread counts: the kernels partition output
// rows, so serial and 4-thread pools must produce identical bits.

TEST(Determinism, ForwardBitStableAcrossThreadCounts) {
  util::Rng rng(51);
  Dense dense(40, 33, rng);
  Conv2D conv(2, 4, 3, 1, 1, rng);
  Lstm lstm(12, 9, false, rng);
  Tensor xd = random_tensor({16, 40}, rng);
  Tensor xc = random_tensor({8, 2, 10, 10}, rng);
  Tensor xl = random_tensor({6, 5, 12}, rng);

  Tensor gd = random_tensor({16, 33}, rng);

  util::ThreadPool::reset_global(4);
  Tensor yd4 = dense.forward(xd);
  Tensor yc4 = conv.forward(xc);
  Tensor yl4 = lstm.forward(xl);
  dense.zero_grad();
  Tensor gx4 = dense.backward(gd);

  util::ThreadPool::reset_global(1);
  Tensor yd1 = dense.forward(xd);
  Tensor yc1 = conv.forward(xc);
  Tensor yl1 = lstm.forward(xl);
  dense.zero_grad();
  Tensor gx1 = dense.backward(gd);
  util::ThreadPool::reset_global(0);  // restore the env-resolved pool

  for (std::size_t i = 0; i < yd4.size(); ++i) EXPECT_EQ(yd4[i], yd1[i]);
  for (std::size_t i = 0; i < yc4.size(); ++i) EXPECT_EQ(yc4[i], yc1[i]);
  for (std::size_t i = 0; i < yl4.size(); ++i) EXPECT_EQ(yl4[i], yl1[i]);
  for (std::size_t i = 0; i < gx4.size(); ++i) EXPECT_EQ(gx4[i], gx1[i]);
}

}  // namespace
}  // namespace rlattack::nn
