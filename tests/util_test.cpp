#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>

#include "rlattack/util/env.hpp"
#include "rlattack/util/image.hpp"
#include "rlattack/util/rng.hpp"
#include "rlattack/util/stats.hpp"
#include "rlattack/util/table.hpp"

namespace rlattack::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i)
    if (a() != b()) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(std::uint64_t{10});
    EXPECT_LT(v, 10u);
  }
  EXPECT_THROW(rng.uniform_int(std::uint64_t{0}), std::logic_error);
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const int v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    if (v == -2) saw_lo = true;
    if (v == 2) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Rng, CategoricalRespectWeights) {
  Rng rng(3);
  std::vector<float> weights{0.0f, 1.0f, 3.0f};
  std::size_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[rng.categorical(weights)];
  EXPECT_EQ(counts[0], 0u);
  EXPECT_GT(counts[2], counts[1]);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 4000.0, 0.75, 0.05);
}

TEST(Rng, CategoricalInvalidInputs) {
  Rng rng(3);
  EXPECT_THROW(rng.categorical({}), std::logic_error);
  EXPECT_THROW(rng.categorical({-1.0f, 1.0f}), std::logic_error);
  EXPECT_THROW(rng.categorical({0.0f, 0.0f}), std::logic_error);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(9);
  auto p = rng.permutation(50);
  std::vector<bool> seen(50, false);
  for (std::size_t v : p) {
    ASSERT_LT(v, 50u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  EXPECT_NE(a(), child());
}

TEST(RunningStats, Basic) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Norms, L2AndLinf) {
  std::vector<float> v{3.0f, -4.0f};
  EXPECT_DOUBLE_EQ(l2_norm(v), 5.0);
  EXPECT_DOUBLE_EQ(linf_norm(v), 4.0);
}

TEST(TableWriter, RendersAlignedTable) {
  TableWriter t({"a", "long_header"});
  t.add_row({"1", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("| 1"), std::string::npos);
}

TEST(TableWriter, CsvEscaping) {
  TableWriter t({"x"});
  t.add_row({"a,b"});
  t.add_row({"q\"uote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"q\"\"uote\""), std::string::npos);
}

TEST(TableWriter, RowPaddedToHeader) {
  TableWriter t({"a", "b"});
  t.add_row({"only"});
  EXPECT_EQ(t.rows()[0].size(), 2u);
}

TEST(TableWriter, EmptyHeaderThrows) {
  EXPECT_THROW(TableWriter({}), std::logic_error);
}

TEST(TableWriter, WriteCsvRoundTrip) {
  TableWriter t({"k", "v"});
  t.add_row({"x", "1"});
  const std::string path = ::testing::TempDir() + "rlattack_table.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "k,v");
  std::filesystem::remove(path);
}

TEST(Fmt, FixedDigits) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_pm(1.0, 0.5, 1), "1.0 +/- 0.5");
}

TEST(Image, WritePgmAndValidate) {
  std::vector<float> pixels{0.0f, 0.5f, 1.0f, 2.0f};  // 2.0 clamps to 1
  const std::string path = ::testing::TempDir() + "rlattack_img.pgm";
  ASSERT_TRUE(write_pgm(path, pixels, 2, 2));
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
  std::filesystem::remove(path);
}

TEST(Image, SizeMismatchFails) {
  std::vector<float> pixels{0.0f};
  EXPECT_FALSE(write_pgm("/tmp/never.pgm", pixels, 2, 2));
}

TEST(Image, RescaleToUnit) {
  std::vector<float> pixels{-1.0f, 0.0f, 1.0f};
  rescale_to_unit(pixels);
  EXPECT_FLOAT_EQ(pixels[0], 0.0f);
  EXPECT_FLOAT_EQ(pixels[1], 0.5f);
  EXPECT_FLOAT_EQ(pixels[2], 1.0f);
}

TEST(Image, RescaleConstantToZero) {
  std::vector<float> pixels{3.0f, 3.0f};
  rescale_to_unit(pixels);
  EXPECT_FLOAT_EQ(pixels[0], 0.0f);
  EXPECT_FLOAT_EQ(pixels[1], 0.0f);
}

// The env registry is the contract the rlattack-env-registry tidy check and
// the README table are generated against — pin its invariants. These tests
// deliberately never call setenv (nothing in the tree does; that is what
// makes the single audited getenv in env.cpp safe), so they only assert
// properties that hold for any ambient environment.
TEST(EnvRegistry, NamesArePrefixedAndUnique) {
  std::set<std::string> seen;
  for (const env::VarInfo& info : env::registry()) {
    EXPECT_TRUE(std::string_view(info.name).starts_with("RLATTACK_"))
        << info.name;
    EXPECT_TRUE(seen.insert(info.name).second)
        << "duplicate env var: " << info.name;
  }
  EXPECT_FALSE(seen.empty());
}

TEST(EnvRegistry, NameLookupAgreesWithRegistry) {
  for (const env::VarInfo& info : env::registry())
    EXPECT_STREQ(env::name(info.var), info.name);
}

TEST(EnvRegistry, EveryVarIsDocumented) {
  for (const env::VarInfo& info : env::registry())
    EXPECT_FALSE(std::string_view(info.doc).empty()) << info.name;
}

TEST(EnvRegistry, AccessorsAgreeWhenUnset) {
  for (const env::VarInfo& info : env::registry()) {
    if (env::get(info.var) != nullptr) continue;  // set in ambient env
    EXPECT_FALSE(env::is_set(info.var)) << info.name;
    EXPECT_FALSE(env::get_long(info.var).has_value()) << info.name;
    EXPECT_FALSE(env::get_double(info.var).has_value()) << info.name;
  }
}

}  // namespace
}  // namespace rlattack::util
