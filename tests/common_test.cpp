#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "common/cli.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace sinrcolor::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    ASSERT_GE(x, -3.0);
    ASSERT_LT(x, 5.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(11);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(19);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DerivedSeedsAreIndependentStreams) {
  // Streams derived from consecutive ids must not correlate.
  Rng a(derive_seed(42, 0)), b(derive_seed(42, 1));
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LE(equal, 1);
}

TEST(Rng, StepBackUndoesDraws) {
  // k draws then k steps back restore the state, and the k outputs repeat.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Rng start(derive_seed(seed, 7));
    for (const int k : {1, 2, 3, 17, 64, 1000}) {
      Rng rng = start;
      std::vector<std::uint64_t> drawn(static_cast<std::size_t>(k));
      for (auto& x : drawn) x = rng();
      for (int i = 0; i < k; ++i) rng.step_back();
      ASSERT_TRUE(rng == start) << "seed " << seed << ", k " << k;
      for (const std::uint64_t x : drawn) ASSERT_EQ(rng(), x);
    }
  }
}

TEST(Rng, StepBackWalksBeforeTheSeedState) {
  // Stepping back is the inverse of the update, so it may start anywhere,
  // the seed state included, and forward draws retrace it.
  Rng rng(31);
  const Rng seeded = rng;
  for (int i = 0; i < 50; ++i) rng.step_back();
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) last = rng();
  EXPECT_TRUE(rng == seeded);
  Rng again = seeded;
  again.step_back();
  EXPECT_EQ(again(), last);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  shuffle(w, rng);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Accumulator, MeanVarianceMinMax) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsSafe) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Rng rng(31);
  Accumulator whole, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-10, 10);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Samples, QuantilesNearestRank) {
  Samples s;
  for (int i = 10; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 9.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
}

TEST(LinearFit, RecoversExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 2.0);
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, DegenerateInputs) {
  EXPECT_EQ(fit_linear({}, {}).slope, 0.0);
  EXPECT_EQ(fit_linear({1.0}, {2.0}).slope, 0.0);
  // Vertical data (all x equal) must not divide by zero.
  EXPECT_EQ(fit_linear({1.0, 1.0}, {0.0, 5.0}).slope, 0.0);
}

TEST(Table, RendersAlignedRows) {
  Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_row({"100", "x"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("100"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(-42), "-42");
  EXPECT_EQ(Table::percent(0.125, 1), "12.5%");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesFile) {
  const std::string path = ::testing::TempDir() + "/sinrcolor_csv_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    ASSERT_TRUE(csv.ok());
    csv.add_row({"1", "two,three"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"two,three\"");
}

TEST(Cli, ParsesFlagsBothSyntaxes) {
  const char* argv[] = {"prog", "--n=42", "--name", "alice", "--flag"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_EQ(cli.get("name", ""), "alice");
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("also_missing", 1.5), 1.5);
}

TEST(Cli, SeedParsing) {
  const char* argv[] = {"prog", "--seed=0xdead"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.get_seed("seed", 0), 0xdeadULL);
}

TEST(Cli, AtLeastAcceptsValuesOnOrAboveTheBound) {
  const char* argv[] = {"prog", "--threads=1", "--side=0.5"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get_int_at_least("threads", 1, 1), 1);
  EXPECT_DOUBLE_EQ(cli.get_double_at_least("side", 5.0, 1e-9), 0.5);
  // Absent flag: the default is returned unchecked — callers own it.
  EXPECT_EQ(cli.get_int_at_least("absent", -3, 0), -3);
}

TEST(CliDeathTest, AtLeastRejectsOutOfRangeValues) {
  // usage_error exits with code 2 and names the offending flag on stderr, so
  // a typo'd sweep script fails loudly instead of running --threads=0.
  const char* threads[] = {"prog", "--threads=0"};
  EXPECT_EXIT(
      {
        Cli cli(2, threads);
        cli.get_int_at_least("threads", 1, 1);
      },
      ::testing::ExitedWithCode(2), "--threads must be at least 1, got 0");
  const char* window[] = {"prog", "--fail-window=-5"};
  EXPECT_EXIT(
      {
        Cli cli(2, window);
        cli.get_int_at_least("fail-window", 0, 0);
      },
      ::testing::ExitedWithCode(2), "--fail-window must be at least 0");
  const char* side[] = {"prog", "--side=-1"};
  EXPECT_EXIT(
      {
        Cli cli(2, side);
        cli.get_double_at_least("side", 5.0, 1e-9);
      },
      ::testing::ExitedWithCode(2), "--side must be at least");
}

}  // namespace
}  // namespace sinrcolor::common
