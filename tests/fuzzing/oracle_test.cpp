// The oracle stack: green on clean draws, non-vacuous (every leg
// actually runs), and — the point of the whole harness — guaranteed to
// CATCH a deliberately seeded engine mutation via the brute-force
// differential oracle.

#include "fuzzing/oracles.hpp"

#include <gtest/gtest.h>

#include "fuzzing/generators.hpp"
#include "fuzzing/shrink.hpp"

namespace cref::fuzz {
namespace {

TEST(OracleTest, CleanCasesPassEveryOracle) {
  OracleOptions opts;
  OracleStats stats;
  for (const std::string& strategy : strategy_names())
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      FuzzCase fc = draw_case(strategy, seed, 12);
      std::vector<OracleFailure> fails = run_oracles(fc, opts, &stats);
      for (const OracleFailure& f : fails)
        ADD_FAILURE() << strategy << " seed " << seed << ": [" << f.oracle << "] "
                      << f.detail;
    }
  // Non-vacuity: each oracle leg must actually have run.
  EXPECT_EQ(stats.cases, strategy_names().size() * 40);
  EXPECT_GT(stats.reference_checked, 0u);
  EXPECT_GT(stats.parallel_compared, 0u);
  EXPECT_GT(stats.certificates_validated, 0u);
  EXPECT_GT(stats.mutations_rejected, 0u);
  EXPECT_GT(stats.walks_checked, 0u);
  EXPECT_GT(stats.gcl_roundtrips, 0u);
  EXPECT_GT(stats.kernels_compared, 0u);
  EXPECT_GT(stats.meta_implications, 0u);
}

// For each simulated engine defect: some case among the first 50 seeds
// must trip the differential-reference oracle, and the shrinker must
// reduce that case to a tiny repro (the acceptance bound is <= 6
// states). This is the end-to-end guarantee that a real engine
// regression of the same shape cannot slip through a fuzz run.
class InjectedBugTest : public ::testing::TestWithParam<InjectedBug> {};

TEST_P(InjectedBugTest, CaughtByDifferentialOracleAndShrunkSmall) {
  OracleOptions opts;
  opts.bug = GetParam();
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 50 && !caught; ++seed) {
    for (const std::string& strategy : strategy_names()) {
      if (strategy == "gcl") continue;  // bug injection targets graph inputs
      FuzzCase fc = draw_case(strategy, seed, 12);
      std::vector<OracleFailure> fails = run_oracles(fc, opts);
      bool differential = false;
      for (const OracleFailure& f : fails)
        if (f.oracle == "differential-reference") differential = true;
      if (!differential) continue;
      caught = true;

      ShrinkResult sr = shrink_case(fc, opts);
      EXPECT_EQ(sr.oracle, "differential-reference");
      EXPECT_LE(sr.minimized.c.num_states(), 6u)
          << to_string(opts.bug) << ": shrunk repro is not minimal enough";
      // The minimized case still reproduces under the same bug...
      bool still = false;
      for (const OracleFailure& f : run_oracles(sr.minimized, opts))
        if (f.oracle == "differential-reference") still = true;
      EXPECT_TRUE(still);
      // ...and is clean without it: the failure is the bug's, not the case's.
      OracleOptions clean;
      EXPECT_TRUE(run_oracles(sr.minimized, clean).empty());
      break;
    }
  }
  EXPECT_TRUE(caught) << "injected bug " << to_string(opts.bug)
                      << " survived 50 seeds x all graph strategies undetected";
}

INSTANTIATE_TEST_SUITE_P(AllBugs, InjectedBugTest,
                         ::testing::Values(InjectedBug::kDropLastCEdge,
                                           InjectedBug::kShiftCInit),
                         [](const auto& info) {
                           return info.param == InjectedBug::kDropLastCEdge
                                      ? "DropLastCEdge"
                                      : "ShiftCInit";
                         });

TEST(OracleTest, SingleThreadParallelLegStillCompares) {
  // EngineOptions{1} on the "parallel" leg degenerates to a second
  // serial run; the comparison must simply pass, not misfire.
  OracleOptions opts;
  opts.parallel = EngineOptions{/*num_threads=*/1, /*chunk_size=*/0};
  FuzzCase fc = draw_case("noise", 7, 12);
  EXPECT_TRUE(run_oracles(fc, opts).empty());
}

TEST(OracleTest, ReferenceCapSkipsLargeCasesButKeepsTheRest) {
  OracleOptions opts;
  opts.max_reference_states = 2;  // force the skip path
  OracleStats stats;
  FuzzCase fc = draw_case("subset", 3, 12);
  EXPECT_TRUE(run_oracles(fc, opts, &stats).empty());
  EXPECT_EQ(stats.reference_checked, 0u);
  EXPECT_EQ(stats.reference_skipped, 1u);
  EXPECT_EQ(stats.parallel_compared, 1u);  // other oracles still ran
}

}  // namespace
}  // namespace cref::fuzz
