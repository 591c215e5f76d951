// Generator contracts: every drawn case is well-formed (the oracles may
// assume it), draws are deterministic in the seed, GCL programs are
// valid by construction, and the repro serialization round-trips.

#include "fuzzing/generators.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "fuzzing/fuzz_case.hpp"
#include "gcl/parser.hpp"
#include "gcl/pretty.hpp"
#include "refinement/equivalence.hpp"

namespace cref::fuzz {
namespace {

void expect_well_formed(const FuzzCase& fc, const std::string& label) {
  ASSERT_GT(fc.c.num_states(), 0u) << label;
  ASSERT_GT(fc.a.num_states(), 0u) << label;
  EXPECT_EQ(fc.w.num_states(), fc.c.num_states()) << label;
  if (fc.alpha.empty()) {
    EXPECT_EQ(fc.c.num_states(), fc.a.num_states()) << label;
  } else {
    ASSERT_EQ(fc.alpha.size(), fc.c.num_states()) << label;
    for (StateId img : fc.alpha) EXPECT_LT(img, fc.a.num_states()) << label;
  }
  for (StateId s : fc.c_init) EXPECT_LT(s, fc.c.num_states()) << label;
  for (StateId s : fc.a_init) EXPECT_LT(s, fc.a.num_states()) << label;
  // No self-loops anywhere: a no-op execution is not a step, and the
  // cycle semantics of LazyScc vs naive closure diverge on them.
  for (const TransitionGraph* g : {&fc.c, &fc.a, &fc.w})
    for (StateId s = 0; s < g->num_states(); ++s)
      for (StateId t : g->successors(s)) EXPECT_NE(s, t) << label;
}

TEST(GeneratorTest, AllStrategiesDrawWellFormedCases) {
  for (const std::string& strategy : strategy_names())
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      FuzzCase fc = draw_case(strategy, seed, 16);
      expect_well_formed(fc, strategy + " seed " + std::to_string(seed));
      EXPECT_EQ(fc.strategy, strategy);
      EXPECT_EQ(fc.seed, seed);
    }
}

TEST(GeneratorTest, DrawIsDeterministicInSeed) {
  for (const std::string& strategy : strategy_names()) {
    FuzzCase one = draw_case(strategy, 42, 16);
    FuzzCase two = draw_case(strategy, 42, 16);
    EXPECT_EQ(format_repro(one), format_repro(two)) << strategy;
  }
}

TEST(GeneratorTest, UnknownStrategyThrows) {
  EXPECT_THROW(draw_case("bogus", 1, 16), std::invalid_argument);
}

TEST(GeneratorTest, QuotientStrategyBuildsTotalSurjectiveAlpha) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    FuzzCase fc = draw_case("quotient", seed, 16);
    ASSERT_FALSE(fc.alpha.empty()) << "seed " << seed;
    EXPECT_LT(fc.a.num_states(), fc.c.num_states()) << "seed " << seed;
    std::set<StateId> images(fc.alpha.begin(), fc.alpha.end());
    EXPECT_EQ(images.size(), fc.a.num_states())
        << "seed " << seed << ": alpha is not onto the abstract states";
  }
}

TEST(GeneratorTest, RandomGclSystemsAlwaysReparse) {
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    std::mt19937_64 rng(seed);
    gcl::SystemAst ast = random_gcl_system(rng);
    const std::string printed = gcl::print_system(ast);
    gcl::SystemAst back = gcl::parse(printed);  // must not throw
    EXPECT_EQ(gcl::print_system(back), printed) << "seed " << seed;
    gcl::SystemAst mutant = mutate_gcl_system(ast, rng);
    const std::string mprinted = gcl::print_system(mutant);
    EXPECT_EQ(gcl::print_system(gcl::parse(mprinted)), mprinted) << "seed " << seed;
  }
}

TEST(GeneratorTest, GclStrategyCompilesSourcesToTheCaseGraphs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FuzzCase fc = draw_case("gcl", seed, 16);
    ASSERT_TRUE(fc.from_gcl()) << "seed " << seed;
    FuzzCase rebuilt = make_gcl_case(fc.strategy, fc.seed, fc.gcl_a, fc.gcl_c);
    EXPECT_TRUE(compare_relations(fc.c, rebuilt.c).equal) << "seed " << seed;
    EXPECT_TRUE(compare_relations(fc.a, rebuilt.a).equal) << "seed " << seed;
    EXPECT_EQ(fc.c_init, rebuilt.c_init) << "seed " << seed;
  }
}

TEST(GeneratorTest, ReproFormatRoundTripsEveryStrategy) {
  for (const std::string& strategy : strategy_names())
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      FuzzCase fc = draw_case(strategy, seed, 12);
      FuzzCase back = parse_repro(format_repro(fc));
      EXPECT_TRUE(compare_relations(fc.c, back.c).equal) << strategy << " " << seed;
      EXPECT_TRUE(compare_relations(fc.a, back.a).equal) << strategy << " " << seed;
      EXPECT_TRUE(compare_relations(fc.w, back.w).equal) << strategy << " " << seed;
      EXPECT_EQ(fc.c_init, back.c_init) << strategy << " " << seed;
      EXPECT_EQ(fc.a_init, back.a_init) << strategy << " " << seed;
      EXPECT_EQ(fc.alpha, back.alpha) << strategy << " " << seed;
      EXPECT_EQ(fc.gcl_a, back.gcl_a) << strategy << " " << seed;
      // Second trip is byte-identical: the format is canonical.
      EXPECT_EQ(format_repro(back), format_repro(fc)) << strategy << " " << seed;
    }
}

TEST(GeneratorTest, ReproParserRejectsMalformedInput) {
  EXPECT_THROW(parse_repro("c_states 2\n"), std::runtime_error);  // no a_states
  EXPECT_THROW(parse_repro("c_states 2\na_states 2\nc_edge 1 1\n"),
               std::runtime_error);  // self-loop
  EXPECT_THROW(parse_repro("c_states 2\na_states 2\nc_edge 0 5\n"),
               std::runtime_error);  // out of range
  EXPECT_THROW(parse_repro("c_states 2\na_states 3\n"),
               std::runtime_error);  // identity alpha needs equal counts
  EXPECT_THROW(parse_repro("c_states 2\na_states 2\nalpha 0\n"),
               std::runtime_error);  // alpha not total
  EXPECT_THROW(parse_repro("c_states 2\na_states 2\nbogus 1\n"),
               std::runtime_error);  // unknown directive
  EXPECT_THROW(parse_repro("gcl_a <<<\nsystem x { var v : 0..1; }\n>>>\n"),
               std::runtime_error);  // gcl_a without gcl_c
}

}  // namespace
}  // namespace cref::fuzz
