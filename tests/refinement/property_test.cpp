#include <gtest/gtest.h>

#include "refinement/certificate.hpp"
#include "refinement/checker.hpp"
#include "refinement/random_systems.hpp"

namespace cref {
namespace {

// =====================================================================
// Deterministic counterexample to Theorem 3 as literally stated.
//
//   A = {0->1, 1->2, 2->0, 0->3, 3->1}, I_A = {0}
//   C = {0->1, 1->2, 2->0, 3->2},       I_C = {0}
//   W = {0->3}
//
// [C <~ A] holds: C's computation from 3 (3,2,0,1,2,...) is a
// convergence isomorphism of A's (3,1,2,0,1,2,...) — one finite
// omission; everything else is exact. (A [] W) = A is stabilizing to A.
// Yet (C [] W) admits the computation 0,3,2,0,3,2,... whose every suffix
// contains the non-A step (3,2): the wrapper routes the composite back
// into the state from which C compresses, so the compression recurs
// forever. The gap in the paper's Lemma 2 proof is that [C (= A]_init
// constrains C only on states C itself reaches from the initial states —
// not on states the WRAPPER makes reachable. See EXPERIMENTS.md (E16).
// =====================================================================
TEST(Theorem3Counterexample, PremisesHoldConclusionFails) {
  TransitionGraph a =
      TransitionGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 1}});
  TransitionGraph c =
      TransitionGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 0}, {3, 2}});
  TransitionGraph w = TransitionGraph::from_edges(4, {{0, 3}});

  // Premise 1: [C <~ A].
  RefinementChecker ca(c, a, {0}, {0});
  ASSERT_TRUE(ca.convergence_refinement().holds);
  // ... and the compression is real: C's (3,2) skips A's interior state 1.
  EXPECT_EQ(ca.classify_edge(3, 2), EdgeClass::Compressed);

  // Premise 2: (A [] W) is stabilizing to A (here A [] W == A).
  TransitionGraph aw = graph_union(a, w);
  RefinementChecker awa(aw, a, {0}, {0});
  ASSERT_TRUE(awa.stabilizing_to().holds);

  // Conclusion of Theorem 3 fails: (C [] W) is NOT stabilizing to A.
  TransitionGraph cw = graph_union(c, w);
  RefinementChecker cwa(cw, a, {0}, {0});
  auto r = cwa.stabilizing_to();
  EXPECT_FALSE(r.holds);

  // Semantic cross-check, independent of the checker: the cycle
  // 0 -> 3 -> 2 -> 0 exists in C [] W and contains the edge (3, 2) which
  // is not a transition of A — so the computation looping through it has
  // no suffix following T_A.
  EXPECT_TRUE(cwa.c_graph().has_edge(0, 3));
  EXPECT_TRUE(cwa.c_graph().has_edge(3, 2));
  EXPECT_TRUE(cwa.c_graph().has_edge(2, 0));
  EXPECT_FALSE(a.has_edge(3, 2));
}

// =====================================================================
// Deterministic counterexample to Lemma 4 as literally stated — even
// smaller than Theorem 3's (three states suffice):
//
//   A  = the cycle {0->1, 1->2, 2->0}, I_A = {0}
//   W  = {0->1, 1->2}            (a fragment of A)
//   W' = {0->2, 1->2}            (compresses W's path 0->1->2)
//
// [W' <~ W] holds (the compression is off-cycle in W', deadlocks match),
// and (A [] W) = A is stabilizing to A. But (A [] W') has the cycle
// 0 -> 2 -> 0 whose step (0,2) is not a transition of A: the system A
// keeps routing the composite back to 0, where the refined wrapper
// compresses — forever. Same root cause as the Theorem 3 gap.
// =====================================================================
TEST(Lemma4Counterexample, PremisesHoldConclusionFails) {
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  TransitionGraph w = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}});
  TransitionGraph wp = TransitionGraph::from_edges(3, {{0, 2}, {1, 2}});

  RefinementChecker wpw(wp, w, {}, {});
  ASSERT_TRUE(wpw.convergence_refinement().holds);
  EXPECT_EQ(wpw.classify_edge(0, 2), EdgeClass::Compressed);

  RefinementChecker awa(graph_union(a, w), a, {0}, {0});
  ASSERT_TRUE(awa.stabilizing_to().holds);

  RefinementChecker awpa(graph_union(a, wp), a, {0}, {0});
  EXPECT_FALSE(awpa.stabilizing_to().holds);
  // The offending cycle, cross-checked against the raw graphs.
  EXPECT_TRUE(awpa.c_graph().has_edge(0, 2));
  EXPECT_TRUE(awpa.c_graph().has_edge(2, 0));
  EXPECT_FALSE(a.has_edge(0, 2));
}

// =====================================================================
// Randomized meta-theorem sweeps. Each instance draws (A, C, W); when a
// theorem's premises hold per the checkers, its conclusion must too.
// Theorems 0 and 1 are sound under the identity abstraction (see
// DESIGN.md); the suite asserts them on every instance. Theorem 3 is not
// (see above); for it we only validate the counterexamples.
// =====================================================================

struct Instance {
  TransitionGraph a;
  TransitionGraph c;
  TransitionGraph w;
  TransitionGraph b;
  std::vector<StateId> init;    // shared I_C = I_A
  std::vector<StateId> b_init;
};

Instance draw(std::uint64_t seed) {
  SystemSampler gen(seed);
  StateId n = 4 + static_cast<StateId>(seed % 5);  // 4..8 states
  Instance inst;
  inst.a = gen.random_graph(n, 0.30);
  // C: random subset of A's edges, sometimes with shortcut compressions.
  inst.c = gen.drop_edges(inst.a, 0.85);
  if (seed % 2 == 0) inst.c = gen.add_shortcuts(inst.c, 2);
  inst.w = gen.random_graph(n, 0.10);
  inst.b = gen.random_graph(n, 0.30);
  inst.init = gen.random_subset(n, 0.3, /*nonempty=*/true);
  inst.b_init = gen.random_subset(n, 0.3, /*nonempty=*/true);
  return inst;
}

class MetaTheoremTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetaTheoremTest, RelationHierarchy) {
  Instance inst = draw(GetParam());
  RefinementChecker rc(inst.c, inst.a, inst.init, inst.init);
  bool everywhere = rc.everywhere_refinement().holds;
  bool convergence = rc.convergence_refinement().holds;
  bool eventually = rc.everywhere_eventually_refinement().holds;
  if (everywhere) {
    EXPECT_TRUE(convergence) << "seed " << GetParam();
  }
  if (convergence) {
    EXPECT_TRUE(eventually) << "seed " << GetParam();
    EXPECT_TRUE(rc.refinement_init().holds) << "seed " << GetParam();
  }
}

TEST_P(MetaTheoremTest, TheoremZeroAndOne) {
  Instance inst = draw(GetParam());
  RefinementChecker ca(inst.c, inst.a, inst.init, inst.init);
  RefinementChecker ab(inst.a, inst.b, inst.init, inst.b_init);
  bool a_stab_b = ab.stabilizing_to().holds;
  if (!a_stab_b) return;
  RefinementChecker cb(inst.c, inst.b, inst.init, inst.b_init);
  // Theorem 0: everywhere refinement preserves stabilization.
  if (ca.everywhere_refinement().holds) {
    EXPECT_TRUE(cb.stabilizing_to().holds) << "Theorem 0 violated at seed " << GetParam();
  }
  // Theorem 1: convergence refinement preserves stabilization.
  if (ca.convergence_refinement().holds) {
    EXPECT_TRUE(cb.stabilizing_to().holds) << "Theorem 1 violated at seed " << GetParam();
  }
}

TEST_P(MetaTheoremTest, TheoremThreeViolationsAreGenuine) {
  Instance inst = draw(GetParam());
  RefinementChecker ca(inst.c, inst.a, inst.init, inst.init);
  if (!ca.convergence_refinement().holds) return;
  TransitionGraph aw = graph_union(inst.a, inst.w);
  RefinementChecker awa(std::move(aw), inst.a, inst.init, inst.init);
  if (!awa.stabilizing_to().holds) return;
  TransitionGraph cw = graph_union(inst.c, inst.w);
  RefinementChecker cwa(std::move(cw), inst.a, inst.init, inst.init);
  auto r = cwa.stabilizing_to();
  if (r.holds) return;  // theorem held here
  // A violation: its witness must be a genuine path/cycle of C [] W.
  EXPECT_TRUE(r.witness.is_path_of(cwa.c_graph())) << "seed " << GetParam();
}

TEST_P(MetaTheoremTest, SelfRefinementIsReflexive) {
  Instance inst = draw(GetParam());
  RefinementChecker aa(inst.a, inst.a, inst.init, inst.init);
  EXPECT_TRUE(aa.everywhere_refinement().holds);
  EXPECT_TRUE(aa.convergence_refinement().holds);
}

TEST_P(MetaTheoremTest, CertificateRoundTripOnRandomSystems) {
  // Whenever the checker proves stabilization, the certifying pipeline
  // must produce a certificate the independent validator accepts.
  Instance inst = draw(GetParam());
  RefinementChecker cb(inst.c, inst.b, inst.init, inst.b_init);
  const CheckResult verdict = cb.stabilizing_to();
  if (!verdict.holds) return;
  auto cert = make_certificate(cb, verdict);
  ASSERT_TRUE(cert.has_value()) << "seed " << GetParam();
  auto v = validate_certificate(cb.c_graph(), cb.a_graph(), cb.a_initial(), {}, *cert);
  EXPECT_TRUE(v.holds) << "seed " << GetParam() << ": " << v.reason;
}

TEST_P(MetaTheoremTest, StabilizationWitnessesAreValid) {
  Instance inst = draw(GetParam());
  RefinementChecker cb(inst.c, inst.b, inst.init, inst.b_init);
  auto r = cb.stabilizing_to();
  if (!r.holds && !r.witness.empty()) {
    EXPECT_TRUE(r.witness.is_path_of(cb.c_graph())) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetaTheoremTest, ::testing::Range<std::uint64_t>(0, 60));

// The randomized sweep must not be vacuous: across the seed range, a
// healthy number of instances must actually satisfy the premises.
TEST(MetaTheoremCoverage, PremisesAreExercised) {
  int everywhere = 0, convergence = 0, stab = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Instance inst = draw(seed);
    RefinementChecker ca(inst.c, inst.a, inst.init, inst.init);
    everywhere += ca.everywhere_refinement().holds;
    convergence += ca.convergence_refinement().holds;
    RefinementChecker ab(inst.a, inst.b, inst.init, inst.b_init);
    stab += ab.stabilizing_to().holds;
  }
  EXPECT_GT(convergence, 0);
  EXPECT_GT(everywhere + convergence, 0);
  EXPECT_GT(stab, 0);
}

}  // namespace
}  // namespace cref
