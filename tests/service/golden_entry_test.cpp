// Byte-level goldens of the certificate emitters: the exact
// serialize_entry text of all five relations on two fixed hand-built
// instances, and one stabilization certificate's rank vectors. The
// structural certificate tests elsewhere accept any valid certificate;
// these pin the emitted bytes (rho as Tarjan ranks, sigma as
// longest-path ranks, compressed A-paths, init paths, separating sets),
// so a rewrite of the traversals behind them cannot drift silently.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "refinement/certificate.hpp"
#include "refinement/checker.hpp"
#include "service/cache.hpp"
#include "service/certify.hpp"
#include "service/relation.hpp"

namespace cref::service {
namespace {

// A: 0 -> 1 -> 2 -> 0 (the legitimate cycle) and 3 -> 4 -> 0, I_A = {0}.
// C (alpha 0 1 2 3 4 3 3): the same cycle, the compression 3 -> 0 of
// A's 3 -> 4 -> 0, the exact 4 -> 0 and 5 -> 4, and the stutter DAG
// 6 -> 5 -> 3, 6 -> 3. Everything but [C (= A] holds.
RefinementChecker holding_instance() {
  return RefinementChecker(
      TransitionGraph::from_edges(
          7, {{0, 1}, {1, 2}, {2, 0}, {3, 0}, {4, 0}, {5, 3}, {5, 4}, {6, 3}, {6, 5}}),
      TransitionGraph::from_edges(5, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 0}}), {0}, {0},
      {0, 1, 2, 3, 4, 3, 3});
}

// A: 0 <-> 1, 1 -> 2 -> 0, deadlock 3, I_A = {0}.
// C (alpha 0 1 2 2 1 3): 0 <-> 1, 1 -> 2, the reachable stutter cycle
// 2 <-> 3 at the non-deadlock image 2, the unreachable invalid edge
// 4 -> 5, and the deadlock 5 whose image 3 lies outside R_A. Every
// relation fails.
RefinementChecker failing_instance() {
  return RefinementChecker(
      TransitionGraph::from_edges(6, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}, {4, 5}}),
      TransitionGraph::from_edges(4, {{0, 1}, {1, 0}, {1, 2}, {2, 0}}), {0}, {0},
      {0, 1, 2, 2, 1, 3});
}

std::string entry_text(const RefinementChecker& rc, Relation r) {
  const CheckResult res = run_relation(rc, r);
  CacheEntry e;
  e.relation = r;
  e.holds = res.holds;
  e.reason = res.reason;
  e.witness = res.witness.states;
  e.certificate = make_job_certificate(rc, r, res);
  return serialize_entry(e);
}

std::vector<std::string> entries(const RefinementChecker& rc) {
  std::vector<std::string> out;
  for (Relation r : kAllRelations) out.push_back(entry_text(rc, r));
  return out;
}

TEST(GoldenEntryTest, HoldingInstanceWithCompressedEdge) {
  const std::vector<std::string> expected = {
      "cref-cache 2\n"
      "relation refinement-init\n"
      "holds 1\n"
      "reason \n"
      "witness 0\n"
      "cert 1\n"
      "positive 1\n"
      "rho 0\n"
      "sigma 7 0 0 0 0 0 0 0\n"
      "region 7 1110000\n"
      "compressed 0\n"
      "stab-reach 0\n"
      "stab-parent 0\n"
      "stab-depth 0\n"
      "stab-rho 0\n"
      "stab-sigma 0\n"
      "kind deadlock\n"
      "init-path 0\n"
      "a-closed 0\n"
      "refine 0\n"
      "end\n",
      "cref-cache 2\n"
      "relation everywhere\n"
      "holds 0\n"
      "reason [C (= A]: transition is not a transition of A (it compresses an A-path)\n"
      "witness 2 3 0\n"
      "cert 1\n"
      "positive 0\n"
      "rho 0\n"
      "sigma 0\n"
      "region 0\n"
      "compressed 0\n"
      "stab-reach 0\n"
      "stab-parent 0\n"
      "stab-depth 0\n"
      "stab-rho 0\n"
      "stab-sigma 0\n"
      "kind bad-edge\n"
      "init-path 0\n"
      "a-closed 0\n"
      "refine 0\n"
      "end\n",
      "cref-cache 2\n"
      "relation convergence\n"
      "holds 1\n"
      "reason \n"
      "witness 0\n"
      "cert 1\n"
      "positive 1\n"
      "rho 7 0 0 0 1 2 3 4\n"
      "sigma 7 0 0 0 0 0 1 2\n"
      "region 7 1110000\n"
      "compressed 1\n"
      "cpath 3 0 3 3 4 0\n"
      "stab-reach 0\n"
      "stab-parent 0\n"
      "stab-depth 0\n"
      "stab-rho 0\n"
      "stab-sigma 0\n"
      "kind deadlock\n"
      "init-path 0\n"
      "a-closed 0\n"
      "refine 0\n"
      "end\n",
      "cref-cache 2\n"
      "relation eventually\n"
      "holds 1\n"
      "reason \n"
      "witness 0\n"
      "cert 1\n"
      "positive 1\n"
      "rho 7 0 0 0 1 2 3 4\n"
      "sigma 7 0 0 0 0 0 1 2\n"
      "region 7 1110000\n"
      "compressed 0\n"
      "stab-reach 0\n"
      "stab-parent 0\n"
      "stab-depth 0\n"
      "stab-rho 0\n"
      "stab-sigma 0\n"
      "kind deadlock\n"
      "init-path 0\n"
      "a-closed 0\n"
      "refine 0\n"
      "end\n",
      "cref-cache 2\n"
      "relation stabilizing\n"
      "holds 1\n"
      "reason \n"
      "witness 0\n"
      "cert 1\n"
      "positive 1\n"
      "rho 0\n"
      "sigma 0\n"
      "region 0\n"
      "compressed 0\n"
      "stab-reach 5 11100\n"
      "stab-parent 5 18446744073709551615 0 1 18446744073709551615 18446744073709551615\n"
      "stab-depth 5 0 1 2 0 0\n"
      "stab-rho 7 0 0 0 1 2 3 4\n"
      "stab-sigma 7 0 0 0 0 0 1 2\n"
      "kind deadlock\n"
      "init-path 0\n"
      "a-closed 0\n"
      "refine 0\n"
      "end\n"};
  EXPECT_EQ(entries(holding_instance()), expected);
}

TEST(GoldenEntryTest, FailingInstanceWithWitnesses) {
  const std::vector<std::string> expected = {
      "cref-cache 2\n"
      "relation refinement-init\n"
      "holds 0\n"
      "reason [C (= A]_init: divergence — a cycle of pure-stutter transitions whose image is not a deadlock of A\n"
      "witness 3 2 3 2\n"
      "cert 1\n"
      "positive 0\n"
      "rho 0\n"
      "sigma 0\n"
      "region 0\n"
      "compressed 0\n"
      "stab-reach 0\n"
      "stab-parent 0\n"
      "stab-depth 0\n"
      "stab-rho 0\n"
      "stab-sigma 0\n"
      "kind stutter-cycle\n"
      "init-path 3 0 1 2\n"
      "a-closed 0\n"
      "refine 0\n"
      "end\n",
      "cref-cache 2\n"
      "relation everywhere\n"
      "holds 0\n"
      "reason [C (= A]: transition's image is not even reachable in A\n"
      "witness 2 4 5\n"
      "cert 1\n"
      "positive 0\n"
      "rho 0\n"
      "sigma 0\n"
      "region 0\n"
      "compressed 0\n"
      "stab-reach 0\n"
      "stab-parent 0\n"
      "stab-depth 0\n"
      "stab-rho 0\n"
      "stab-sigma 0\n"
      "kind bad-edge\n"
      "init-path 0\n"
      "a-closed 0\n"
      "refine 0\n"
      "end\n",
      "cref-cache 2\n"
      "relation convergence\n"
      "holds 0\n"
      "reason [C (= A]_init: divergence — a cycle of pure-stutter transitions whose image is not a deadlock of A\n"
      "witness 3 2 3 2\n"
      "cert 1\n"
      "positive 0\n"
      "rho 0\n"
      "sigma 0\n"
      "region 0\n"
      "compressed 0\n"
      "stab-reach 0\n"
      "stab-parent 0\n"
      "stab-depth 0\n"
      "stab-rho 0\n"
      "stab-sigma 0\n"
      "kind stutter-cycle\n"
      "init-path 0\n"
      "a-closed 0\n"
      "refine 0\n"
      "end\n",
      "cref-cache 2\n"
      "relation eventually\n"
      "holds 0\n"
      "reason [C (= A]_init: divergence — a cycle of pure-stutter transitions whose image is not a deadlock of A\n"
      "witness 3 2 3 2\n"
      "cert 1\n"
      "positive 0\n"
      "rho 0\n"
      "sigma 0\n"
      "region 0\n"
      "compressed 0\n"
      "stab-reach 0\n"
      "stab-parent 0\n"
      "stab-depth 0\n"
      "stab-rho 0\n"
      "stab-sigma 0\n"
      "kind stutter-cycle\n"
      "init-path 0\n"
      "a-closed 0\n"
      "refine 0\n"
      "end\n",
      "cref-cache 2\n"
      "relation stabilizing\n"
      "holds 0\n"
      "reason stabilizing-to: C deadlocks in a state whose image is not a reachable deadlock of A\n"
      "witness 1 5\n"
      "cert 1\n"
      "positive 0\n"
      "rho 0\n"
      "sigma 0\n"
      "region 0\n"
      "compressed 0\n"
      "stab-reach 0\n"
      "stab-parent 0\n"
      "stab-depth 0\n"
      "stab-rho 0\n"
      "stab-sigma 0\n"
      "kind unreachable-image\n"
      "init-path 0\n"
      "a-closed 4 1110\n"
      "refine 0\n"
      "end\n"};
  EXPECT_EQ(entries(failing_instance()), expected);
}

TEST(GoldenEntryTest, StabilizationCertificateRanks) {
  constexpr StateId k = StabilizationCertificate::kNoParent;
  const auto cert = make_certificate(holding_instance());
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->rho, (std::vector<std::uint64_t>{0, 0, 0, 1, 2, 3, 4}));
  EXPECT_EQ(cert->sigma, (std::vector<std::uint64_t>{0, 0, 0, 0, 0, 1, 2}));
  EXPECT_EQ(cert->a_parent, (std::vector<StateId>{k, 0, 1, k, k}));
  EXPECT_EQ(cert->a_depth, (std::vector<std::uint32_t>{0, 1, 2, 0, 0}));
  EXPECT_EQ(cert->a_reachable, (std::vector<char>{1, 1, 1, 0, 0}));
}

}  // namespace
}  // namespace cref::service
