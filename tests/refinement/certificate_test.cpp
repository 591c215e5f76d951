#include "refinement/certificate.hpp"

#include <gtest/gtest.h>

#include "ring/btr.hpp"
#include "ring/three_state.hpp"

namespace cref {
namespace {

std::vector<StateId> alpha_table_of(const Abstraction& a) {
  std::vector<StateId> t(a.from().size());
  for (StateId s = 0; s < a.from().size(); ++s) t[s] = a.apply(s);
  return t;
}

TEST(CertificateTest, HandAutomatonRoundTrip) {
  // A: legit cycle 0 <-> 1; C adds recovery 2 -> 0 and a garbage chain.
  TransitionGraph a = TransitionGraph::from_edges(4, {{0, 1}, {1, 0}});
  TransitionGraph c =
      TransitionGraph::from_edges(4, {{0, 1}, {1, 0}, {2, 0}, {3, 2}});
  RefinementChecker rc(c, a, {0}, {0});
  ASSERT_TRUE(rc.stabilizing_to().holds);
  auto cert = make_certificate(rc, rc.stabilizing_to());
  ASSERT_TRUE(cert.has_value());
  auto v = validate_certificate(rc.c_graph(), rc.a_graph(), {0}, {}, *cert);
  EXPECT_TRUE(v.holds) << v.reason;
  // The certificate's reachable set is exactly {0, 1}.
  EXPECT_EQ(cert->a_reachable, (std::vector<char>{1, 1, 0, 0}));
}

TEST(CertificateTest, NonStabilizingSystemHasNoCertificate) {
  // State 2 deadlocks outside R_A: not stabilizing, so no certificate.
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}});
  TransitionGraph c = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}});
  RefinementChecker rc(c, a, {0}, {0});
  ASSERT_FALSE(rc.stabilizing_to().holds);
  EXPECT_FALSE(make_certificate(rc, rc.stabilizing_to()).has_value());
}

TEST(CertificateTest, ValidatorRejectsTamperedRho) {
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}});
  TransitionGraph c = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}, {2, 0}});
  RefinementChecker rc(c, a, {0}, {0});
  auto cert = make_certificate(rc, rc.stabilizing_to());
  ASSERT_TRUE(cert.has_value());
  // Claim the recovery state already converged: the bad edge (2, 0) no
  // longer decreases rho.
  cert->rho[2] = cert->rho[0];
  auto v = validate_certificate(rc.c_graph(), rc.a_graph(), {0}, {}, *cert);
  EXPECT_FALSE(v.holds);
  EXPECT_NE(v.reason.find("rho"), std::string::npos);
}

TEST(CertificateTest, ValidatorRejectsInflatedReachableSet) {
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}});
  TransitionGraph c = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}, {2, 0}});
  RefinementChecker rc(c, a, {0}, {0});
  auto cert = make_certificate(rc, rc.stabilizing_to());
  ASSERT_TRUE(cert.has_value());
  // Mark the garbage state reachable without a witness path.
  cert->a_reachable[2] = 1;
  cert->a_parent[2] = StabilizationCertificate::kNoParent;
  auto v = validate_certificate(rc.c_graph(), rc.a_graph(), {0}, {}, *cert);
  EXPECT_FALSE(v.holds);
}

TEST(CertificateTest, ValidatorRejectsSizeMismatch) {
  TransitionGraph a = TransitionGraph::from_edges(2, {{0, 1}, {1, 0}});
  TransitionGraph c = a;
  RefinementChecker rc(c, a, {0}, {0});
  auto cert = make_certificate(rc, rc.stabilizing_to());
  ASSERT_TRUE(cert.has_value());
  cert->rho.pop_back();
  EXPECT_FALSE(validate_certificate(rc.c_graph(), rc.a_graph(), {0}, {}, *cert).holds);
}

class RingCertificateTest : public ::testing::TestWithParam<int> {};

TEST_P(RingCertificateTest, Dijkstra3CertificateValidates) {
  int n = GetParam();
  ring::ThreeStateLayout l(n);
  ring::BtrLayout bl(n);
  Abstraction a3 = ring::make_alpha3(l, bl);
  RefinementChecker rc(ring::make_dijkstra3(l), ring::make_btr(bl), a3);
  auto cert = make_certificate(rc, rc.stabilizing_to());
  ASSERT_TRUE(cert.has_value());
  auto v = validate_certificate(rc.c_graph(), rc.a_graph(), rc.a_initial(),
                                alpha_table_of(a3), *cert);
  EXPECT_TRUE(v.holds) << v.reason;
}

TEST_P(RingCertificateTest, WrappedC3CertificateValidates) {
  // The stutter-sigma component is exercised by C3's dynamics.
  int n = GetParam();
  ring::ThreeStateLayout l(n);
  ring::BtrLayout bl(n);
  Abstraction a3 = ring::make_alpha3(l, bl);
  System c3w = box_priority(ring::make_c3(l),
                            box(ring::make_w1_dprime(l), ring::make_w2_prime3(l)));
  RefinementChecker rc(c3w, ring::make_btr(bl), a3);
  auto cert = make_certificate(rc, rc.stabilizing_to());
  ASSERT_TRUE(cert.has_value());
  auto v = validate_certificate(rc.c_graph(), rc.a_graph(), rc.a_initial(),
                                alpha_table_of(a3), *cert);
  EXPECT_TRUE(v.holds) << v.reason;
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingCertificateTest, ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace cref
