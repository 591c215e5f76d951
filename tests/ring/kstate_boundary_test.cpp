#include <gtest/gtest.h>

#include <tuple>

#include "refinement/checker.hpp"
#include "ring/kstate.hpp"

namespace cref::ring {
namespace {

// Rows of the (n, K) stabilization grid in kstate_test.cpp, under names
// that are the same on every run. KStateGridTest's parameter struct has
// three padding bytes; gtest prints a struct without a PrintTo as its raw
// bytes and ctest names a discovered test after that print. For these rows
// the padding holds bytes of leftover pointers, which move with address
// space randomization, so their KStateGridTest names change from one
// discovery run to the next. A tuple is printed field by field.
using BoundaryCase = std::tuple<int, int, bool>;  // n, K, stabilizing

class KStateBoundaryTest : public ::testing::TestWithParam<BoundaryCase> {};

TEST_P(KStateBoundaryTest, MatchesMeasuredBoundary) {
  const auto& [n, k, stabilizing] = GetParam();
  KStateLayout l(n, k);
  UtrLayout ul(n);
  RefinementChecker rc(make_kstate(l), make_utr(ul), make_alpha_k(l, ul));
  EXPECT_EQ(rc.stabilizing_to().holds, stabilizing) << "n=" << n << " K=" << k;
}

INSTANTIATE_TEST_SUITE_P(Grid, KStateBoundaryTest,
                         ::testing::Values(BoundaryCase{3, 2, false}, BoundaryCase{3, 3, true},
                                           BoundaryCase{3, 4, true}, BoundaryCase{4, 2, false},
                                           BoundaryCase{4, 3, false}, BoundaryCase{4, 4, true},
                                           BoundaryCase{5, 5, true}));

}  // namespace
}  // namespace cref::ring
