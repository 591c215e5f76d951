#include <gtest/gtest.h>

#include <tuple>

#include "refinement/checker.hpp"
#include "ring/kstate.hpp"

namespace cref::ring {
namespace {

// Seven rows of the (n, K) stabilization grid in kstate_test.cpp, kept
// under their established test names. They were split out while
// KStateGridTest took a padded struct, whose raw-byte print gave these
// rows names that changed between runs; KStateGridTest now takes a tuple
// and runs every row under a stable name, so these rows run twice.
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
