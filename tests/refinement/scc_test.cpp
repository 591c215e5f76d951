// LazyScc over a CSR: the decomposition every relation, certificate and
// ground truth reads, with its numbering contract pinned.

#include <gtest/gtest.h>

#include "refinement/onthefly.hpp"

namespace cref {
namespace {

LazyScc scc_of(const TransitionGraph& g) {
  return LazyScc(g.num_states(), [&g](StateId s) { return g.successors(s); });
}

std::size_t size_of(const LazyScc& scc, StateId n, std::size_t comp) {
  std::size_t members = 0;
  for (StateId s = 0; s < n; ++s) members += scc.component(s) == comp;
  return members;
}

TEST(SccTest, DagIsAllSingletons) {
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  LazyScc scc = scc_of(g);
  EXPECT_EQ(scc.count(), 4u);
  EXPECT_EQ(scc.nontrivial_count(), 0u);
  for (StateId s = 0; s < 4; ++s) EXPECT_EQ(size_of(scc, 4, scc.component(s)), 1u);
  EXPECT_FALSE(scc.edge_on_cycle(0, 1));
}

TEST(SccTest, SingleCycle) {
  TransitionGraph g = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  LazyScc scc = scc_of(g);
  EXPECT_EQ(scc.count(), 1u);
  EXPECT_TRUE(scc.edge_on_cycle(0, 1));
  EXPECT_TRUE(scc.edge_on_cycle(2, 0));
}

TEST(SccTest, CycleWithTail) {
  // 0 -> 1 <-> 2, 2 -> 3
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
  LazyScc scc = scc_of(g);
  EXPECT_EQ(scc.count(), 3u);
  EXPECT_EQ(scc.component(1), scc.component(2));
  EXPECT_NE(scc.component(0), scc.component(1));
  EXPECT_TRUE(scc.edge_on_cycle(1, 2));
  EXPECT_FALSE(scc.edge_on_cycle(0, 1));
  EXPECT_FALSE(scc.edge_on_cycle(2, 3));
}

TEST(SccTest, TwoSeparateCycles) {
  TransitionGraph g =
      TransitionGraph::from_edges(5, {{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}});
  LazyScc scc = scc_of(g);
  EXPECT_EQ(scc.component(0), scc.component(1));
  EXPECT_EQ(scc.component(2), scc.component(3));
  EXPECT_NE(scc.component(0), scc.component(2));
  EXPECT_FALSE(scc.edge_on_cycle(1, 2));
}

TEST(SccTest, ReverseTopologicalIdOrder) {
  // Tarjan ids: cross edges go from higher to lower component id.
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  LazyScc scc = scc_of(g);
  for (StateId s = 0; s < 4; ++s)
    for (StateId t : g.successors(s))
      if (scc.component(s) != scc.component(t)) {
        EXPECT_GT(scc.component(s), scc.component(t));
      }
}

TEST(SccTest, NumberingIsPinnedAfterCompIdNarrowing) {
  // The traversal (roots ascending, successors in CSR order) and hence
  // the EXACT component numbering are part of the contract: rho
  // certificates and the condensation-closure sweep depend on it.
  static_assert(sizeof(LazyScc::CompId) == 4, "CompId is the 4-byte budget");
  // 0 -> 1 <-> 2, 2 -> 3: DFS pops {3} first, then {1, 2}, then {0}.
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
  LazyScc scc = scc_of(g);
  EXPECT_EQ(scc.component(3), 0u);
  EXPECT_EQ(scc.component(1), 1u);
  EXPECT_EQ(scc.component(2), 1u);
  EXPECT_EQ(scc.component(0), 2u);
}

TEST(SccTest, DeepChainDoesNotOverflowStack) {
  const StateId n = 200000;
  std::vector<std::pair<StateId, StateId>> edges;
  for (StateId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(n - 1, 0);  // close into one giant cycle
  LazyScc scc = scc_of(TransitionGraph::from_edges(n, std::move(edges)));
  EXPECT_EQ(scc.count(), 1u);
  EXPECT_TRUE(scc.nontrivial(0));
  EXPECT_EQ(scc.component(n - 1), 0u);
}

TEST(SccTest, ComponentSizesSumToStateCount) {
  // State 4's self-loop leaves it a trivial singleton.
  TransitionGraph g =
      TransitionGraph::from_edges(6, {{0, 1}, {1, 0}, {2, 3}, {4, 4 % 6}, {5, 2}});
  LazyScc scc = scc_of(g);
  std::size_t total = 0;
  for (std::size_t c = 0; c < scc.count(); ++c) total += size_of(scc, 6, c);
  EXPECT_EQ(total, 6u);
  EXPECT_EQ(scc.nontrivial_count(), 1u);
  EXPECT_FALSE(scc.nontrivial(scc.component(4)));
}

}  // namespace
}  // namespace cref
