#include "refinement/reachability.hpp"

#include <gtest/gtest.h>

namespace cref {
namespace {

util::DenseBitset bits(std::initializer_list<int> membership) {
  util::DenseBitset b(membership.size());
  std::size_t i = 0;
  for (int m : membership) b.set(i++, m != 0);
  return b;
}

TransitionGraph chain_with_branch() {
  // 0 -> 1 -> 2 -> 3, 1 -> 4, 5 isolated, 6 -> 0
  return TransitionGraph::from_edges(7, {{0, 1}, {1, 2}, {2, 3}, {1, 4}, {6, 0}});
}

TEST(ReachabilityTest, FromSingleSource) {
  auto reach = reachable_from(chain_with_branch(), {0});
  EXPECT_EQ(reach, bits({1, 1, 1, 1, 1, 0, 0}));
}

TEST(ReachabilityTest, FromMultipleSources) {
  auto reach = reachable_from(chain_with_branch(), {5, 6});
  EXPECT_EQ(reach, bits({1, 1, 1, 1, 1, 1, 1}));
}

TEST(ReachabilityTest, EmptySources) {
  auto reach = reachable_from(chain_with_branch(), {});
  EXPECT_TRUE(reach.none());
  EXPECT_EQ(reach.size(), 7u);
}

TEST(FindPathTest, ShortestPath) {
  // Two routes 0->3: 0-1-2-3 and 0-3.
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  auto path = find_path(g, {0}, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->states, (std::vector<StateId>{0, 3}));
}

TEST(FindPathTest, TargetIsSource) {
  TransitionGraph g = TransitionGraph::from_edges(2, {{0, 1}});
  auto path = find_path(g, {1}, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->states, (std::vector<StateId>{1}));
}

TEST(FindPathTest, Unreachable) {
  TransitionGraph g = TransitionGraph::from_edges(3, {{0, 1}});
  EXPECT_FALSE(find_path(g, {0}, 2).has_value());
}

// The shared BFS with an allowed-predicate, the form the engine's
// same-component witness search uses.
std::optional<Trace> path_within(const TransitionGraph& g, StateId source, StateId target,
                                 const util::DenseBitset& allowed) {
  return shortest_path(
      g.num_states(), {source}, target, [&g](StateId s) { return g.successors(s); },
      [&allowed](StateId s) { return allowed.test(s); });
}

TEST(FindPathWithinTest, RespectsAllowedSet) {
  // 0 -> 1 -> 3 and 0 -> 2 -> 3; forbid 1.
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  auto path = path_within(g, 0, 3, bits({1, 0, 1, 1}));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->states, (std::vector<StateId>{0, 2, 3}));
  EXPECT_FALSE(path_within(g, 0, 3, bits({1, 0, 0, 1})).has_value());
}

TEST(FindPathWithinTest, ForbiddenEndpointsFail) {
  TransitionGraph g = TransitionGraph::from_edges(2, {{0, 1}});
  EXPECT_FALSE(path_within(g, 0, 1, bits({0, 1})).has_value());
  EXPECT_FALSE(path_within(g, 0, 1, bits({1, 0})).has_value());
  EXPECT_FALSE(path_within(g, 1, 1, bits({1, 0})).has_value());
}

TEST(ReachabilityTest, CrossesWordBoundaries) {
  // A 130-state chain spans three bitset words; the frontier sweep must
  // carry the wave across both 64-bit boundaries.
  const StateId n = 130;
  std::vector<std::pair<StateId, StateId>> edges;
  for (StateId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  TransitionGraph g = TransitionGraph::from_edges(n, std::move(edges));
  auto reach = reachable_from(g, {0});
  EXPECT_EQ(reach.count(), n);
  EXPECT_TRUE(reach.test(63));
  EXPECT_TRUE(reach.test(64));
  EXPECT_TRUE(reach.test(n - 1));
  auto from_mid = reachable_from(g, {64});
  EXPECT_EQ(from_mid.count(), n - 64);
  EXPECT_FALSE(from_mid.test(63));
}

TEST(ReachabilityTest, LargeChainIterative) {
  // 100k-state chain: exercises the non-recursive BFS at depth.
  const StateId n = 100000;
  std::vector<std::pair<StateId, StateId>> edges;
  edges.reserve(n - 1);
  for (StateId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  TransitionGraph g = TransitionGraph::from_edges(n, std::move(edges));
  auto reach = reachable_from(g, {0});
  EXPECT_TRUE(reach.test(n - 1));
  EXPECT_EQ(reach.count(), n);
  auto path = find_path(g, {0}, n - 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->states.size(), n);
}

}  // namespace
}  // namespace cref
