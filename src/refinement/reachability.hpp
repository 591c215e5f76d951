#pragma once

// The repo's one reachability sweep and one shortest-path BFS, templated
// on the successor source: `succ(s)` returns s's successor list as any
// range of StateId — a CSR slice, or a view of a reused buffer (each list
// is consumed before the next call). The explicit CSR wrappers at the
// bottom, the on-the-fly engine and the certificate emitters all call
// these two.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/trace.hpp"
#include "util/bitset.hpp"

namespace cref {

/// Reachable set from the members of `seeds` (inclusive), over the state
/// ids [0, seeds.size()). Word-parallel frontier sweep: the frontier,
/// visited set and next frontier are all uint64_t bitsets, so membership
/// tests and frontier enumeration touch 64 states per word, and only
/// states inside the reachable region are ever expanded.
template <class Succ>
util::DenseBitset reachable_set(const util::DenseBitset& seeds, Succ&& succ) {
  util::DenseBitset visited = seeds;
  util::DenseBitset frontier = seeds;
  util::DenseBitset next(seeds.size());
  while (frontier.any()) {
    next.reset_all();
    frontier.for_each_set([&](std::size_t s) {
      for (StateId t : succ(static_cast<StateId>(s))) {
        if (!visited.test(t)) {
          visited.set(t);
          next.set(t);
        }
      }
    });
    std::swap(frontier, next);
  }
  return visited;
}

/// Admits every state: the default allowed-predicate of shortest_path.
struct AnyState {
  bool operator()(StateId) const { return true; }
};

/// Shortest path from any state of `sources` to `target` (inclusive of
/// both endpoints) through states satisfying `allowed`, over the state
/// ids [0, n); std::nullopt if there is none. Sources are enqueued in the
/// given order (so ties break the same way for every successor source);
/// disallowed and repeated sources are skipped, and a source equal to
/// `target` yields the single-state path. Failure paths only: allocates
/// 4-byte parents for all n states, so n must stay below 2^32 - 1.
template <class Succ, class Allowed = AnyState>
std::optional<Trace> shortest_path(StateId n, const std::vector<StateId>& sources,
                                   StateId target, Succ&& succ, Allowed allowed = {}) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  if (n >= kNone) throw std::length_error("shortest_path: state count exceeds 2^32 - 1");
  std::vector<std::uint32_t> parent(n, kNone);
  util::DenseBitset seen(n);
  std::deque<StateId> queue;
  for (StateId s : sources) {
    if (seen.test(s) || !allowed(s)) continue;
    if (s == target) return Trace{{s}};
    seen.set(s);
    queue.push_back(s);
  }
  while (!queue.empty()) {
    const StateId s = queue.front();
    queue.pop_front();
    for (StateId t : succ(s)) {
      if (seen.test(t) || !allowed(t)) continue;
      seen.set(t);
      parent[t] = static_cast<std::uint32_t>(s);
      if (t == target) {
        Trace tr;
        for (StateId cur = t;; cur = parent[cur]) {
          tr.states.push_back(cur);
          if (parent[cur] == kNone) break;
        }
        std::reverse(tr.states.begin(), tr.states.end());
        return tr;
      }
      queue.push_back(t);
    }
  }
  return std::nullopt;
}

/// reachable_set over a CSR, seeded by a list of states.
inline util::DenseBitset reachable_from(const TransitionGraph& g,
                                        const std::vector<StateId>& sources) {
  util::DenseBitset seeds(g.num_states());
  for (StateId s : sources) seeds.set(s);
  return reachable_set(seeds, [&g](StateId s) { return g.successors(s); });
}

/// shortest_path over a whole CSR.
inline std::optional<Trace> find_path(const TransitionGraph& g,
                                      const std::vector<StateId>& sources, StateId target) {
  return shortest_path(g.num_states(), sources, target,
                       [&g](StateId s) { return g.successors(s); });
}

}  // namespace cref
