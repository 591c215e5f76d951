#pragma once

// Brute-force reference decision procedures for every relation of the
// paper, deliberately sharing NO algorithmic machinery with
// RefinementChecker: dense boolean adjacency matrices, Floyd-Warshall
// transitive closure, and direct application of the definitional
// conditions — no Tarjan SCC, no condensation closure, no BFS, no thread
// pool, no lazy caches. O(n^3) time and O(n^2) space, intended for the
// <= a-few-dozen-state instances the fuzzer draws; the differential
// oracle (src/fuzzing/oracles.hpp) compares its verdicts against the
// production engine on every sampled case.

#include <string>
#include <vector>

#include "core/graph.hpp"
#include "gcl/ast.hpp"

namespace cref::fuzz {

/// The five verdict bits of RefinementChecker, recomputed naively.
struct ReferenceVerdicts {
  bool refinement_init = false;   // [C (= A]_init
  bool everywhere = false;        // [C (= A]
  bool convergence = false;       // [C <~ A]
  bool eventually = false;        // everywhere-eventually refinement
  bool stabilizing = false;       // C is stabilizing to A
};

/// Decides all five relations for (C, A, alpha). `alpha` empty means
/// identity (requires equal state counts). Semantics match checker.hpp
/// exactly: empty C-init makes the init-scoped conditions vacuous, empty
/// A-init makes stabilizing-to fail outright.
ReferenceVerdicts reference_check(const TransitionGraph& c, const TransitionGraph& a,
                                  const std::vector<StateId>& c_init,
                                  const std::vector<StateId>& a_init,
                                  const std::vector<StateId>& alpha);

/// Holds the compiled system `sys` = gcl::compile(`ast`) to a tree-walk
/// of gcl::eval at state `s`: the successor list (every action whose
/// guard evaluates nonzero evaluates all right-hand sides against the
/// old state, writes them in order so a repeated target keeps the last
/// value, reduces each mod its cardinality; no-op steps dropped), the
/// init predicate, and every action's guard and effect closure. Returns
/// "" when all agree, otherwise a description of the first difference.
/// The reference the compiled successor kernel is tested against.
std::string treewalk_mismatch(const gcl::SystemAst& ast, const System& sys, StateId s);

}  // namespace cref::fuzz
