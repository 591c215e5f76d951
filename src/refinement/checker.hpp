#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/abstraction.hpp"
#include "core/graph.hpp"
#include "core/system.hpp"
#include "refinement/check_result.hpp"
#include "refinement/engine.hpp"
#include "refinement/onthefly.hpp"
#include "util/bitset.hpp"

namespace cref {

/// Explicit front end of the relation engine: materializes C and A as
/// CSRs (or takes hand-built ones) and moves both into one graph-backed
/// OnTheFlyChecker, which decides every relation — see that class for
/// the contracts and their reduction to graph conditions. On top of the
/// engine this class keeps what explicit clients read: the CSRs, the
/// reversed C graph, the alpha table, compression examples and the
/// graph-build timing.
class RefinementChecker {
 public:
  /// Builds graphs for `c` and `a` (using `opts` for the parallel
  /// Sigma-materialization) and checks relations through `alpha` (whose
  /// from/to spaces must match c/a).
  RefinementChecker(const System& c, const System& a, Abstraction alpha,
                    const EngineOptions& opts = {});

  /// Same-space convenience: identity abstraction. The spaces of `c` and
  /// `a` must have the same shape.
  RefinementChecker(const System& c, const System& a, const EngineOptions& opts = {});

  /// Hand-built automata (tests, Figure 1, graph jobs of the service).
  /// `alpha_table` maps every C-state to an A-state; empty means
  /// identity (same state count). Throws std::invalid_argument for an
  /// alpha entry or an initial state outside its space.
  RefinementChecker(TransitionGraph c, TransitionGraph a, std::vector<StateId> c_init,
                    std::vector<StateId> a_init, std::vector<StateId> alpha_table = {});

  // The relations and edge queries, decided by the engine.
  CheckResult refinement_init() const { return engine_.refinement_init(); }
  CheckResult everywhere_refinement() const { return engine_.everywhere_refinement(); }
  CheckResult convergence_refinement() const { return engine_.convergence_refinement(); }
  CheckResult everywhere_eventually_refinement() const {
    return engine_.everywhere_eventually_refinement();
  }
  CheckResult stabilizing_to() const { return engine_.stabilizing_to(); }
  EdgeClass classify_edge(StateId s, StateId t) const { return engine_.classify_edge(s, t); }
  EdgeStats edge_stats() const { return engine_.edge_stats(); }
  bool reachable_in_a(StateId src, StateId dst) const { return engine_.reachable_in_a(src, dst); }

  /// True if alpha maps the initial states of C into the initial states
  /// of A (reported separately: the paper's refinement definition
  /// constrains computations, not the initial sets themselves).
  bool initial_states_match() const;

  /// An example of a Compressed concrete edge together with the dropped
  /// interior A-path it compresses; nullopt if no compressed edge exists.
  /// The first trace is the single concrete edge (2 states), the second
  /// the A-path between the images.
  std::optional<std::pair<Trace, Trace>> example_compression() const;

  /// Engine tuning. Set BEFORE the first check; not synchronized against
  /// concurrently running checks on this instance. (The graph build in
  /// the system-taking constructors uses the options passed there.)
  void set_engine_options(const EngineOptions& opts) { engine_.set_engine_options(opts); }
  const EngineOptions& engine_options() const { return engine_.engine_options(); }

  /// Snapshot of the accumulated per-phase wall-clock totals.
  PhaseTimings phase_timings() const;
  void reset_phase_timings() const;

  const TransitionGraph& c_graph() const { return engine_.c_graph(); }
  const TransitionGraph& a_graph() const { return engine_.a_graph(); }
  const std::vector<StateId>& c_initial() const { return engine_.c_initial(); }
  const std::vector<StateId>& a_initial() const { return engine_.a_initial(); }

  /// The reversed concrete graph (predecessor lists), built lazily and
  /// memoized; clients walking T_C backwards (convergence-time layering)
  /// share one copy instead of re-deriving it per query.
  const TransitionGraph& c_reversed() const;

  /// Image of concrete state `s` under alpha.
  StateId image(StateId s) const {
    const std::vector<StateId>& table = engine_.alpha_table();
    return table.empty() ? s : table[s];
  }

  /// Membership bitsets of reachable(C, I_C) and R_A = reachable(A, I_A)
  /// (computed lazily, thread-safely; shared with the engine's checks).
  const util::DenseBitset& c_reachable_set() const { return engine_.c_reachable_set(); }
  const util::DenseBitset& a_reachable() const { return engine_.a_reachable(); }

  /// SCC decomposition of C (computed lazily, thread-safely), numbered
  /// per LazyScc's contract over c_graph().
  const LazyScc& c_scc() const { return engine_.c_scc(); }

 private:
  // Declared before engine_: the system-taking constructors time the
  // graph build while initializing the engine.
  mutable std::atomic<double> graph_build_ms_{0};
  OnTheFlyChecker engine_;
  mutable std::once_flag c_rev_once_;
  mutable std::optional<TransitionGraph> c_rev_;
};

}  // namespace cref
