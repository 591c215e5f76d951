#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/abstraction.hpp"
#include "core/graph.hpp"
#include "core/system.hpp"
#include "refinement/check_result.hpp"
#include "refinement/engine.hpp"
#include "refinement/scc.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitset.hpp"

namespace cref {

/// Iterative Tarjan SCC decomposition over an IMPLICITLY presented graph:
/// successor lists are pulled from a callback instead of a CSR slice, so
/// the transition relation is never materialized. This is scc.cpp's
/// explicit-frame DFS with the storage turned inside out for 10^8-state
/// sweeps:
///
/// - One 4-byte word per state (`data_`), serving as the DFS index while
///   the state is gray (on the Tarjan stack) and overwritten with the
///   component id when its SCC pops — the two uses never overlap, and
///   `on_stack` disambiguates them during lowlink updates.
/// - Lowlinks live in the DFS frames, not a per-state array: only states
///   on the current DFS path need one.
/// - Each state's successor list is generated exactly once (at frame
///   push) and parked on a shared edge stack holding the lists of the
///   current DFS path only; it is truncated as frames pop.
///
/// Per-state sizes are dropped (the relations only ever ask "size >= 2"),
/// leaving a `nontrivial` bitset over components. Traversal order — roots
/// ascending, successors in the callback's (ascending) order — is
/// identical to Scc on the materialized graph, so component numbering is
/// too: reverse topological, cross edges high id -> low id. That parity
/// is pinned by tests and lets the on-the-fly engine reuse the
/// closure-sweep reasoning of the explicit one.
class LazyScc {
 public:
  using CompId = Scc::CompId;

  /// Returns the sorted, distinct, non-self successor list of `s`. The
  /// span only needs to stay valid until the next call (the constructor
  /// copies it onto the edge stack immediately), so implementations
  /// typically return a view of a reused scratch buffer.
  using SuccFn = std::function<std::span<const StateId>(StateId)>;

  /// Decomposes the graph with states [0, n). Serial — Tarjan's
  /// invariants are inherently DFS-ordered. Throws std::length_error if
  /// `n` exceeds the 2^32 - 1 CompId budget.
  LazyScc(StateId n, const SuccFn& succ);

  std::size_t component(StateId s) const { return data_[s]; }
  std::size_t count() const { return count_; }

  /// True iff component `c` has >= 2 states.
  bool nontrivial(std::size_t c) const { return nontrivial_.test(c); }
  std::size_t nontrivial_count() const { return nontrivial_.count(); }

  /// True iff the edge (s, t) lies on some cycle (same component, size
  /// >= 2; self-loops cannot occur).
  bool edge_on_cycle(StateId s, StateId t) const {
    return data_[s] == data_[t] && nontrivial_.test(data_[s]);
  }

  /// Peak depth of the DFS frame stack / entries on the path edge stack —
  /// the run's actual working set beyond the fixed 4 bytes + 2 bits per
  /// state, reported by bench stats.
  std::size_t peak_frames() const { return peak_frames_; }
  std::size_t peak_edges() const { return peak_edges_; }

 private:
  std::vector<CompId> data_;       // DFS index while gray, then component id
  util::DenseBitset nontrivial_;   // indexed by component id
  std::size_t count_ = 0;
  std::size_t peak_frames_ = 0;
  std::size_t peak_edges_ = 0;
};

/// Resource/shape counters of one on-the-fly run (all structures built so
/// far; zeros where a phase has not run). Milliseconds mirror the
/// explicit engine's PhaseTimings, split by on-the-fly phase.
struct OnTheFlyStats {
  StateId states = 0;              // |Sigma_C|
  std::size_t c_comps = 0;         // components of C's main decomposition
  std::size_t c_nontrivial = 0;    // ... of size >= 2
  std::size_t a_comps = 0;         // components of A (0 until closure built)
  std::size_t closure_bytes = 0;   // A-side quotient bit-matrix slab
  std::size_t peak_dfs_frames = 0; // main lazy Tarjan's peak DFS depth
  std::size_t peak_edge_stack = 0; // ... peak parked successor entries
  double a_build_ms = 0;           // CSR materialization of A (ctor)
  double init_scan_ms = 0;         // I_C predicate scan over Sigma
  double reach_ms = 0;             // frontier BFS of reachable(C, I_C)
  double c_scc_ms = 0;             // main lazy Tarjan over C
  double a_scc_ms = 0;             // SCC decomposition of A
  double closure_ms = 0;           // A-side condensation closure
  double edge_scan_ms = 0;         // classify / verify sweeps over T_C
  double stutter_ms = 0;           // divergence (stutter-subgraph) sweeps
};

/// On-the-fly counterpart of RefinementChecker: decides the same
/// relations, with the same verdicts, reasons and witnesses, WITHOUT ever
/// materializing C's transition relation. Successors are generated
/// per-state from the System's guarded commands (or read from a CSR in
/// the graph-backed test constructor), cycle structure comes from LazyScc
/// above, and the A side — which must be small, it is the spec — is
/// materialized and quotiented exactly as in the explicit engine
/// (Scc + condensation_closure bit matrix, per-query BFS fallback above
/// max_comps_for_closure).
///
/// Verdict parity with the explicit engine is a hard invariant, enforced
/// by the `onthefly-vs-explicit` fuzzing oracle and the parity tests: the
/// scans visit states in the same order, successor lists are identical
/// (TransitionGraph::build itself calls successors_into), failure reasons
/// are the same strings, and witnesses are produced by the same BFS
/// traversal orders. An absint R# state filter installed on C
/// (System::set_state_filter) prunes exactly like the explicit build:
/// filtered SOURCE states get empty successor lists and are therefore
/// seen as deadlocks by unfiltered scans.
///
/// Memory: O(|Sigma_C| / 8) bitsets + 4 bytes per state during SCC
/// sweeps + the A-side quotient — ~a few hundred MB at 10^8 states,
/// versus tens of GB for the explicit CSR.
class OnTheFlyChecker {
 public:
  /// Checks relations between `c` (huge, traversed lazily; its space
  /// must be dense and below 2^32 - 1 states) and `a` (small; built into
  /// a CSR here) through `alpha`. For on-the-fly scale pass an
  /// Abstraction::lazy — an eager one would have materialized a table
  /// over Sigma_C already. Holds copies of `c` and `alpha`.
  OnTheFlyChecker(const System& c, const System& a, Abstraction alpha,
                  const EngineOptions& opts = {});

  /// Same-space convenience: identity abstraction. The spaces of `c` and
  /// `a` must have the same shape.
  OnTheFlyChecker(const System& c, const System& a, const EngineOptions& opts = {});

  /// Hand-built automata (tests, fuzzing oracle): C's successors come
  /// from the given CSR but are still consumed lazily, exercising the
  /// same code paths as the System-backed constructor.
  OnTheFlyChecker(TransitionGraph c, TransitionGraph a, std::vector<StateId> c_init,
                  std::vector<StateId> a_init, std::vector<StateId> alpha_table = {});

  // The five relations — contracts and reductions as documented on
  // RefinementChecker; verdicts are identical by construction.
  CheckResult refinement_init() const;
  CheckResult everywhere_refinement() const;
  CheckResult convergence_refinement() const;
  CheckResult everywhere_eventually_refinement() const;
  CheckResult stabilizing_to() const;

  /// Classification of one concrete transition (s, t). Precondition:
  /// (s, t) is an edge of C (not checked). Allocates local decode
  /// buffers — diagnostics conveniences, not for sweeps.
  EdgeClass classify_edge(StateId s, StateId t) const;

  /// Classification counts over the entire concrete transition relation.
  /// Scanned in parallel per EngineOptions; safe to call concurrently.
  EdgeStats edge_stats() const;

  /// True iff A has a path of length >= 1 from `src` to `dst` (ids in
  /// Sigma_A). Same closure/BFS dual as the explicit engine.
  bool reachable_in_a(StateId src, StateId dst) const;

  /// Number of C states.
  StateId num_states() const { return n_; }

  const TransitionGraph& a_graph() const { return a_; }
  const std::vector<StateId>& a_initial() const { return a_init_; }

  /// Membership bitset of I_C (lazily built: predicate scan over Sigma,
  /// never through System::initial_states()).
  const util::DenseBitset& c_initial_set() const;

  /// Membership bitset of reachable(C, I_C) (lazy frontier BFS).
  const util::DenseBitset& c_reachable_set() const;

  /// Main SCC decomposition of C (lazy, thread-safe, built once).
  const LazyScc& c_scc() const;

  /// Engine tuning. Set BEFORE the first check; not synchronized against
  /// concurrently running checks on this instance.
  void set_engine_options(const EngineOptions& opts) { opts_ = opts; }
  const EngineOptions& engine_options() const { return opts_; }

  /// Snapshot of phase timings and structure sizes accumulated so far.
  OnTheFlyStats stats() const;

 private:
  /// Per-worker buffers: successor scratch + alpha decode buffers.
  struct Workspace {
    SuccessorScratch succ;
    StateVec cbuf, abuf;
  };

  /// A-side condensation closure, or the decision not to build one (same
  /// single-publication shape as RefinementChecker::AClosure).
  struct AClosure {
    util::BitMatrix reach;
    bool too_big = false;
  };

  std::span<const StateId> successors(StateId s, Workspace& w) const;
  StateId image(StateId s, Workspace& w) const;
  EdgeClass classify_from(StateId is, StateId t, Workspace& w) const;
  void ensure_a_closure() const;
  const util::DenseBitset& a_reachable() const;
  CheckResult check_region(const util::DenseBitset* filter, bool allow_compressed_off_cycle,
                           bool allow_invalid_off_cycle, const char* relation_name) const;
  std::optional<Trace> find_stutter_cycle(const util::DenseBitset* filter,
                                          const util::DenseBitset* exempt_scope) const;
  Trace cycle_witness(StateId s, StateId t) const;
  std::optional<Trace> path_from_init(StateId target) const;
  std::optional<Trace> path_within(const LazyScc::SuccFn& succ, StateId source, StateId target,
                                   const std::function<bool(StateId)>& allowed) const;

  bool graph_backed_ = false;
  std::optional<System> c_sys_;       // system-backed source (copied)
  std::optional<Abstraction> alpha_;  // system-backed alpha (copied)
  TransitionGraph c_graph_;           // graph-backed source
  std::vector<StateId> alpha_table_;  // graph-backed alpha; empty = identity
  std::vector<StateId> c_init_list_;  // graph-backed I_C
  StateId n_ = 0;
  TransitionGraph a_;
  std::vector<StateId> a_init_;
  EngineOptions opts_;

  // Lazily-built shared structures, one once_flag each (same discipline
  // as the explicit engine after the ISSUE-6 race fix).
  mutable std::once_flag c_scc_once_;
  mutable std::optional<LazyScc> c_scc_;
  mutable std::once_flag init_once_;
  mutable std::optional<util::DenseBitset> c_init_set_;
  mutable std::once_flag reach_once_;
  mutable std::optional<util::DenseBitset> c_reach_;
  mutable std::once_flag a_closure_once_;
  mutable std::optional<Scc> a_scc_;
  mutable std::optional<AClosure> a_closure_;
  mutable std::once_flag a_reach_once_;
  mutable std::optional<util::DenseBitset> a_reach_;

  mutable std::atomic<double> a_build_ms_{0};
  mutable std::atomic<double> init_scan_ms_{0};
  mutable std::atomic<double> reach_ms_{0};
  mutable std::atomic<double> c_scc_ms_{0};
  mutable std::atomic<double> a_scc_ms_{0};
  mutable std::atomic<double> closure_ms_{0};
  mutable std::atomic<double> edge_scan_ms_{0};
  mutable std::atomic<double> stutter_ms_{0};
};

}  // namespace cref
