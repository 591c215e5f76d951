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
#include "util/bitmatrix.hpp"
#include "util/bitset.hpp"

namespace cref {

/// Strongly-connected-component decomposition — the repo's only one.
/// The cycle structure of the concrete system is what every relation in
/// the paper reduces to on finite automata: an infinite computation of a
/// finite system eventually traverses only edges that lie on cycles, so
/// "finitely many omissions on every computation" (convergence
/// isomorphism) and "has a suffix that ..." (stabilization) are both
/// conditions on intra-SCC edges.
///
/// Iterative Tarjan (state spaces run to 10^8 states, so no recursion)
/// over an implicitly presented graph: successor lists are pulled from a
/// callback — a CSR slice, a filtered view of one, or a System's
/// successor kernel — so the transition relation need not be
/// materialized. Storage:
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
/// Per-component sizes are dropped (the relations only ever ask "size >=
/// 2"), leaving a `nontrivial` bitset over components.
///
/// Numbering contract: roots are taken in ascending state order and
/// successors in the callback's order, and a component's id is the
/// number of components popped before it. Ids are therefore a reverse
/// topological order of the condensation (an edge between different
/// components goes from a higher id to a lower id), and equal successor
/// lists give equal numberings whatever their source. Tests pin this;
/// certificate emitters read component() as the Tarjan rank of C, and
/// the DAG orderings behind sigma and the A-side closure rely on the
/// id order.
class LazyScc {
 public:
  /// 4-byte ids keep the decomposition at 4 bytes per state. The top
  /// value is reserved as the "unvisited" sentinel, so graphs must have
  /// fewer than 2^32 - 1 states.
  using CompId = std::uint32_t;

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

  /// True iff component `c` has >= 2 states (a singleton with a
  /// self-loop stays trivial).
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

/// Resource/shape counters of one engine (all structures built so far;
/// zeros where a phase has not run), with milliseconds split by phase.
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

/// The relation engine: the one implementation of every relation of the
/// paper, between a concrete system C and an abstract system A related
/// by an abstraction function alpha (identity for same-space
/// refinement). All procedures are exact on the full finite state
/// spaces.
///
/// Reduction to graph conditions: on a finite system, an infinite
/// computation eventually traverses only edges that lie on cycles, and a
/// finite computation ends in a deadlock state. Hence each relation
/// becomes a set of conditions on (a) edges reachable from the initial
/// states, (b) edges on cycles, and (c) deadlock states, after
/// classifying every concrete edge against A (EdgeClass).
///
/// Stuttering (paper Section 2.3 / Section 6): a concrete edge whose two
/// endpoints have the same abstract image is invisible abstractly; images
/// of computations are stutter-collapsed before comparison. A reachable
/// cycle of pure-stutter edges would collapse to a *finite* image of an
/// *infinite* computation, which can only be a computation of A if the
/// image state is an A-deadlock — such "divergence" is therefore a
/// violation except at A-deadlock images.
///
/// C's successors come from one of two sources: a System's successor
/// kernel, generated per state and never materialized (the
/// System-backed constructors), or a CSR (the graph-backed constructor,
/// which RefinementChecker instantiates for explicit checking). Cycle
/// structure comes from LazyScc above either way. The A side — which
/// must be small, it is the spec — is materialized and quotiented once
/// (LazyScc over its CSR + condensation-closure bit matrix, per-query
/// BFS fallback above max_comps_for_closure).
///
/// Determinism: the shared structures are built once, thread-safely, on
/// first use; the per-check scans over T_C then run across an
/// EngineOptions-sized thread pool. Partial results are merged by state
/// id (lowest violating (s, t) wins), so verdicts, EdgeStats and
/// witnesses are bit-identical to a single-threaded run, and identical
/// for both successor sources (TransitionGraph::build itself calls
/// successors_into). Checks on one instance may be issued from several
/// threads concurrently. An absint R# state filter installed on C
/// (System::set_state_filter) prunes exactly like the CSR build:
/// filtered SOURCE states get empty successor lists and are therefore
/// seen as deadlocks by unfiltered scans.
///
/// Memory (System-backed): O(|Sigma_C| / 8) bitsets + 4 bytes per state
/// during SCC sweeps + the A-side quotient — ~a few hundred MB at 10^8
/// states, versus tens of GB for the explicit CSR.
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

  /// Graph-backed: C's successors are read from the given CSR (taken
  /// over, not copied). `alpha_table` maps every C-state to an A-state;
  /// empty means identity (same state count). Throws
  /// std::invalid_argument, naming the offending index, for an alpha
  /// entry or an initial state outside its space.
  OnTheFlyChecker(TransitionGraph c, TransitionGraph a, std::vector<StateId> c_init,
                  std::vector<StateId> a_init, std::vector<StateId> alpha_table = {});

  /// [C subseteq A]_init — every computation of C that starts from an
  /// initial state of C is (after stutter-collapse of its image) a
  /// computation of A. Conditions on the subgraph reachable from I_C:
  /// every edge Exact or Stutter; every deadlock maps to an A-deadlock;
  /// no pure-stutter cycle (except at A-deadlock images).
  CheckResult refinement_init() const;

  /// [C subseteq A] — everywhere refinement: the refinement_init
  /// conditions over ALL of Sigma_C.
  CheckResult everywhere_refinement() const;

  /// [C curlypreceq A] — convergence refinement: refinement_init, plus
  /// over all of Sigma_C: no Invalid edge anywhere; no Compressed edge on
  /// a cycle (a computation looping through a compression would drop
  /// infinitely many states); no pure-stutter cycle (except at A-deadlock
  /// images); every deadlock maps to an A-deadlock.
  CheckResult convergence_refinement() const;

  /// Everywhere-eventually refinement (paper Section 7, from [1]):
  /// refinement_init, plus every computation is an arbitrary finite
  /// prefix followed by a computation of A. Off-cycle edges are
  /// unconstrained; cycle edges must be Exact/Stutter; deadlocks map to
  /// A-deadlocks; stutter-cycle condition as above.
  CheckResult everywhere_eventually_refinement() const;

  /// C is stabilizing to A — every computation of C has a suffix that is
  /// a suffix of some computation of A starting at an initial state of A.
  /// With R_A = reachable(A, I_A): every cycle edge of C must be "good"
  /// (image edge in T_A with both images in R_A, or stutter with image in
  /// R_A); pure-stutter cycles only at A-deadlock images inside R_A;
  /// every C-deadlock maps to an A-deadlock inside R_A.
  CheckResult stabilizing_to() const;

  /// Classification of one concrete transition (s, t). Precondition:
  /// (s, t) is an edge of C (not checked). Allocates local decode
  /// buffers — diagnostics conveniences, not for sweeps.
  EdgeClass classify_edge(StateId s, StateId t) const;

  /// Classification counts over the entire concrete transition relation.
  /// Scanned in parallel per EngineOptions; safe to call concurrently.
  EdgeStats edge_stats() const;

  /// True iff A has a path of length >= 1 from `src` to `dst` (ids in
  /// Sigma_A). In particular reachable_in_a(s, s) holds iff s lies on a
  /// cycle of A (including a self-loop) — the condensation-closure and
  /// BFS paths agree on this by construction.
  bool reachable_in_a(StateId src, StateId dst) const;

  /// Number of C states.
  StateId num_states() const { return n_; }

  const TransitionGraph& a_graph() const { return a_; }
  const std::vector<StateId>& a_initial() const { return a_init_; }

  /// Graph-backed engines only (empty otherwise): C's CSR, its sorted
  /// initial states and the alpha table (empty = identity).
  const TransitionGraph& c_graph() const { return c_graph_; }
  const std::vector<StateId>& c_initial() const { return c_init_list_; }
  const std::vector<StateId>& alpha_table() const { return alpha_table_; }

  /// Membership bitset of I_C (lazily built: predicate scan over Sigma,
  /// never through System::initial_states()).
  const util::DenseBitset& c_initial_set() const;

  /// Membership bitset of reachable(C, I_C) (lazy frontier BFS).
  const util::DenseBitset& c_reachable_set() const;

  /// Membership bitset of R_A = reachable(A, I_A) (lazy, thread-safe).
  const util::DenseBitset& a_reachable() const;

  /// Main SCC decomposition of C (lazy, thread-safe, built once).
  const LazyScc& c_scc() const;

  /// Engine tuning. Set BEFORE the first check; not synchronized against
  /// concurrently running checks on this instance.
  void set_engine_options(const EngineOptions& opts) { opts_ = opts; }
  const EngineOptions& engine_options() const { return opts_; }

  /// Snapshot of phase timings and structure sizes accumulated so far.
  OnTheFlyStats stats() const;
  /// Zeroes the accumulated phase timings (structure sizes stay).
  void reset_timings() const;

 private:
  /// Per-worker buffers: successor scratch + alpha decode buffers.
  struct Workspace {
    SuccessorScratch succ;
    StateVec cbuf, abuf;
  };

  /// A-side condensation closure, or the decision not to build one.
  /// Everything a reachable_in_a query reads lives in this one struct, so
  /// its publication is a single optional engage under the once_flag and
  /// a concurrent caller never observes half-built state.
  struct AClosure {
    util::BitMatrix reach;
    bool too_big = false;
  };

  std::span<const StateId> successors(StateId s, Workspace& w) const;
  StateId image(StateId s, Workspace& w) const;
  EdgeClass classify_from(StateId is, StateId t, Workspace& w) const;
  void ensure_a_closure() const;
  CheckResult check_region(const util::DenseBitset* filter, bool allow_compressed_off_cycle,
                           bool allow_invalid_off_cycle, const char* relation_name) const;
  std::optional<Trace> find_stutter_cycle(const util::DenseBitset* filter,
                                          const util::DenseBitset* exempt_scope) const;
  Trace cycle_witness(StateId s, StateId t) const;

  bool graph_backed_ = false;
  std::optional<System> c_sys_;       // system-backed source (copied)
  std::optional<Abstraction> alpha_;  // system-backed alpha (copied)
  TransitionGraph c_graph_;           // graph-backed source
  std::vector<StateId> alpha_table_;  // graph-backed alpha; empty = identity
  std::vector<StateId> c_init_list_;  // graph-backed I_C, sorted
  StateId n_ = 0;
  TransitionGraph a_;
  std::vector<StateId> a_init_;
  EngineOptions opts_;

  // Lazily-built shared structures. Each is built exactly once under its
  // own once_flag, so concurrent checks never race on them.
  mutable std::once_flag c_scc_once_;
  mutable std::optional<LazyScc> c_scc_;
  mutable std::once_flag init_once_;
  mutable std::optional<util::DenseBitset> c_init_set_;
  mutable std::once_flag reach_once_;
  mutable std::optional<util::DenseBitset> c_reach_;
  mutable std::once_flag a_closure_once_;
  mutable std::optional<LazyScc> a_scc_;
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
