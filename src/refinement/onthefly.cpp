#include "refinement/onthefly.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

#include "refinement/reachability.hpp"
#include "refinement/scan.hpp"

namespace cref {

using detail::PhaseTimer;

namespace {

constexpr LazyScc::CompId kUndef32 = std::numeric_limits<LazyScc::CompId>::max();

/// Transitive closure of the condensation of `g` under `scc` (which must
/// decompose `g`): bit `(c, d)` is set iff some state of component c has
/// a path of length >= 1 to some state of component d. In particular the
/// diagonal bit (c, c) is set exactly for components that contain a
/// cycle — nontrivial, or a singleton whose state has a self-loop —
/// matching the per-query BFS fallback's path-of-length->=1 semantics.
///
/// Ids are in reverse topological order (cross edges go from higher to
/// lower id), so a single pass in increasing id order sees every
/// successor component's row already closed; each union is a
/// word-parallel or_row.
util::BitMatrix condensation_closure(const TransitionGraph& g, const LazyScc& scc) {
  util::BitMatrix reach(scc.count(), scc.count());
  // Bucket states by component so each row is closed in one visit.
  std::vector<std::vector<StateId>> members(scc.count());
  for (StateId s = 0; s < g.num_states(); ++s) members[scc.component(s)].push_back(s);
  for (std::size_t comp = 0; comp < scc.count(); ++comp) {
    if (scc.nontrivial(comp)) reach.set(comp, comp);
    for (StateId s : members[comp]) {
      for (StateId t : g.successors(s)) {
        std::size_t ct = scc.component(t);
        // Setting the bit unconditionally also marks a singleton
        // component self-reachable when its state has a self-loop.
        reach.set(comp, ct);
        if (ct == comp) continue;
        reach.or_row(comp, ct);
      }
    }
  }
  return reach;
}

/// Throws std::invalid_argument naming the first entry of `states` that
/// lies outside [0, n).
void check_in_range(const std::vector<StateId>& states, StateId n, const char* what) {
  for (std::size_t i = 0; i < states.size(); ++i)
    if (states[i] >= n)
      throw std::invalid_argument("OnTheFlyChecker: " + std::string(what) + " " +
                                  std::to_string(i) + " is " + std::to_string(states[i]) +
                                  ", out of range (num_states = " + std::to_string(n) + ")");
}

}  // namespace

// ---------------------------------------------------------------------------
// LazyScc

LazyScc::LazyScc(StateId n, const SuccFn& succ) {
  if (n >= kUndef32)
    throw std::length_error("LazyScc: graph exceeds the 2^32 - 1 state CompId budget");
  data_.assign(n, kUndef32);
  nontrivial_.assign(n);
  util::DenseBitset on_stack(n);
  std::vector<CompId> stack;
  CompId next_index = 0;

  // Explicit DFS frame. Lowlink lives here (only path states need one);
  // the state's successor list occupies [ebase, ebase + nsucc) of the
  // shared `edges` stack, parked at push and truncated at pop.
  struct Frame {
    CompId s;
    CompId lowlink;
    std::uint32_t child;
    std::uint32_t nsucc;
    std::size_t ebase;
  };
  std::vector<Frame> frames;
  std::vector<CompId> edges;

  auto push_frame = [&](StateId s) {
    const CompId idx = next_index++;
    data_[s] = idx;  // DFS index while gray
    stack.push_back(static_cast<CompId>(s));
    on_stack.set(s);
    const std::size_t ebase = edges.size();
    for (StateId t : succ(s)) edges.push_back(static_cast<CompId>(t));
    frames.push_back({static_cast<CompId>(s), idx, 0,
                      static_cast<std::uint32_t>(edges.size() - ebase), ebase});
    peak_frames_ = std::max(peak_frames_, frames.size());
    peak_edges_ = std::max(peak_edges_, edges.size());
  };

  for (StateId root = 0; root < n; ++root) {
    if (data_[root] != kUndef32) continue;
    push_frame(root);

    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < f.nsucc) {
        const StateId t = edges[f.ebase + f.child++];
        if (data_[t] == kUndef32) {
          push_frame(t);  // may reallocate `frames`: f is dead past here
        } else if (on_stack.test(t)) {
          f.lowlink = std::min(f.lowlink, data_[t]);
        }
      } else {
        const CompId low = f.lowlink;
        if (low == data_[f.s]) {  // f.s is still gray: data_ holds its index
          const CompId c = static_cast<CompId>(count_++);
          std::size_t members = 0;
          CompId w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack.reset(w);
            data_[w] = c;
            ++members;
          } while (w != f.s);
          if (members >= 2) nontrivial_.set(c);
        }
        edges.resize(f.ebase);
        frames.pop_back();
        if (!frames.empty())
          frames.back().lowlink = std::min(frames.back().lowlink, low);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// OnTheFlyChecker: construction

OnTheFlyChecker::OnTheFlyChecker(const System& c, const System& a, Abstraction alpha,
                                 const EngineOptions& opts)
    : graph_backed_(false), c_sys_(c), alpha_(std::move(alpha)), opts_(opts) {
  if (!c.space().dense())
    throw std::invalid_argument("OnTheFlyChecker: C space overflows StateId (sparse)");
  if (&alpha_->from() != &c.space() && alpha_->from().size() != c.space().size())
    throw std::invalid_argument("OnTheFlyChecker: alpha domain does not match C");
  if (&alpha_->to() != &a.space() && alpha_->to().size() != a.space().size())
    throw std::invalid_argument("OnTheFlyChecker: alpha codomain does not match A");
  n_ = c.space().size();
  if (n_ >= kUndef32)
    throw std::length_error("OnTheFlyChecker: C exceeds the 2^32 - 1 state budget");
  {
    // A is the spec side and must stay small enough to materialize — its
    // SCC quotient is what the per-edge reachability queries run on.
    PhaseTimer timer(a_build_ms_);
    a_ = TransitionGraph::build(a, opts_);
  }
  a_init_ = a.initial_states();
}

OnTheFlyChecker::OnTheFlyChecker(const System& c, const System& a, const EngineOptions& opts)
    : OnTheFlyChecker(c, a, Abstraction::identity(c.space_ptr()), opts) {
  if (!c.space().same_shape_as(a.space()))
    throw std::invalid_argument("OnTheFlyChecker: same-space check needs equal spaces");
}

OnTheFlyChecker::OnTheFlyChecker(TransitionGraph c, TransitionGraph a,
                                 std::vector<StateId> c_init, std::vector<StateId> a_init,
                                 std::vector<StateId> alpha_table)
    : graph_backed_(true),
      c_graph_(std::move(c)),
      alpha_table_(std::move(alpha_table)),
      c_init_list_(std::move(c_init)),
      a_(std::move(a)),
      a_init_(std::move(a_init)) {
  if (!alpha_table_.empty() && alpha_table_.size() != c_graph_.num_states())
    throw std::invalid_argument("OnTheFlyChecker: alpha table size mismatch");
  if (alpha_table_.empty() && c_graph_.num_states() != a_.num_states())
    throw std::invalid_argument("OnTheFlyChecker: identity alpha needs equal state counts");
  check_in_range(alpha_table_, a_.num_states(), "alpha table entry");
  check_in_range(c_init_list_, c_graph_.num_states(), "C initial state");
  check_in_range(a_init_, a_.num_states(), "A initial state");
  n_ = c_graph_.num_states();
  if (n_ >= kUndef32)
    throw std::length_error("OnTheFlyChecker: C exceeds the 2^32 - 1 state budget");
  std::sort(c_init_list_.begin(), c_init_list_.end());
  std::sort(a_init_.begin(), a_init_.end());
}

// ---------------------------------------------------------------------------
// Successor / image sources

std::span<const StateId> OnTheFlyChecker::successors(StateId s, Workspace& w) const {
  if (graph_backed_) return c_graph_.successors(s);
  w.succ.out.clear();
  // Same pruning semantics as TransitionGraph::build: a source state
  // failing the absint R# filter gets an EMPTY successor list (and is
  // therefore seen as a deadlock by unfiltered scans).
  if (c_sys_->has_state_filter() && !c_sys_->passes_filter(s, w.succ)) return {};
  c_sys_->successors_into(s, w.succ);
  return {w.succ.out.data(), w.succ.out.size()};
}

StateId OnTheFlyChecker::image(StateId s, Workspace& w) const {
  if (graph_backed_) return alpha_table_.empty() ? s : alpha_table_[s];
  if (alpha_->is_identity()) return s;
  return alpha_->apply_into(s, w.cbuf, w.abuf);
}

// ---------------------------------------------------------------------------
// Lazily-built shared structures

const LazyScc& OnTheFlyChecker::c_scc() const {
  std::call_once(c_scc_once_, [&] {
    PhaseTimer timer(c_scc_ms_);
    Workspace w;
    c_scc_.emplace(n_, [&](StateId s) { return successors(s, w); });
  });
  return *c_scc_;
}

const util::DenseBitset& OnTheFlyChecker::c_initial_set() const {
  std::call_once(init_once_, [&] {
    PhaseTimer timer(init_scan_ms_);
    util::DenseBitset set(n_);
    if (graph_backed_) {
      for (StateId s : c_init_list_) set.set(s);
    } else if (c_sys_->has_initial()) {
      // Predicate scan over Sigma (NOT initial_states(): the materialized
      // vector would be huge and its lazy cache is not thread-safe).
      // Workers fill private bitsets — chunk boundaries are not
      // word-aligned, so writing one shared bitset would race — merged
      // with word-parallel ORs after the scan.
      const std::size_t threads = opts_.resolved_threads(n_);
      std::vector<util::DenseBitset> partial(threads);
      for (auto& p : partial) p.assign(n_);
      std::vector<SuccessorScratch> scratch(threads);
      parallel_chunks(n_, opts_, [&](std::size_t tid, std::size_t begin, std::size_t end) {
        for (StateId s = static_cast<StateId>(begin); s < end; ++s)
          if (c_sys_->is_initial(s, scratch[tid])) partial[tid].set(s);
      });
      for (const auto& p : partial) set |= p;
    }
    c_init_set_ = std::move(set);
  });
  return *c_init_set_;
}

const util::DenseBitset& OnTheFlyChecker::c_reachable_set() const {
  std::call_once(reach_once_, [&] {
    const util::DenseBitset& init = c_initial_set();
    PhaseTimer timer(reach_ms_);
    // Lazy successor generation: the sweep only ever expands states
    // inside the reachable region, so its cost is proportional to that
    // region, not to Sigma.
    Workspace w;
    c_reach_ = reachable_set(init, [&](StateId s) { return successors(s, w); });
  });
  return *c_reach_;
}

void OnTheFlyChecker::ensure_a_closure() const {
  std::call_once(a_closure_once_, [&] {
    {
      PhaseTimer timer(a_scc_ms_);
      a_scc_.emplace(a_.num_states(), [&](StateId s) { return a_.successors(s); });
    }
    const LazyScc& scc = *a_scc_;
    if (scc.count() > opts_.max_comps_for_closure) {
      a_closure_.emplace(AClosure{{}, /*too_big=*/true});
      return;
    }
    PhaseTimer timer(closure_ms_);
    a_closure_.emplace(AClosure{condensation_closure(a_, scc), /*too_big=*/false});
  });
}

const util::DenseBitset& OnTheFlyChecker::a_reachable() const {
  std::call_once(a_reach_once_, [&] { a_reach_ = reachable_from(a_, a_init_); });
  return *a_reach_;
}

bool OnTheFlyChecker::reachable_in_a(StateId src, StateId dst) const {
  ensure_a_closure();
  if (!a_closure_->too_big) {
    const LazyScc& scc = *a_scc_;
    return a_closure_->reach.test(scc.component(src), scc.component(dst));
  }
  // Fallback: plain BFS on the (materialized) A graph; purely local
  // state, so concurrent queries are safe.
  util::DenseBitset seen(a_.num_states());
  std::deque<StateId> queue{src};
  seen.set(src);
  while (!queue.empty()) {
    StateId s = queue.front();
    queue.pop_front();
    for (StateId t : a_.successors(s)) {
      if (t == dst) return true;
      if (!seen.test(t)) {
        seen.set(t);
        queue.push_back(t);
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Edge classification

EdgeClass OnTheFlyChecker::classify_from(StateId is, StateId t, Workspace& w) const {
  StateId it = image(t, w);
  if (is == it) return EdgeClass::Stutter;
  if (a_.has_edge(is, it)) return EdgeClass::Exact;
  if (reachable_in_a(is, it)) return EdgeClass::Compressed;
  return EdgeClass::Invalid;
}

EdgeClass OnTheFlyChecker::classify_edge(StateId s, StateId t) const {
  Workspace w;
  return classify_from(image(s, w), t, w);
}

EdgeStats OnTheFlyChecker::edge_stats() const {
  ensure_a_closure();  // shared structure, built once before the scan
  const std::size_t threads = opts_.resolved_threads(n_);
  std::vector<EdgeStats> partial(threads);
  std::vector<Workspace> ws(threads);
  {
    PhaseTimer timer(edge_scan_ms_);
    parallel_chunks(n_, opts_, [&](std::size_t tid, std::size_t begin, std::size_t end) {
      EdgeStats& st = partial[tid];
      Workspace& w = ws[tid];
      for (StateId s = static_cast<StateId>(begin); s < end; ++s) {
        auto succs = successors(s, w);
        if (succs.empty()) continue;
        const StateId is = image(s, w);
        for (StateId t : succs) {
          switch (classify_from(is, t, w)) {
            case EdgeClass::Exact: ++st.exact; break;
            case EdgeClass::Stutter: ++st.stutter; break;
            case EdgeClass::Compressed: ++st.compressed; break;
            case EdgeClass::Invalid: ++st.invalid; break;
          }
        }
      }
    });
  }
  EdgeStats total;
  for (const EdgeStats& st : partial) {
    total.exact += st.exact;
    total.stutter += st.stutter;
    total.compressed += st.compressed;
    total.invalid += st.invalid;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Witness construction (failure paths only; these may allocate O(n))

Trace OnTheFlyChecker::cycle_witness(StateId s, StateId t) const {
  // Present the cycle as s -> t -> ... -> s, with the back path found
  // inside s's component of the FULL graph.
  const LazyScc& scc = c_scc();
  Workspace w;
  auto succ = [&](StateId u) { return successors(u, w); };
  auto allowed = [&](StateId u) { return scc.component(u) == scc.component(s); };
  Trace cycle;
  cycle.states.push_back(s);
  if (auto back = shortest_path(n_, {t}, s, succ, allowed))
    cycle.states.insert(cycle.states.end(), back->states.begin(), back->states.end());
  else
    cycle.states.push_back(t);
  return cycle;
}

// ---------------------------------------------------------------------------
// Stutter-cycle (divergence) search

std::optional<Trace> OnTheFlyChecker::find_stutter_cycle(
    const util::DenseBitset* filter, const util::DenseBitset* exempt_scope) const {
  // Implicit subgraph of stutter edges whose image is not an exempt
  // A-deadlock: infinite stuttering at an A-deadlock image (inside
  // `exempt_scope`, when given) collapses to a maximal finite
  // computation of A and is therefore permitted. States outside
  // `filter` get empty lists — isolated singletons.
  //
  // Confined to C's cyclic components: a stutter cycle is a cycle of C,
  // so it lies inside one nontrivial C-SCC, and an edge leaving its
  // source's C-component lies on no cycle at all. Dropping such edges
  // (and every edge out of a trivial component, without generating its
  // successors) changes no nontrivial component of the stutter
  // subgraph, and the same-component witness BFS never took them —
  // the first cyclic state, its successor order and the witness are
  // unchanged. c_scc() is already built by every caller.
  const LazyScc& cscc = c_scc();
  auto stutter_succ_into = [&](StateId s, Workspace& w, std::vector<StateId>& out) {
    out.clear();
    const std::size_t comp = cscc.component(s);
    if (!cscc.nontrivial(comp) || (filter && !filter->test(s))) return;
    const StateId is = image(s, w);
    if (a_.is_deadlock(is) && (!exempt_scope || exempt_scope->test(is))) return;
    for (StateId t : successors(s, w)) {
      if (cscc.component(t) != comp || (filter && !filter->test(t))) continue;
      if (image(t, w) == is) out.push_back(t);
    }
  };
  // Early return: a subgraph without edges has no cycle, so when no
  // state has a stutter successor the second Tarjan pass is skipped. The
  // scan stops at the first state that has one.
  {
    const std::size_t threads = opts_.resolved_threads(n_);
    std::vector<Workspace> ws(threads);
    std::vector<std::vector<StateId>> outs(threads);
    auto has_edge = [&](std::size_t tid, StateId s) -> std::optional<bool> {
      stutter_succ_into(s, ws[tid], outs[tid]);
      if (outs[tid].empty()) return std::nullopt;
      return true;
    };
    if (!detail::min_state_scan<bool>(n_, opts_, has_edge)) return std::nullopt;
  }
  Workspace w;
  std::vector<StateId> buf;
  auto stutter_succ = [&](StateId s) -> std::span<const StateId> {
    stutter_succ_into(s, w, buf);
    return {buf.data(), buf.size()};
  };
  LazyScc sscc(n_, stutter_succ);
  for (StateId s = 0; s < n_; ++s) {
    if (!sscc.nontrivial(sscc.component(s))) continue;
    // Copy s's stutter successors out of the shared buffer: the witness
    // BFS below re-enters stutter_succ, which would clobber the span.
    std::vector<StateId> s_succs;
    {
      auto sp = stutter_succ(s);
      s_succs.assign(sp.begin(), sp.end());
    }
    auto allowed = [&](StateId u) { return sscc.component(u) == sscc.component(s); };
    for (StateId t : s_succs) {
      if (sscc.component(t) != sscc.component(s)) continue;
      if (auto back = shortest_path(n_, {t}, s, stutter_succ, allowed)) {
        Trace cycle;
        cycle.states.push_back(s);
        cycle.states.insert(cycle.states.end(), back->states.begin(), back->states.end());
        return cycle;
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// The relations

CheckResult OnTheFlyChecker::check_region(const util::DenseBitset* filter,
                                          bool allow_compressed_off_cycle,
                                          bool allow_invalid_off_cycle,
                                          const char* relation_name) const {
  const LazyScc& scc = c_scc();
  ensure_a_closure();

  // A state's first violation in serial scan order: edges in ascending
  // target order, then the deadlock condition. t is meaningless for
  // deadlock violations.
  struct Violation {
    StateId s, t;
    EdgeClass cls;
    bool on_cycle;
    bool deadlock;
  };
  const std::size_t threads = opts_.resolved_threads(n_);
  std::vector<Workspace> ws(threads);
  auto per_state = [&](std::size_t tid, StateId s) -> std::optional<Violation> {
    Workspace& w = ws[tid];
    if (filter && !filter->test(s)) return std::nullopt;
    auto succs = successors(s, w);
    if (succs.empty()) {
      if (!a_.is_deadlock(image(s, w)))
        return Violation{s, 0, EdgeClass::Exact, false, true};
      return std::nullopt;
    }
    const StateId is = image(s, w);
    for (StateId t : succs) {
      EdgeClass cls = classify_from(is, t, w);
      if (cls == EdgeClass::Exact || cls == EdgeClass::Stutter) continue;
      bool on_cycle = scc.edge_on_cycle(s, t);
      if (cls == EdgeClass::Compressed) {
        if (on_cycle || !allow_compressed_off_cycle)
          return Violation{s, t, cls, on_cycle, false};
      } else {  // Invalid
        if (on_cycle || !allow_invalid_off_cycle)
          return Violation{s, t, cls, on_cycle, false};
      }
    }
    return std::nullopt;
  };

  std::optional<Violation> viol;
  {
    PhaseTimer timer(edge_scan_ms_);
    viol = detail::min_state_scan<Violation>(n_, opts_, per_state);
  }

  if (viol) {
    auto edge_witness = [&](StateId s, StateId t) {
      // For init-scoped checks, exhibit a run from the initial states
      // (seeded in ascending order, so both successor sources find the
      // same path).
      if (filter) {
        std::vector<StateId> init;
        c_initial_set().for_each_set([&](std::size_t i) { init.push_back(i); });
        Workspace w;
        auto succ = [&](StateId u) { return successors(u, w); };
        if (auto path = shortest_path(n_, init, s, succ)) {
          path->states.push_back(t);
          return *path;
        }
      }
      return Trace{{s, t}};
    };
    if (viol->deadlock)
      return CheckResult::fail(std::string(relation_name) +
                                   ": C deadlocks but A must keep moving (final states differ)",
                               Trace{{viol->s}});
    if (viol->cls == EdgeClass::Compressed) {
      if (viol->on_cycle)
        return CheckResult::fail(std::string(relation_name) +
                                     ": compressed edge on a cycle (a computation looping "
                                     "through it drops infinitely many states of A)",
                                 cycle_witness(viol->s, viol->t));
      return CheckResult::fail(std::string(relation_name) +
                                   ": transition is not a transition of A (it compresses "
                                   "an A-path)",
                               edge_witness(viol->s, viol->t));
    }
    return CheckResult::fail(std::string(relation_name) +
                                 ": transition's image is not even reachable in A",
                             viol->on_cycle ? cycle_witness(viol->s, viol->t)
                                            : edge_witness(viol->s, viol->t));
  }
  std::optional<Trace> cyc;
  {
    PhaseTimer timer(stutter_ms_);
    cyc = find_stutter_cycle(filter, /*exempt_scope=*/nullptr);
  }
  if (cyc)
    return CheckResult::fail(std::string(relation_name) +
                                 ": divergence — a cycle of pure-stutter transitions whose "
                                 "image is not a deadlock of A",
                             *cyc);
  return CheckResult::ok();
}

CheckResult OnTheFlyChecker::refinement_init() const {
  if (c_initial_set().none()) return CheckResult::ok();  // vacuous
  return check_region(&c_reachable_set(), /*allow_compressed_off_cycle=*/false,
                      /*allow_invalid_off_cycle=*/false, "[C (= A]_init");
}

CheckResult OnTheFlyChecker::everywhere_refinement() const {
  return check_region(nullptr, /*allow_compressed_off_cycle=*/false,
                      /*allow_invalid_off_cycle=*/false, "[C (= A]");
}

CheckResult OnTheFlyChecker::convergence_refinement() const {
  if (auto init = refinement_init(); !init) return init;
  return check_region(nullptr, /*allow_compressed_off_cycle=*/true,
                      /*allow_invalid_off_cycle=*/false, "[C <~ A]");
}

CheckResult OnTheFlyChecker::everywhere_eventually_refinement() const {
  if (auto init = refinement_init(); !init) return init;
  return check_region(nullptr, /*allow_compressed_off_cycle=*/true,
                      /*allow_invalid_off_cycle=*/true, "[C ee A]");
}

CheckResult OnTheFlyChecker::stabilizing_to() const {
  if (a_init_.empty())
    return CheckResult::fail("stabilizing-to: A has no initial states, so no computation of A "
                             "starts at one");
  const util::DenseBitset& ra = a_reachable();
  const LazyScc& scc = c_scc();

  struct Violation {
    StateId s, t;
    bool deadlock;
  };
  const std::size_t threads = opts_.resolved_threads(n_);
  std::vector<Workspace> ws(threads);
  auto per_state = [&](std::size_t tid, StateId s) -> std::optional<Violation> {
    Workspace& w = ws[tid];
    auto succs = successors(s, w);
    if (succs.empty()) {
      StateId is = image(s, w);
      if (!ra.test(is) || !a_.is_deadlock(is)) return Violation{s, 0, true};
      return std::nullopt;
    }
    const StateId is = image(s, w);
    for (StateId t : succs) {
      if (!scc.edge_on_cycle(s, t)) continue;
      StateId it = image(t, w);
      bool good = ra.test(is) && ra.test(it) && (is == it || a_.has_edge(is, it));
      if (!good) return Violation{s, t, false};
    }
    return std::nullopt;
  };

  std::optional<Violation> viol;
  {
    PhaseTimer timer(edge_scan_ms_);
    viol = detail::min_state_scan<Violation>(n_, opts_, per_state);
  }
  if (viol) {
    if (viol->deadlock)
      return CheckResult::fail(
          "stabilizing-to: C deadlocks in a state whose image is not a reachable deadlock "
          "of A",
          Trace{{viol->s}});
    return CheckResult::fail(
        "stabilizing-to: a cycle of C contains a transition that does not follow A within "
        "A's reachable states — some computation never settles into a suffix of A",
        cycle_witness(viol->s, viol->t));
  }
  // Divergence: a pure-stutter cycle collapses to a finite image of an
  // infinite computation; that image can only be a suffix of an
  // A-computation if it is a reachable deadlock of A. Same stutter
  // search, with the deadlock exemption scoped to R_A.
  std::optional<Trace> cyc;
  {
    PhaseTimer timer(stutter_ms_);
    cyc = find_stutter_cycle(nullptr, &ra);
  }
  if (cyc)
    return CheckResult::fail(
        "stabilizing-to: divergence — an infinite computation whose image stalls at a "
        "non-final state of A",
        *cyc);
  return CheckResult::ok();
}

// ---------------------------------------------------------------------------

OnTheFlyStats OnTheFlyChecker::stats() const {
  // Diagnostic snapshot — read after the checks of interest have
  // completed (the optionals are inspected without re-entering the
  // once_flags).
  OnTheFlyStats st;
  st.states = n_;
  if (c_scc_) {
    st.c_comps = c_scc_->count();
    st.c_nontrivial = c_scc_->nontrivial_count();
    st.peak_dfs_frames = c_scc_->peak_frames();
    st.peak_edge_stack = c_scc_->peak_edges();
  }
  if (a_scc_) st.a_comps = a_scc_->count();
  if (a_closure_ && !a_closure_->too_big) st.closure_bytes = a_closure_->reach.slab_bytes();
  st.a_build_ms = a_build_ms_.load(std::memory_order_relaxed);
  st.init_scan_ms = init_scan_ms_.load(std::memory_order_relaxed);
  st.reach_ms = reach_ms_.load(std::memory_order_relaxed);
  st.c_scc_ms = c_scc_ms_.load(std::memory_order_relaxed);
  st.a_scc_ms = a_scc_ms_.load(std::memory_order_relaxed);
  st.closure_ms = closure_ms_.load(std::memory_order_relaxed);
  st.edge_scan_ms = edge_scan_ms_.load(std::memory_order_relaxed);
  st.stutter_ms = stutter_ms_.load(std::memory_order_relaxed);
  return st;
}

void OnTheFlyChecker::reset_timings() const {
  for (std::atomic<double>* ms : {&a_build_ms_, &init_scan_ms_, &reach_ms_, &c_scc_ms_,
                                  &a_scc_ms_, &closure_ms_, &edge_scan_ms_, &stutter_ms_})
    ms->store(0, std::memory_order_relaxed);
}

}  // namespace cref
