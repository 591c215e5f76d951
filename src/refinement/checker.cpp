#include "refinement/checker.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <stdexcept>

#include "refinement/reachability.hpp"
#include "refinement/scan.hpp"

namespace cref {

using detail::PhaseTimer;

namespace {

std::vector<StateId> build_alpha_table(const Abstraction& alpha) {
  if (alpha.is_identity()) return {};
  // apply_into with shared buffers: lazy abstractions stay allocation-free
  // here too (the explicit engine materializes its table regardless — at
  // explicit scale that is the right trade, and it is what parity tests
  // against the on-the-fly engine exercise).
  std::vector<StateId> table(alpha.from().size());
  StateVec c, a;
  for (StateId s = 0; s < alpha.from().size(); ++s) table[s] = alpha.apply_into(s, c, a);
  return table;
}

}  // namespace

RefinementChecker::RefinementChecker(const System& c, const System& a, Abstraction alpha,
                                     const EngineOptions& opts)
    : c_init_(c.initial_states()),
      a_init_(a.initial_states()),
      alpha_(build_alpha_table(alpha)),
      c_name_(c.name()),
      a_name_(a.name()),
      opts_(opts) {
  if (&alpha.from() != &c.space() && alpha.from().size() != c.space().size())
    throw std::invalid_argument("RefinementChecker: alpha domain does not match C");
  if (&alpha.to() != &a.space() && alpha.to().size() != a.space().size())
    throw std::invalid_argument("RefinementChecker: alpha codomain does not match A");
  // Built in the body (not the member-init list) so the materialization
  // of both graphs lands in the graph-build phase total.
  PhaseTimer timer(graph_build_ms_);
  c_ = TransitionGraph::build(c, opts_);
  a_ = TransitionGraph::build(a, opts_);
}

RefinementChecker::RefinementChecker(const System& c, const System& a, const EngineOptions& opts)
    : RefinementChecker(c, a, Abstraction::identity(c.space_ptr()), opts) {
  if (!c.space().same_shape_as(a.space()))
    throw std::invalid_argument("RefinementChecker: same-space check needs equal spaces");
}

RefinementChecker::RefinementChecker(TransitionGraph c, TransitionGraph a,
                                     std::vector<StateId> c_init, std::vector<StateId> a_init,
                                     std::vector<StateId> alpha_table)
    : c_(std::move(c)),
      a_(std::move(a)),
      c_init_(std::move(c_init)),
      a_init_(std::move(a_init)),
      alpha_(std::move(alpha_table)) {
  if (!alpha_.empty() && alpha_.size() != c_.num_states())
    throw std::invalid_argument("RefinementChecker: alpha table size mismatch");
  if (alpha_.empty() && c_.num_states() != a_.num_states())
    throw std::invalid_argument("RefinementChecker: identity alpha needs equal state counts");
  std::sort(c_init_.begin(), c_init_.end());
  std::sort(a_init_.begin(), a_init_.end());
}

const util::DenseBitset& RefinementChecker::a_reachable() const {
  std::call_once(a_reach_once_, [&] { a_reach_ = reachable_from(a_, a_init_); });
  return *a_reach_;
}

const TransitionGraph& RefinementChecker::c_reversed() const {
  std::call_once(c_rev_once_, [&] { c_rev_ = c_.reversed(); });
  return *c_rev_;
}

const Scc& RefinementChecker::c_scc() const {
  std::call_once(c_scc_once_, [&] {
    PhaseTimer timer(c_scc_ms_);
    c_scc_.emplace(c_);
  });
  return *c_scc_;
}

void RefinementChecker::ensure_a_closure() const {
  std::call_once(a_closure_once_, [&] {
    {
      PhaseTimer timer(a_scc_ms_);
      a_scc_.emplace(a_);
    }
    const Scc& scc = *a_scc_;
    if (scc.count() > opts_.max_comps_for_closure) {
      a_closure_.emplace(AClosure{{}, /*too_big=*/true});
      return;
    }
    PhaseTimer timer(closure_ms_);
    a_closure_.emplace(AClosure{condensation_closure(a_, scc), /*too_big=*/false});
  });
}

bool RefinementChecker::reachable_in_a(StateId src, StateId dst) const {
  ensure_a_closure();
  if (!a_closure_->too_big) {
    const Scc& scc = *a_scc_;
    return a_closure_->reach.test(scc.component(src), scc.component(dst));
  }
  // Fallback: plain BFS (rare: only for very large A graphs). Purely
  // local state, so concurrent queries are safe.
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

EdgeClass RefinementChecker::classify_edge(StateId s, StateId t) const {
  StateId is = image(s), it = image(t);
  if (is == it) return EdgeClass::Stutter;
  if (a_.has_edge(is, it)) return EdgeClass::Exact;
  if (reachable_in_a(is, it)) return EdgeClass::Compressed;
  return EdgeClass::Invalid;
}

EdgeStats RefinementChecker::edge_stats() const {
  ensure_a_closure();  // shared structure, built once before the scan
  const std::size_t threads = opts_.resolved_threads(c_.num_states());
  std::vector<EdgeStats> partial(threads);
  {
    PhaseTimer timer(edge_scan_ms_);
    parallel_chunks(c_.num_states(), opts_,
                    [&](std::size_t tid, std::size_t begin, std::size_t end) {
                      EdgeStats& st = partial[tid];
                      for (StateId s = static_cast<StateId>(begin); s < end; ++s) {
                        for (StateId t : c_.successors(s)) {
                          switch (classify_edge(s, t)) {
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

bool RefinementChecker::initial_states_match() const {
  for (StateId s : c_init_)
    if (!std::binary_search(a_init_.begin(), a_init_.end(), image(s))) return false;
  return true;
}

std::optional<Trace> RefinementChecker::find_stutter_cycle(
    const util::DenseBitset* filter, const util::DenseBitset* exempt_scope) const {
  // Subgraph of stutter edges whose image is NOT an exempt A-deadlock
  // (infinite stuttering at an A-deadlock image — inside `exempt_scope`,
  // when given — collapses to a maximal finite computation of A and is
  // therefore permitted). Only edges inside a nontrivial C-SCC are kept:
  // a stutter cycle is a cycle of C, and edges on no cycle of C change
  // no nontrivial component of the subgraph (the on-the-fly engine
  // confines its sweep the same way).
  const Scc& cscc = c_scc();
  std::vector<std::pair<StateId, StateId>> edges;
  for (StateId s = 0; s < c_.num_states(); ++s) {
    if (filter && !filter->test(s)) continue;
    const StateId is = image(s);
    if (a_.is_deadlock(is) && (!exempt_scope || exempt_scope->test(is))) continue;
    for (StateId t : c_.successors(s)) {
      if (filter && !filter->test(t)) continue;
      if (cscc.edge_on_cycle(s, t) && image(t) == is) edges.emplace_back(s, t);
    }
  }
  if (edges.empty()) return std::nullopt;
  TransitionGraph sub = TransitionGraph::from_edges(c_.num_states(), edges);
  Scc scc(sub);
  for (StateId s = 0; s < sub.num_states(); ++s) {
    if (scc.size_of(scc.component(s)) < 2) continue;
    // Build the membership filter of this component and close the cycle.
    util::DenseBitset in_comp(sub.num_states());
    for (StateId u = 0; u < sub.num_states(); ++u)
      in_comp.set(u, scc.component(u) == scc.component(s));
    for (StateId t : sub.successors(s)) {
      if (!in_comp.test(t)) continue;
      if (auto back = find_path_within(sub, t, s, in_comp)) {
        Trace cycle;
        cycle.states.push_back(s);
        cycle.states.insert(cycle.states.end(), back->states.begin(), back->states.end());
        return cycle;
      }
    }
  }
  return std::nullopt;
}

Trace RefinementChecker::cycle_witness(StateId s, StateId t) const {
  // Present the cycle as s -> t -> ... -> s.
  const Scc& scc = c_scc();
  util::DenseBitset in_comp(c_.num_states());
  for (StateId u = 0; u < c_.num_states(); ++u)
    in_comp.set(u, scc.component(u) == scc.component(s));
  Trace cycle;
  cycle.states.push_back(s);
  if (auto back = find_path_within(c_, t, s, in_comp))
    cycle.states.insert(cycle.states.end(), back->states.begin(), back->states.end());
  else
    cycle.states.push_back(t);
  return cycle;
}

CheckResult RefinementChecker::check_region(const util::DenseBitset* filter,
                                            bool allow_compressed_off_cycle,
                                            bool allow_invalid_off_cycle,
                                            const char* relation_name) const {
  const Scc& scc = c_scc();
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
  auto per_state = [&](std::size_t, StateId s) -> std::optional<Violation> {
    if (filter && !filter->test(s)) return std::nullopt;
    for (StateId t : c_.successors(s)) {
      EdgeClass cls = classify_edge(s, t);
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
    if (c_.is_deadlock(s) && !a_.is_deadlock(image(s)))
      return Violation{s, 0, EdgeClass::Exact, false, true};
    return std::nullopt;
  };

  std::optional<Violation> viol;
  {
    PhaseTimer timer(edge_scan_ms_);
    viol = detail::min_state_scan<Violation>(c_.num_states(), opts_, per_state);
  }

  if (viol) {
    auto edge_witness = [&](StateId s, StateId t) {
      // For init-scoped checks, exhibit a run from the initial states.
      if (filter) {
        if (auto path = find_path(c_, c_init_, s)) {
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
  if (auto cyc = find_stutter_cycle(filter, /*exempt_scope=*/nullptr))
    return CheckResult::fail(std::string(relation_name) +
                                 ": divergence — a cycle of pure-stutter transitions whose "
                                 "image is not a deadlock of A",
                             *cyc);
  return CheckResult::ok();
}

CheckResult RefinementChecker::refinement_init() const {
  if (c_init_.empty()) return CheckResult::ok();  // vacuous
  util::DenseBitset reach = reachable_from(c_, c_init_);
  return check_region(&reach, /*allow_compressed_off_cycle=*/false,
                      /*allow_invalid_off_cycle=*/false, "[C (= A]_init");
}

CheckResult RefinementChecker::everywhere_refinement() const {
  return check_region(nullptr, /*allow_compressed_off_cycle=*/false,
                      /*allow_invalid_off_cycle=*/false, "[C (= A]");
}

CheckResult RefinementChecker::convergence_refinement() const {
  if (auto init = refinement_init(); !init) return init;
  return check_region(nullptr, /*allow_compressed_off_cycle=*/true,
                      /*allow_invalid_off_cycle=*/false, "[C <~ A]");
}

CheckResult RefinementChecker::everywhere_eventually_refinement() const {
  if (auto init = refinement_init(); !init) return init;
  return check_region(nullptr, /*allow_compressed_off_cycle=*/true,
                      /*allow_invalid_off_cycle=*/true, "[C ee A]");
}

CheckResult RefinementChecker::stabilizing_to() const {
  if (a_init_.empty())
    return CheckResult::fail("stabilizing-to: A has no initial states, so no computation of A "
                             "starts at one");
  const util::DenseBitset& ra = a_reachable();
  const Scc& scc = c_scc();

  struct Violation {
    StateId s, t;
    bool deadlock;
  };
  auto per_state = [&](std::size_t, StateId s) -> std::optional<Violation> {
    for (StateId t : c_.successors(s)) {
      if (!scc.edge_on_cycle(s, t)) continue;
      StateId is = image(s), it = image(t);
      bool good = ra.test(is) && ra.test(it) && (is == it || a_.has_edge(is, it));
      if (!good) return Violation{s, t, false};
    }
    if (c_.is_deadlock(s)) {
      StateId is = image(s);
      if (!ra.test(is) || !a_.is_deadlock(is)) return Violation{s, 0, true};
    }
    return std::nullopt;
  };

  std::optional<Violation> viol;
  {
    PhaseTimer timer(edge_scan_ms_);
    viol = detail::min_state_scan<Violation>(c_.num_states(), opts_, per_state);
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
  if (auto cyc = find_stutter_cycle(nullptr, &ra))
    return CheckResult::fail(
        "stabilizing-to: divergence — an infinite computation whose image stalls at a "
        "non-final state of A",
        *cyc);
  return CheckResult::ok();
}

std::optional<std::pair<Trace, Trace>> RefinementChecker::example_compression() const {
  for (StateId s = 0; s < c_.num_states(); ++s)
    for (StateId t : c_.successors(s))
      if (classify_edge(s, t) == EdgeClass::Compressed)
        if (auto path = find_path(a_, {image(s)}, image(t)))
          return std::make_pair(Trace{{s, t}}, *path);
  return std::nullopt;
}

PhaseTimings RefinementChecker::phase_timings() const {
  PhaseTimings t;
  t.graph_build_ms = graph_build_ms_.load(std::memory_order_relaxed);
  t.c_scc_ms = c_scc_ms_.load(std::memory_order_relaxed);
  t.a_scc_ms = a_scc_ms_.load(std::memory_order_relaxed);
  t.closure_ms = closure_ms_.load(std::memory_order_relaxed);
  t.edge_scan_ms = edge_scan_ms_.load(std::memory_order_relaxed);
  t.absint_ms = absint_ms_.load(std::memory_order_relaxed);
  return t;
}

void RefinementChecker::reset_phase_timings() const {
  graph_build_ms_.store(0, std::memory_order_relaxed);
  c_scc_ms_.store(0, std::memory_order_relaxed);
  a_scc_ms_.store(0, std::memory_order_relaxed);
  closure_ms_.store(0, std::memory_order_relaxed);
  edge_scan_ms_.store(0, std::memory_order_relaxed);
  absint_ms_.store(0, std::memory_order_relaxed);
}

const char* to_string(EdgeClass c) {
  switch (c) {
    case EdgeClass::Exact: return "exact";
    case EdgeClass::Stutter: return "stutter";
    case EdgeClass::Compressed: return "compressed";
    case EdgeClass::Invalid: return "invalid";
  }
  return "?";
}

}  // namespace cref
