#include "refinement/checker.hpp"

#include <algorithm>
#include <stdexcept>

#include "refinement/reachability.hpp"
#include "refinement/scan.hpp"

namespace cref {

using detail::PhaseTimer;

namespace {

std::vector<StateId> build_alpha_table(const Abstraction& alpha) {
  if (alpha.is_identity()) return {};
  // apply_into with shared buffers: lazy abstractions stay allocation-free
  // here too (the explicit front end materializes its table regardless —
  // at explicit scale that is the right trade).
  std::vector<StateId> table(alpha.from().size());
  StateVec c, a;
  for (StateId s = 0; s < alpha.from().size(); ++s) table[s] = alpha.apply_into(s, c, a);
  return table;
}

/// Materializes C and A (timed into `build_ms`) and hands both CSRs to a
/// graph-backed engine.
OnTheFlyChecker explicit_engine(const System& c, const System& a, const Abstraction& alpha,
                                const EngineOptions& opts, std::atomic<double>& build_ms) {
  if (&alpha.from() != &c.space() && alpha.from().size() != c.space().size())
    throw std::invalid_argument("RefinementChecker: alpha domain does not match C");
  if (&alpha.to() != &a.space() && alpha.to().size() != a.space().size())
    throw std::invalid_argument("RefinementChecker: alpha codomain does not match A");
  std::vector<StateId> table = build_alpha_table(alpha);
  TransitionGraph cg, ag;
  {
    PhaseTimer timer(build_ms);
    cg = TransitionGraph::build(c, opts);
    ag = TransitionGraph::build(a, opts);
  }
  return OnTheFlyChecker(std::move(cg), std::move(ag), c.initial_states(), a.initial_states(),
                         std::move(table));
}

}  // namespace

RefinementChecker::RefinementChecker(const System& c, const System& a, Abstraction alpha,
                                     const EngineOptions& opts)
    : engine_(explicit_engine(c, a, alpha, opts, graph_build_ms_)) {
  engine_.set_engine_options(opts);
}

RefinementChecker::RefinementChecker(const System& c, const System& a, const EngineOptions& opts)
    : RefinementChecker(c, a, Abstraction::identity(c.space_ptr()), opts) {
  if (!c.space().same_shape_as(a.space()))
    throw std::invalid_argument("RefinementChecker: same-space check needs equal spaces");
}

RefinementChecker::RefinementChecker(TransitionGraph c, TransitionGraph a,
                                     std::vector<StateId> c_init, std::vector<StateId> a_init,
                                     std::vector<StateId> alpha_table)
    : engine_(std::move(c), std::move(a), std::move(c_init), std::move(a_init),
              std::move(alpha_table)) {}

const TransitionGraph& RefinementChecker::c_reversed() const {
  std::call_once(c_rev_once_, [&] { c_rev_ = c_graph().reversed(); });
  return *c_rev_;
}

bool RefinementChecker::initial_states_match() const {
  const std::vector<StateId>& a_init = a_initial();
  for (StateId s : c_initial())
    if (!std::binary_search(a_init.begin(), a_init.end(), image(s))) return false;
  return true;
}

std::optional<std::pair<Trace, Trace>> RefinementChecker::example_compression() const {
  const TransitionGraph& c = c_graph();
  for (StateId s = 0; s < c.num_states(); ++s)
    for (StateId t : c.successors(s))
      if (classify_edge(s, t) == EdgeClass::Compressed)
        if (auto path = find_path(a_graph(), {image(s)}, image(t)))
          return std::make_pair(Trace{{s, t}}, *path);
  return std::nullopt;
}

PhaseTimings RefinementChecker::phase_timings() const {
  const OnTheFlyStats st = engine_.stats();
  PhaseTimings t;
  t.graph_build_ms = graph_build_ms_.load(std::memory_order_relaxed);
  t.c_scc_ms = st.c_scc_ms;
  t.a_scc_ms = st.a_scc_ms;
  t.closure_ms = st.closure_ms;
  t.edge_scan_ms = st.edge_scan_ms + st.stutter_ms;
  return t;
}

void RefinementChecker::reset_phase_timings() const {
  graph_build_ms_.store(0, std::memory_order_relaxed);
  engine_.reset_timings();
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
