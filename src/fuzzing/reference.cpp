#include "fuzzing/reference.hpp"

#include <algorithm>

#include "gcl/compile.hpp"

namespace cref::fuzz {

namespace {

using Matrix = std::vector<std::vector<char>>;

// Paths of length >= 1, by Floyd-Warshall over the edge matrix. The
// diagonal entry r[s][s] is 1 exactly when s lies on a cycle.
Matrix closure1(const TransitionGraph& g) {
  const StateId n = g.num_states();
  Matrix r(n, std::vector<char>(n, 0));
  for (StateId s = 0; s < n; ++s)
    for (StateId t : g.successors(s)) r[s][t] = 1;
  for (StateId k = 0; k < n; ++k)
    for (StateId i = 0; i < n; ++i) {
      if (!r[i][k]) continue;
      for (StateId j = 0; j < n; ++j)
        if (r[k][j]) r[i][j] = 1;
    }
  return r;
}

// Membership vector of the states reachable (length >= 0) from `init`.
std::vector<char> reach0(const Matrix& r1, StateId n, const std::vector<StateId>& init) {
  std::vector<char> m(n, 0);
  for (StateId i : init) {
    m[i] = 1;
    for (StateId t = 0; t < n; ++t)
      if (r1[i][t]) m[t] = 1;
  }
  return m;
}

// True if the subgraph of `edges` restricted to `region` (when given)
// contains a cycle — detected on the closure of the restricted matrix.
bool has_cycle(StateId n, const std::vector<std::pair<StateId, StateId>>& edges,
               const std::vector<char>* region) {
  Matrix r(n, std::vector<char>(n, 0));
  for (auto [s, t] : edges) {
    if (region && (!(*region)[s] || !(*region)[t])) continue;
    r[s][t] = 1;
  }
  for (StateId k = 0; k < n; ++k)
    for (StateId i = 0; i < n; ++i) {
      if (!r[i][k]) continue;
      for (StateId j = 0; j < n; ++j)
        if (r[k][j]) r[i][j] = 1;
    }
  for (StateId s = 0; s < n; ++s)
    if (r[s][s]) return true;
  return false;
}

}  // namespace

ReferenceVerdicts reference_check(const TransitionGraph& c, const TransitionGraph& a,
                                  const std::vector<StateId>& c_init,
                                  const std::vector<StateId>& a_init,
                                  const std::vector<StateId>& alpha) {
  const StateId cn = c.num_states();
  const StateId an = a.num_states();
  auto image = [&](StateId s) { return alpha.empty() ? s : alpha[s]; };

  const Matrix ra1 = closure1(a);  // A-paths of length >= 1
  const Matrix rc1 = closure1(c);  // C-paths of length >= 1

  // 0 exact, 1 stutter, 2 compressed, 3 invalid — per check_result.hpp.
  auto classify = [&](StateId s, StateId t) {
    StateId is = image(s), it = image(t);
    if (is == it) return 1;
    if (a.has_edge(is, it)) return 0;
    return ra1[is][it] ? 2 : 3;
  };
  // Edge (s, t) of C lies on a cycle iff some path leads back from t to s.
  auto on_cycle = [&](StateId s, StateId t) { return rc1[t][s] != 0; };

  // The shared region conditions of check_region: every edge with a
  // source in `region` must be exact/stutter (compressions tolerated
  // off-cycle when allow_comp, invalids when allow_inv); every region
  // deadlock must map to an A-deadlock; no pure-stutter cycle within the
  // region whose image is not an A-deadlock.
  auto region_ok = [&](const std::vector<char>* region, bool allow_comp, bool allow_inv) {
    std::vector<std::pair<StateId, StateId>> stutter;
    for (StateId s = 0; s < cn; ++s) {
      if (region && !(*region)[s]) continue;
      for (StateId t : c.successors(s)) {
        int cls = classify(s, t);
        if (cls == 2 && (on_cycle(s, t) || !allow_comp)) return false;
        if (cls == 3 && (on_cycle(s, t) || !allow_inv)) return false;
        if (cls == 1 && !a.is_deadlock(image(s))) stutter.emplace_back(s, t);
      }
      if (c.is_deadlock(s) && !a.is_deadlock(image(s))) return false;
    }
    return !has_cycle(cn, stutter, region);
  };

  ReferenceVerdicts v;
  std::vector<char> c_region = reach0(rc1, cn, c_init);
  v.refinement_init = c_init.empty() || region_ok(&c_region, false, false);
  v.everywhere = region_ok(nullptr, false, false);
  v.convergence = v.refinement_init && region_ok(nullptr, true, false);
  v.eventually = v.refinement_init && region_ok(nullptr, true, true);

  // Stabilizing to A: every cycle edge good w.r.t. R_A, every deadlock a
  // reachable A-deadlock, no stutter cycle stalling at a non-final image.
  v.stabilizing = !a_init.empty();
  if (v.stabilizing) {
    std::vector<char> ra = reach0(ra1, an, a_init);
    std::vector<std::pair<StateId, StateId>> stutter;
    for (StateId s = 0; s < cn && v.stabilizing; ++s) {
      for (StateId t : c.successors(s)) {
        StateId is = image(s), it = image(t);
        if (on_cycle(s, t) && !(ra[is] && ra[it] && (is == it || a.has_edge(is, it))))
          v.stabilizing = false;
        if (is == it && !(ra[is] && a.is_deadlock(is))) stutter.emplace_back(s, t);
      }
      if (c.is_deadlock(s) && !(ra[image(s)] && a.is_deadlock(image(s))))
        v.stabilizing = false;
    }
    if (v.stabilizing && has_cycle(cn, stutter, nullptr)) v.stabilizing = false;
  }
  return v;
}

namespace {

StateVec treewalk_effect(const gcl::SystemAst& ast, const gcl::ActionAst& a, const StateVec& old) {
  std::vector<std::int64_t> values;
  values.reserve(a.assignments.size());
  for (const gcl::AssignmentAst& asg : a.assignments) values.push_back(gcl::eval(asg.value, old));
  StateVec next = old;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t var = a.assignments[i].var_index;
    next[var] = static_cast<Value>(gcl::eval_mod(values[i], ast.vars[var].cardinality));
  }
  return next;
}

}  // namespace

std::string treewalk_mismatch(const gcl::SystemAst& ast, const System& sys, StateId s) {
  const Space& space = sys.space();
  auto at = [&](const std::string& what) { return "state " + space.format(s) + ": " + what; };
  const StateVec old = space.decode(s);
  std::vector<StateId> succ;
  for (const gcl::ActionAst& a : ast.actions) {
    if (gcl::eval(a.guard, old) == 0) continue;
    const StateId t = space.encode(treewalk_effect(ast, a, old));
    if (t != s) succ.push_back(t);
  }
  std::sort(succ.begin(), succ.end());
  succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
  if (sys.successors(s) != succ) return at("kernel successors differ");
  if (ast.init && sys.is_initial(old) != (gcl::eval(*ast.init, old) != 0))
    return at("init predicate differs");
  for (std::size_t i = 0; i < ast.actions.size(); ++i) {
    const Action& act = sys.actions()[i];
    if (act.guard(old) != (gcl::eval(ast.actions[i].guard, old) != 0))
      return at("guard of " + act.name + " differs");
    StateVec post = old;
    act.effect(post);
    if (post != treewalk_effect(ast, ast.actions[i], old))
      return at("effect of " + act.name + " differs");
  }
  return "";
}

}  // namespace cref::fuzz
