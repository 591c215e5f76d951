#include "prover/templates.hpp"

#include <algorithm>

#include "prover/rank.hpp"

namespace cref::prover {

using gcl::Expr;
using gcl::Op;

void push_candidate(std::vector<Candidate>& pool, std::string pretty, Expr e,
                    std::size_t max_pool) {
  if (pool.size() >= max_pool) return;
  for (const Candidate& c : pool)
    if (expr_equal(c.expr, e)) return;
  pool.push_back({std::move(pretty), std::move(e)});
}

std::vector<Candidate> template_pool(const gcl::SystemAst& ast,
                                     const InterferenceGraph& ig,
                                     std::size_t max_pool) {
  std::vector<Candidate> pool;
  const std::size_t n = ast.vars.size();

  auto indicator = [&](const gcl::ActionAst& a) {
    return make_binary(Op::Ne, a.guard, make_const(0));
  };

  if (ig.acyclic) {
    std::vector<std::size_t> order(ast.actions.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return ig.action_layer[a] < ig.action_layer[b];
    });
    for (std::size_t i : order)
      push_candidate(pool, "enabled(" + ast.actions[i].name + ")",
                     indicator(ast.actions[i]), max_pool);
  }

  if (ast.actions.size() >= 2) {
    std::vector<Expr> ind;
    for (const gcl::ActionAst& a : ast.actions) ind.push_back(indicator(a));
    push_candidate(pool, "enabled-count", make_sum(std::move(ind)), max_pool);
  }

  std::vector<char> written(n, 0);
  for (const gcl::ActionAst& a : ast.actions)
    for (const gcl::AssignmentAst& asg : a.assignments)
      if (asg.var_index < n) written[asg.var_index] = 1;

  std::vector<std::size_t> wvars;
  for (std::size_t v = 0; v < n; ++v)
    if (written[v]) wvars.push_back(v);
  std::stable_sort(wvars.begin(), wvars.end(), [&](std::size_t a, std::size_t b) {
    return ig.layer[a] < ig.layer[b];
  });

  if (wvars.size() >= 2) {
    std::vector<Expr> up, down;
    for (std::size_t v : wvars) {
      up.push_back(make_var(ast, v));
      down.push_back(make_binary(Op::Sub, make_const(ast.vars[v].cardinality - 1),
                                 make_var(ast, v)));
    }
    push_candidate(pool, "sum-vars", make_sum(std::move(up)), max_pool);
    push_candidate(pool, "sum-complements", make_sum(std::move(down)), max_pool);
  }
  for (std::size_t v : wvars) {
    push_candidate(pool, ast.vars[v].name, make_var(ast, v), max_pool);
    push_candidate(pool, "complement(" + ast.vars[v].name + ")",
                   make_binary(Op::Sub, make_const(ast.vars[v].cardinality - 1),
                               make_var(ast, v)),
                   max_pool);
  }

  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v : ig.dep_out[u]) {
      const int k = ast.vars[u].cardinality;
      if (k < 2 || ast.vars[v].cardinality != k) continue;
      push_candidate(pool,
                     "(" + ast.vars[u].name + " - " + ast.vars[v].name + ") mod " +
                         std::to_string(k),
                     make_binary(Op::Mod,
                                 make_binary(Op::Sub, make_var(ast, u), make_var(ast, v)),
                                 make_const(k)),
                     max_pool);
      push_candidate(pool,
                     "(" + ast.vars[v].name + " - " + ast.vars[u].name + ") mod " +
                         std::to_string(k),
                     make_binary(Op::Mod,
                                 make_binary(Op::Sub, make_var(ast, v), make_var(ast, u)),
                                 make_const(k)),
                     max_pool);
    }
  }
  return pool;
}

}  // namespace cref::prover
