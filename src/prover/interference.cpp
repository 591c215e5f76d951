#include "prover/interference.hpp"

#include <algorithm>
#include <set>
#include <span>
#include <sstream>

#include "refinement/onthefly.hpp"

namespace cref::prover {

InterferenceGraph build_interference(const gcl::SystemAst& ast) {
  InterferenceGraph g;
  g.rw = gcl::read_write_report(ast);
  const std::size_t n = ast.vars.size();

  std::vector<std::set<std::size_t>> out(n);
  g.self_dep.assign(n, false);
  for (const gcl::ActionRW& rw : g.rw.actions) {
    for (std::size_t u : rw.reads) {
      for (std::size_t v : rw.writes) {
        if (u == v)
          g.self_dep[u] = true;
        else
          out[u].insert(v);
      }
    }
  }
  g.dep_out.resize(n);
  for (std::size_t u = 0; u < n; ++u) g.dep_out[u].assign(out[u].begin(), out[u].end());

  // SCC condensation + longest-path layering. dep_out is sorted,
  // distinct and free of self-edges, as LazyScc expects.
  const LazyScc scc(n, [&](StateId u) { return std::span<const StateId>(g.dep_out[u]); });
  const std::size_t num_comps = scc.count();
  std::vector<std::size_t> comp(n);
  for (std::size_t u = 0; u < n; ++u) comp[u] = scc.component(u);
  g.acyclic = scc.nontrivial_count() == 0;

  // Components are numbered in reverse topological order, so iterating
  // comp ids DESCENDING visits sources before sinks; a component's layer
  // is 1 + max over its predecessors' layers.
  std::vector<std::size_t> comp_layer(num_comps, 0);
  for (std::size_t c = num_comps; c-- > 0;) {
    for (std::size_t u = 0; u < n; ++u) {
      if (comp[u] != c) continue;
      for (std::size_t v : g.dep_out[u]) {
        if (comp[v] != c)
          comp_layer[comp[v]] = std::max(comp_layer[comp[v]], comp_layer[c] + 1);
      }
    }
  }
  g.layer.resize(n);
  for (std::size_t u = 0; u < n; ++u) g.layer[u] = comp_layer[comp[u]];
  g.num_layers = n ? 1 + *std::max_element(g.layer.begin(), g.layer.end()) : 0;

  // Cross-action write conflicts.
  for (std::size_t a = 0; a < g.rw.actions.size(); ++a) {
    for (std::size_t b = a + 1; b < g.rw.actions.size(); ++b) {
      std::vector<std::size_t> shared;
      std::set_intersection(g.rw.actions[a].writes.begin(), g.rw.actions[a].writes.end(),
                            g.rw.actions[b].writes.begin(), g.rw.actions[b].writes.end(),
                            std::back_inserter(shared));
      for (std::size_t v : shared) g.write_conflicts.push_back({a, b, v});
    }
  }

  g.action_layer.assign(g.rw.actions.size(), 0);
  for (std::size_t a = 0; a < g.rw.actions.size(); ++a)
    for (std::size_t v : g.rw.actions[a].writes)
      g.action_layer[a] = std::max(g.action_layer[a], g.layer[v]);
  return g;
}

std::string format_interference(const gcl::SystemAst& ast, const InterferenceGraph& g) {
  std::ostringstream out;
  out << "variable dependency graph (" << (g.acyclic ? "acyclic" : "CYCLIC") << ", "
      << g.num_layers << " layer(s)):\n";
  for (std::size_t u = 0; u < ast.vars.size(); ++u) {
    out << "  " << ast.vars[u].name << " [layer " << g.layer[u] << "]";
    if (g.self_dep[u]) out << " (self)";
    if (!g.dep_out[u].empty()) {
      out << " ->";
      for (std::size_t v : g.dep_out[u]) out << " " << ast.vars[v].name;
    }
    out << "\n";
  }
  if (g.write_conflicts.empty()) {
    out << "  write conflicts: none\n";
  } else {
    for (const WriteConflict& c : g.write_conflicts)
      out << "  write conflict: " << g.rw.actions[c.action_a].action << " / "
          << g.rw.actions[c.action_b].action << " on " << ast.vars[c.var].name << "\n";
  }
  return out.str();
}

}  // namespace cref::prover
