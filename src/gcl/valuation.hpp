#pragma once

// Valuation primitives shared by every client that reasons about a GCL
// program from its text: the gcl_lint passes (analyze.hpp), the absint
// lint rules, and both static provers. Declared domains are finite, so
// most questions are decided by enumerating the product of the domains
// an expression references; this module holds the one copy of that
// enumeration (footprint, capped count, odometer), of the concrete
// multiple-assignment step, and of the interval range that stands in
// for enumeration above a budget. All of it follows gcl::eval exactly.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/space.hpp"
#include "gcl/ast.hpp"
#include "gcl/compile.hpp"

namespace cref::gcl {

/// Declared cardinalities of ast.vars, in declaration order.
std::vector<int> cards_of(const SystemAst& ast);

/// Sets used[v] for every variable v that `e` references (indices at or
/// beyond used.size() are ignored).
void mark_vars(const Expr& e, std::vector<char>& used);

/// The indices i with used[i] set, ascending.
std::vector<std::size_t> marked_vars(const std::vector<char>& used);

/// Sorted distinct indices of the variables `e` references.
std::vector<std::size_t> footprint(const Expr& e, std::size_t num_vars);

/// 0, 1, ..., n - 1: the footprint of the whole state.
std::vector<std::size_t> all_vars(std::size_t n);

/// Product of the listed variables' cardinalities; SIZE_MAX once the
/// product exceeds `cap`.
std::size_t valuation_count(const std::vector<std::size_t>& vars,
                            const std::vector<int>& cards, std::size_t cap);

/// Calls `f(state)` for every valuation of `vars` in odometer order
/// (vars[0] fastest), with every other variable pinned to 0 — sound for
/// expressions whose footprint lies within `vars`. `state` is resized to
/// cards.size(). Stops early when `f` returns false; returns false iff
/// stopped early.
template <class Fn>
bool for_each_valuation(const std::vector<std::size_t>& vars,
                        const std::vector<int>& cards, StateVec& state, Fn&& f) {
  state.assign(cards.size(), 0);
  while (true) {
    if (!f(static_cast<const StateVec&>(state))) return false;
    std::size_t i = 0;
    for (; i < vars.size(); ++i) {
      const std::size_t v = vars[i];
      if (++state[v] < cards[v]) break;
      state[v] = 0;
    }
    if (i == vars.size()) return true;
  }
}

/// eval(e, s) is nonzero.
inline bool truthy(const Expr& e, const StateVec& s) { return eval(e, s) != 0; }

/// Executes `action` on `s` into `out` (guard NOT checked; `out` must
/// not alias `s`): every right-hand side is evaluated on the old state
/// and written reduced into its target's domain with eval_mod, in
/// declaration order (last write wins) — gcl::compile's semantics.
void post_state(const ActionAst& action, const std::vector<int>& cards, const StateVec& s,
                StateVec& out);

/// Splits a top-level `&&` chain into its conjuncts, left to right (a
/// non-And expression is its own single conjunct).
std::vector<const Expr*> conjuncts_of(const Expr& e);

/// "x=1, y=0" over the listed variables.
std::string format_valuation(const SystemAst& ast, const std::vector<std::size_t>& vars,
                             const StateVec& s);

/// Concrete integer range of an expression over the declared domains.
struct Range {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool surely_true() const { return lo > 0 || hi < 0; }  // 0 not in range
  bool surely_false() const { return lo == 0 && hi == 0; }
};

/// Sound range of `e`: eval(e, s) lies in [lo, hi] for every state s in
/// the product of the domains `cards`. Comparisons and logic narrow to
/// a constant 0 or 1 when the operand ranges decide them; `/` and `%`
/// follow eval_div/eval_mod (Euclidean, x/0 = x%0 = 0). Endpoints are
/// computed with overflow-checked int64 arithmetic, and whenever one
/// would overflow the result is the full int64 range — sound for
/// eval's two's-complement wrap-around.
Range range_of(const Expr& e, const std::vector<int>& cards);

}  // namespace cref::gcl
