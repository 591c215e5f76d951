#include "gcl/valuation.hpp"

#include <algorithm>
#include <limits>

namespace cref::gcl {

std::vector<int> cards_of(const SystemAst& ast) {
  std::vector<int> cards;
  cards.reserve(ast.vars.size());
  for (const VarDeclAst& v : ast.vars) cards.push_back(v.cardinality);
  return cards;
}

void mark_vars(const Expr& e, std::vector<char>& used) {
  if (e.op == Op::Var && e.var_index < used.size()) used[e.var_index] = 1;
  for (const Expr& c : e.children) mark_vars(c, used);
}

std::vector<std::size_t> marked_vars(const std::vector<char>& used) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < used.size(); ++i)
    if (used[i]) out.push_back(i);
  return out;
}

std::vector<std::size_t> footprint(const Expr& e, std::size_t num_vars) {
  std::vector<char> used(num_vars, 0);
  mark_vars(e, used);
  return marked_vars(used);
}

std::vector<std::size_t> all_vars(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

std::size_t valuation_count(const std::vector<std::size_t>& vars,
                            const std::vector<int>& cards, std::size_t cap) {
  std::size_t count = 1;
  for (std::size_t v : vars) {
    const auto card = static_cast<std::size_t>(cards[v]);
    if (card == 0) return 0;
    if (count > cap / card) return std::numeric_limits<std::size_t>::max();
    count *= card;
  }
  return count;
}

void post_state(const ActionAst& action, const std::vector<int>& cards, const StateVec& s,
                StateVec& out) {
  out = s;
  for (const AssignmentAst& asg : action.assignments)
    out[asg.var_index] =
        static_cast<Value>(eval_mod(eval(asg.value, s), cards[asg.var_index]));
}

std::vector<const Expr*> conjuncts_of(const Expr& e) {
  std::vector<const Expr*> out;
  std::vector<const Expr*> stack{&e};
  while (!stack.empty()) {
    const Expr* cur = stack.back();
    stack.pop_back();
    if (cur->op == Op::And) {
      // Push right first so conjuncts come out left-to-right.
      stack.push_back(&cur->children[1]);
      stack.push_back(&cur->children[0]);
    } else {
      out.push_back(cur);
    }
  }
  return out;
}

std::string format_valuation(const SystemAst& ast, const std::vector<std::size_t>& vars,
                             const StateVec& s) {
  std::string out;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (i) out += ", ";
    out += ast.vars[vars[i]].name + "=" + std::to_string(s[vars[i]]);
  }
  return out;
}

// --- interval range ----------------------------------------------------

namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr Range kFull{kMin, std::numeric_limits<std::int64_t>::max()};

/// |v| as uint64 (exact for INT64_MIN).
std::uint64_t magnitude(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  return v < 0 ? std::uint64_t{0} - u : u;
}

/// 0/1 range of a test that holds in every state (yes), in none (no),
/// or undecided.
Range truth(bool yes, bool no) {
  if (yes) return {1, 1};
  if (no) return {0, 0};
  return {0, 1};
}

}  // namespace

Range range_of(const Expr& e, const std::vector<int>& cards) {
  auto child = [&](std::size_t i) { return range_of(e.children[i], cards); };
  switch (e.op) {
    case Op::Const: return {e.value, e.value};
    case Op::Var: return {0, cards[e.var_index] - 1};
    case Op::Not: {
      const Range a = child(0);
      return truth(a.surely_false(), a.surely_true());
    }
    case Op::Neg: {
      const Range a = child(0);
      if (a.lo == kMin) return kFull;  // -INT64_MIN wraps to itself
      return {-a.hi, -a.lo};
    }
    case Op::Add: {
      const Range a = child(0), b = child(1);
      Range r;
      if (__builtin_add_overflow(a.lo, b.lo, &r.lo) ||
          __builtin_add_overflow(a.hi, b.hi, &r.hi))
        return kFull;
      return r;
    }
    case Op::Sub: {
      const Range a = child(0), b = child(1);
      Range r;
      if (__builtin_sub_overflow(a.lo, b.hi, &r.lo) ||
          __builtin_sub_overflow(a.hi, b.lo, &r.hi))
        return kFull;
      return r;
    }
    case Op::Mul: {
      // The extremes of a product over a box lie on its corners, so
      // corners that fit bound every product in between.
      const Range a = child(0), b = child(1);
      std::int64_t c[4];
      if (__builtin_mul_overflow(a.lo, b.lo, &c[0]) ||
          __builtin_mul_overflow(a.lo, b.hi, &c[1]) ||
          __builtin_mul_overflow(a.hi, b.lo, &c[2]) ||
          __builtin_mul_overflow(a.hi, b.hi, &c[3]))
        return kFull;
      return {*std::min_element(c, c + 4), *std::max_element(c, c + 4)};
    }
    case Op::Mod: {
      // eval_mod lies in [0, |b|) for b != 0 and is 0 for b == 0.
      const Range a = child(0), b = child(1);
      const std::uint64_t m = std::max(magnitude(b.lo), magnitude(b.hi));
      if (m == 0) return {0, 0};  // divisor surely 0
      // Already-reduced operand: a in [0, k) for every possible k.
      if (b.lo > 0 && a.lo >= 0 && a.hi < b.lo) return a;
      return {0, static_cast<std::int64_t>(m - 1)};
    }
    case Op::Div: {
      const Range a = child(0), b = child(1);
      // eval_div is the exact Euclidean quotient unless a - eval_mod(a, b)
      // or -a wraps, which needs a within |b| of INT64_MIN. Otherwise it
      // is monotone in a and, on each side of 0, in b, so the corners of
      // the two sign halves of the divisor range bound it.
      const std::uint64_t m = std::max(magnitude(b.lo), magnitude(b.hi));
      if (static_cast<std::uint64_t>(a.lo) - static_cast<std::uint64_t>(kMin) < m)
        return kFull;
      Range r{0, 0};
      bool any = false;
      auto take = [&](std::int64_t q) {
        r.lo = any ? std::min(r.lo, q) : q;
        r.hi = any ? std::max(r.hi, q) : q;
        any = true;
      };
      if (b.lo <= 0 && 0 <= b.hi) take(0);  // zero divisor -> 0
      for (std::int64_t d : {b.lo, b.hi, std::int64_t{1}, std::int64_t{-1}}) {
        if (d == 0 || d < b.lo || d > b.hi) continue;
        take(eval_div(a.lo, d));
        take(eval_div(a.hi, d));
      }
      return r;
    }
    case Op::Eq: {
      const Range a = child(0), b = child(1);
      return truth(a.lo == a.hi && a.lo == b.lo && b.lo == b.hi,
                   a.hi < b.lo || b.hi < a.lo);
    }
    case Op::Ne: {
      const Range a = child(0), b = child(1);
      return truth(a.hi < b.lo || b.hi < a.lo,
                   a.lo == a.hi && a.lo == b.lo && b.lo == b.hi);
    }
    case Op::Lt: {
      const Range a = child(0), b = child(1);
      return truth(a.hi < b.lo, a.lo >= b.hi);
    }
    case Op::Le: {
      const Range a = child(0), b = child(1);
      return truth(a.hi <= b.lo, a.lo > b.hi);
    }
    case Op::Gt: {
      const Range a = child(0), b = child(1);
      return truth(a.lo > b.hi, a.hi <= b.lo);
    }
    case Op::Ge: {
      const Range a = child(0), b = child(1);
      return truth(a.lo >= b.hi, a.hi < b.lo);
    }
    case Op::And: {
      const Range a = child(0), b = child(1);
      return truth(a.surely_true() && b.surely_true(),
                   a.surely_false() || b.surely_false());
    }
    case Op::Or: {
      const Range a = child(0), b = child(1);
      return truth(a.surely_true() || b.surely_true(),
                   a.surely_false() && b.surely_false());
    }
  }
  return {0, 0};
}

}  // namespace cref::gcl
