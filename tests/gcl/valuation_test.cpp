#include "gcl/valuation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gcl/parser.hpp"
#include "gcl/pretty.hpp"

// The shared valuation primitives: the odometer, conjunct splitting,
// state formatting and the interval range (the post-state step is
// pinned by tests/prover/rank_test.cpp). The range is checked
// against gcl::eval on every valuation, including operands whose
// endpoints overflow int64 — eval wraps there, and the range must
// still cover what it computes.

namespace cref::gcl {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

Expr var(std::size_t i) {
  Expr e;
  e.op = Op::Var;
  e.name = i == 0 ? "x" : "y";
  e.var_index = i;
  return e;
}

Expr unary(Op op, Expr a) {
  Expr e;
  e.op = op;
  e.children.push_back(std::move(a));
  return e;
}

Expr binary(Op op, Expr a, Expr b) {
  Expr e;
  e.op = op;
  e.children.push_back(std::move(a));
  e.children.push_back(std::move(b));
  return e;
}

const std::vector<int> kCards = {3, 4};  // x : 0..2, y : 0..3

void expect_covers(const Expr& e) {
  const Range r = range_of(e, kCards);
  ASSERT_LE(r.lo, r.hi) << print_expr(e);
  StateVec s;
  for_each_valuation(all_vars(kCards.size()), kCards, s, [&](const StateVec& st) {
    const std::int64_t v = eval(e, st);
    EXPECT_TRUE(r.lo <= v && v <= r.hi)
        << print_expr(e) << " = " << v << " at x=" << int{st[0]} << ", y=" << int{st[1]}
        << " lies outside [" << r.lo << ".." << r.hi << "]";
    return true;
  });
}

TEST(RangeOf, ContainsEveryEvaluationUnderWrap) {
  const std::vector<std::int64_t> consts = {
      0, 1, -1, std::int64_t{1} << 62, -(std::int64_t{1} << 62), kMax, kMin};
  const Op binary_ops[] = {Op::Add, Op::Sub, Op::Mul, Op::Mod, Op::Div,
                           Op::Eq,  Op::Ne,  Op::Lt,  Op::Le,  Op::Gt,
                           Op::Ge,  Op::And, Op::Or};
  // Operands: the variables, the constants, and each constant combined
  // with a variable, so endpoints sit at and beyond the int64 edges.
  std::vector<Expr> operands = {var(0), var(1)};
  for (std::int64_t c : consts) {
    operands.push_back(Expr::constant(c));
    operands.push_back(binary(Op::Add, var(0), Expr::constant(c)));
    operands.push_back(binary(Op::Sub, Expr::constant(c), var(1)));
    operands.push_back(binary(Op::Mul, var(1), Expr::constant(c)));
  }
  for (const Expr& a : operands) {
    expect_covers(unary(Op::Neg, a));
    expect_covers(unary(Op::Not, a));
    for (Op op : binary_ops)
      for (const Expr& b : operands) expect_covers(binary(op, a, b));
  }
}

TEST(RangeOf, KeepsPreciseRulesForBooleansDivisionAndModulo) {
  auto range = [](const Expr& e) {
    const Range r = range_of(e, kCards);
    return std::vector<std::int64_t>{r.lo, r.hi};
  };
  using V = std::vector<std::int64_t>;
  // Comparisons decided by the operand ranges narrow to a constant.
  EXPECT_EQ(range(binary(Op::Lt, var(0), Expr::constant(3))), (V{1, 1}));
  EXPECT_EQ(range(binary(Op::Gt, var(1), Expr::constant(3))), (V{0, 0}));
  EXPECT_EQ(range(binary(Op::Eq, var(0), var(1))), (V{0, 1}));
  // Euclidean division and modulo; x / 0 = x % 0 = 0.
  EXPECT_EQ(range(binary(Op::Div, var(1), Expr::constant(2))), (V{0, 1}));
  EXPECT_EQ(range(binary(Op::Div, var(1), Expr::constant(-2))), (V{-1, 0}));
  EXPECT_EQ(range(binary(Op::Div, var(1), var(0))), (V{0, 3}));
  EXPECT_EQ(range(binary(Op::Mod, var(1), Expr::constant(0))), (V{0, 0}));
  EXPECT_EQ(range(binary(Op::Mod, var(0), Expr::constant(5))), (V{0, 2}));
  EXPECT_EQ(range(binary(Op::Mod, var(1), Expr::constant(-3))), (V{0, 2}));
  // An overflowing endpoint gives the full int64 range.
  EXPECT_EQ(range(binary(Op::Add, var(0), Expr::constant(kMax))), (V{kMin, kMax}));
}

TEST(Valuation, OdometerPinsUnlistedVariablesAndStopsEarly) {
  const std::vector<int> cards = {2, 3, 2};
  StateVec s = {1, 1, 1};
  std::vector<StateVec> seen;
  const bool finished = for_each_valuation({2, 0}, cards, s, [&](const StateVec& st) {
    seen.push_back(st);
    return true;
  });
  EXPECT_TRUE(finished);
  EXPECT_EQ(seen, (std::vector<StateVec>{{0, 0, 0}, {0, 0, 1}, {1, 0, 0}, {1, 0, 1}}));
  std::size_t calls = 0;
  EXPECT_FALSE(for_each_valuation(all_vars(3), cards, s, [&](const StateVec&) {
    return ++calls < 5;
  }));
  EXPECT_EQ(calls, 5u);
}

TEST(Valuation, ConjunctsComeOutLeftToRight) {
  const SystemAst ast = parse(R"(
system p {
  var x : 0..2;
  var y : 0..3;
  action a : x < 2 && y > 0 && x != y -> x := y;
}
)");
  EXPECT_EQ(cards_of(ast), kCards);
  const std::vector<const Expr*> parts = conjuncts_of(ast.actions[0].guard);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(print_expr(*parts[0]), "(x < 2)");
  EXPECT_EQ(print_expr(*parts[1]), "(y > 0)");
  EXPECT_EQ(print_expr(*parts[2]), "(x != y)");
  EXPECT_EQ(format_valuation(ast, {1, 0}, StateVec{2, 3}), "y=3, x=2");
}

}  // namespace
}  // namespace cref::gcl
