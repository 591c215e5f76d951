#include "gcl/compile.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "fuzzing/generators.hpp"
#include "fuzzing/reference.hpp"
#include "gcl/parser.hpp"
#include "gcl/pretty.hpp"
#include "refinement/checker.hpp"
#include "refinement/equivalence.hpp"
#include "refinement/onthefly.hpp"
#include "ring/btr.hpp"
#include "ring/three_state.hpp"

namespace cref::gcl {
namespace {

TEST(EvalTest, Arithmetic) {
  StateVec s{2, 5};
  SystemAst ast = parse("system p { var a : 0..9; var b : 0..9; init : a; }");
  (void)ast;
  Expr a;
  a.op = Op::Var;
  a.var_index = 0;
  Expr b;
  b.op = Op::Var;
  b.var_index = 1;
  auto bin = [](Op op, Expr l, Expr r) {
    Expr e;
    e.op = op;
    e.children = {std::move(l), std::move(r)};
    return e;
  };
  EXPECT_EQ(eval(bin(Op::Add, a, b), s), 7);
  EXPECT_EQ(eval(bin(Op::Sub, a, b), s), -3);
  EXPECT_EQ(eval(bin(Op::Mul, a, b), s), 10);
  EXPECT_EQ(eval(bin(Op::Mod, b, a), s), 1);
  EXPECT_EQ(eval(bin(Op::Div, b, a), s), 2);
  EXPECT_EQ(eval(bin(Op::Lt, a, b), s), 1);
  EXPECT_EQ(eval(bin(Op::Ge, a, b), s), 0);
}

// Div and Mod must be a consistent pair: with the mathematical
// (always-nonnegative) Mod, Div has to round so that
// (a / b) * b + a % b == a for every nonzero b. Truncation toward zero
// breaks this for negative intermediates (e.g. a = -7, b = 3:
// trunc(-7/3) = -2 but -7 % 3 = 2, and -2*3 + 2 = -4 != -7).
TEST(EvalTest, DivModPairIsConsistentOnNegativeOperands) {
  for (std::int64_t a = -10; a <= 10; ++a) {
    for (std::int64_t b : {-3, -2, -1, 1, 2, 3}) {
      EXPECT_EQ(eval_div(a, b) * b + eval_mod(a, b), a) << a << " / " << b;
      EXPECT_GE(eval_mod(a, b), 0) << a << " % " << b;
      EXPECT_LT(eval_mod(a, b), b > 0 ? b : -b) << a << " % " << b;
    }
  }
  EXPECT_EQ(eval_div(-7, 3), -3);  // floor, not truncation toward zero
  EXPECT_EQ(eval_mod(-7, 3), 2);
  EXPECT_EQ(eval_div(7, -3), -2);  // Euclidean rounding for b < 0
  EXPECT_EQ(eval_mod(7, -3), 1);
  EXPECT_EQ(eval_div(5, 0), 0);  // total semantics
  EXPECT_EQ(eval_mod(5, 0), 0);
}

TEST(EvalTest, NegativeIntermediateDivisionInAnExpression) {
  // (0 - x) / 3 with x = 7: floor(-7/3) = -3; truncation would give -2.
  StateVec s{7};
  SystemAst ast = parse("system p { var x : 0..9; action t : (0 - x) / 3 == 0 - 3 "
                        "-> x := 0; }");
  EXPECT_EQ(eval(ast.actions[0].guard, s), 1);
}

TEST(CompileTest, NegativeIntermediateDivisionInATransition) {
  // The guard only holds under floor division: x = 7 -> (0-7)/3 == -3.
  System sys = load_system(
      "system p { var x : 0..9; "
      "action t @0 : (0 - x) / 3 == 0 - 3 -> x := 0; }");
  const Space& space = sys.space();
  EXPECT_EQ(sys.successors(space.encode({7})), (std::vector<StateId>{space.encode({0})}));
  EXPECT_TRUE(sys.successors(space.encode({6})).empty());  // -2: guard false
}

TEST(EvalTest, DivisionByZeroIsTotal) {
  StateVec s{0};
  Expr v;
  v.op = Op::Var;
  v.var_index = 0;
  Expr e;
  e.op = Op::Div;
  e.children = {Expr::constant(5), v};
  EXPECT_EQ(eval(e, s), 0);
  e.op = Op::Mod;
  EXPECT_EQ(eval(e, s), 0);
}

TEST(CompileTest, ModularAssignmentWraps) {
  System sys = load_system(
      "system wrap { var c : 0..2; action inc @0 : true -> c := c + 1; init : c == 0; }");
  EXPECT_EQ(sys.space().size(), 3u);
  EXPECT_EQ(sys.successors(2), (std::vector<StateId>{0}));  // 3 mod 3
  EXPECT_EQ(sys.initial_states(), (std::vector<StateId>{0}));
}

TEST(CompileTest, MultipleAssignmentUsesOldState) {
  // swap a and b: both right-hand sides read the pre-state.
  System sys = load_system(
      "system swap { var a : 0..3; var b : 0..3; "
      "action sw @0 : a != b -> a := b, b := a; }");
  const Space& space = sys.space();
  StateId s = space.encode({1, 2});
  auto succ = sys.successors(s);
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(space.decode(succ[0]), (StateVec{2, 1}));
}

TEST(CompileTest, WrapperWithoutInit) {
  System w = load_system("system w { var a : bool; action t : a -> a := 0; }");
  EXPECT_FALSE(w.has_initial());
}

// ------------------------------------------------------------------
// Golden test: Dijkstra's 3-state ring written in GCL compiles to a
// system whose transition relation is EXACTLY the native one's, and the
// checker proves it stabilizing to BTR through alpha3.
// ------------------------------------------------------------------
constexpr const char* kDijkstra3N3 = R"(
# Dijkstra's 3-state stabilizing token ring, processes 0..3 (paper Sec. 5.2)
system dijkstra3 {
  var c0 : 0..2;
  var c1 : 0..2;
  var c2 : 0..2;
  var c3 : 0..2;

  # top: c_{N-1} == c_0 && c_{N-1} (+) 1 != c_N -> c_N := c_{N-1} (+) 1
  action top @3 : c2 == c0 && (c2 + 1) % 3 != c3 -> c3 := c2 + 1;

  # bottom: c_1 == c_0 (+) 1 -> c_0 := c_1 (+) 1
  action bottom @0 : c1 == (c0 + 1) % 3 -> c0 := c1 + 1;

  # middle j: up and down moves
  action up1   @1 : c0 == (c1 + 1) % 3 -> c1 := c0;
  action down1 @1 : c2 == (c1 + 1) % 3 -> c1 := c2;
  action up2   @2 : c1 == (c2 + 1) % 3 -> c2 := c1;
  action down2 @2 : c3 == (c2 + 1) % 3 -> c2 := c3;

  init : c0 == 1 && c1 == 0 && c2 == 0 && c3 == 0;
}
)";

TEST(CompileTest, GoldenDijkstra3MatchesNativeImplementation) {
  System from_text = load_system(kDijkstra3N3);
  ring::ThreeStateLayout l(3);
  System native = ring::make_dijkstra3(l);
  auto cmp = compare_relations(TransitionGraph::build(from_text),
                               TransitionGraph::build(native));
  EXPECT_TRUE(cmp.equal) << cmp.verdict();
}

TEST(CompileTest, GoldenDijkstra3StabilizesToBtr) {
  System from_text = load_system(kDijkstra3N3);
  ring::ThreeStateLayout l(3);
  ring::BtrLayout bl(3);
  RefinementChecker rc(from_text, ring::make_btr(bl), ring::make_alpha3(l, bl));
  EXPECT_TRUE(rc.stabilizing_to().holds);
}

// ------------------------------------------------------------------
// Differential tests of the compiled successor kernel: successors from
// the flat code, and the Action guard/effect closures and the init
// predicate that run the same code, must equal a tree-walk of gcl::eval
// (fuzz::treewalk_mismatch) on every state.
// ------------------------------------------------------------------

void expect_kernel_matches_everywhere(const SystemAst& ast, const std::string& label) {
  const System sys = compile(ast);
  ASSERT_NE(sys.kernel(), nullptr) << label;
  for (StateId s = 0; s < sys.space().size(); ++s) {
    const std::string bad = fuzz::treewalk_mismatch(ast, sys, s);
    ASSERT_EQ(bad, "") << label;
  }
}

TEST(CompiledKernelTest, MatchesTreewalkOnEveryExampleProgram) {
  std::size_t programs = 0;
  const auto dir = std::filesystem::path(CREF_SOURCE_DIR) / "examples" / "gcl";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".gcl") continue;
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    expect_kernel_matches_everywhere(parse(buf.str()), entry.path().filename().string());
    ++programs;
  }
  EXPECT_GE(programs, 10u);
}

TEST(CompiledKernelTest, MatchesTreewalkOnSeededRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::mt19937_64 rng(seed);
    const SystemAst a = fuzz::random_gcl_system(rng);
    const SystemAst c = fuzz::mutate_gcl_system(a, rng);
    expect_kernel_matches_everywhere(a, "seed " + std::to_string(seed) + " A: " + print_system(a));
    expect_kernel_matches_everywhere(c, "seed " + std::to_string(seed) + " C: " + print_system(c));
  }
}

TEST(CompiledKernelTest, RepeatedTargetLastWriteWinsAgainstTheOldState) {
  const char* src =
      "system rep { var x : 0..7; var y : 0..3; "
      "action a @0 : true -> x := 1, x := x + 2; "
      "action b @0 : y == 0 -> y := 3, x := y + 5, y := x; }";
  const SystemAst ast = parse(src);
  expect_kernel_matches_everywhere(ast, src);
  const System sys = compile(ast);
  const Space& space = sys.space();
  // x = 4, y = 1: only `a` is enabled and it writes old x + 2, not 1 or 3.
  EXPECT_EQ(sys.successors(space.encode({4, 1})), (std::vector<StateId>{space.encode({6, 1})}));
  // x = 2, y = 0: `b` writes x := 0 + 5 and y := old x = 2 (mod 4).
  EXPECT_EQ(sys.successors(space.encode({2, 0})),
            (std::vector<StateId>{space.encode({4, 0}), space.encode({5, 2})}));
}

TEST(CompiledKernelTest, NegativeRightHandSidesWrapUpward) {
  const char* src =
      "system neg { var x : 0..4; var y : 0..2; "
      "action a @0 : x < 3 -> x := x - 7, y := 0 - y - 1; "
      "action b @0 : -x < 0 - 1 -> x := -(x * 3) % 4 - 2; }";
  const SystemAst ast = parse(src);
  expect_kernel_matches_everywhere(ast, src);
  const System sys = compile(ast);
  const Space& space = sys.space();
  // x = 1, y = 0: x := -6 mod 5 = 4, y := -1 mod 3 = 2.
  EXPECT_EQ(sys.successors(space.encode({1, 0})), (std::vector<StateId>{space.encode({4, 2})}));
}

TEST(CompiledKernelTest, DivisionAndModuloByZeroAreTotal) {
  const char* src =
      "system zero { var x : 0..5; var y : 0..3; "
      "action a @0 : x % y == 0 && x / y == 0 -> x := (x + 1) / y, y := (y + 1) % 0; "
      "action b @0 : y / 0 == 0 -> x := x % (y - y) + 7 / (x - x) + 3; }";
  const SystemAst ast = parse(src);
  expect_kernel_matches_everywhere(ast, src);
  const System sys = compile(ast);
  const Space& space = sys.space();
  // x = 4, y = 0: a writes x := 5 / 0 = 0, y := 1 % 0 = 0; b writes x := 3.
  EXPECT_EQ(sys.successors(space.encode({4, 0})),
            (std::vector<StateId>{space.encode({0, 0}), space.encode({3, 0})}));
}

TEST(CompiledKernelTest, Int64ExtremeConstantsMatchEval) {
  // INT64_MAX + 1 wraps to INT64_MIN; INT64_MIN / -1 wraps back to
  // INT64_MIN and INT64_MIN % -1 is 0 (no hardware trap); products and
  // negations wrap in two's complement. Constants sit on both sides of
  // each operator, so both the fused and the stack instruction forms
  // run.
  const char* src =
      "system big { var x : 0..6; var b : bool; "
      "action a @0 : 9223372036854775807 + 1 < 0 -> x := 9223372036854775807 * (x + 2); "
      "action c @0 : (0 - 9223372036854775807 - 1) / (0 - 1) < 0 && "
      "(0 - 9223372036854775807 - 1) % (0 - 1) == 0 -> "
      "x := -(0 - 9223372036854775807 - 1) + x, b := !b; "
      "action d @0 : x * 4611686018427387904 != 0 || b -> "
      "x := x / (0 - 9223372036854775807 - 1) + (x - 9223372036854775807) % 9223372036854775807; "
      "action e @0 : 9223372036854775807 > x - 9223372036854775807 -> x := (x - 1) / 3; "
      "init : x * 9223372036854775807 * 9223372036854775807 == x; }";
  const SystemAst ast = parse(src);
  expect_kernel_matches_everywhere(ast, src);
  const SystemAst probe = parse(
      "system q { var x : bool; init : (0 - 9223372036854775807 - 1) / (0 - 1) == "
      "0 - 9223372036854775807 - 1; }");
  EXPECT_EQ(eval(*probe.init, StateVec{0}), 1);
}

TEST(CompiledKernelTest, SpaceWithMoreThan32Variables) {
  // 40 booleans: 2^40 ids, so most ids exceed 32 bits and the kernel's
  // 64-bit decode path runs; actions read and write variables past 32.
  std::string src = "system wide { ";
  for (int i = 0; i < 40; ++i) src += "var v" + std::to_string(i) + " : bool; ";
  src += "action lo @0 : v0 != v39 -> v0 := v39, v33 := !v33; ";
  src += "action hi @1 : v35 && !v2 -> v35 := 0, v38 := v1 + v37, v2 := 1; ";
  src += "action mid @2 : v31 == v32 -> v32 := 1 - v32, v31 := v34; }";
  const SystemAst ast = parse(src);
  const System sys = compile(ast);
  ASSERT_NE(sys.kernel(), nullptr);
  ASSERT_EQ(sys.space().size(), StateId{1} << 40);
  std::mt19937_64 rng(40);
  for (int i = 0; i < 4000; ++i) {
    StateId s = rng() % sys.space().size();
    if (i % 2) s &= 0xffffffffu;  // half of them below 2^32 (the 32-bit decode path)
    ASSERT_EQ(fuzz::treewalk_mismatch(ast, sys, s), "");
  }
  ASSERT_EQ(fuzz::treewalk_mismatch(ast, sys, sys.space().size() - 1), "");
}

TEST(CompiledKernelTest, DeepExpressionsUseTheIterativeEmitter) {
  // A 3000-term && chain (left-deep) and a 3001-deep right-nested sum
  // 1 + (1 + (... + x)), built directly as an AST: the emitter is
  // iterative, and the operand stack, 3002 deep here, is sized from the
  // deepest expression.
  std::string chain = "x >= 0";
  for (int i = 0; i < 3000; ++i) chain += " && x != " + std::to_string(i % 4 + 7);
  SystemAst ast = parse("system deep { var x : 0..4; action a @0 : " + chain + " -> x := x; }");
  Expr sum = ast.actions[0].assignments[0].value;
  for (int i = 0; i < 3001; ++i) {
    Expr add;
    add.op = Op::Add;
    add.children.push_back(Expr::constant(1));
    add.children.push_back(std::move(sum));
    sum = std::move(add);
  }
  ast.actions[0].assignments[0].value = std::move(sum);
  const System sys = compile(ast);
  for (StateId s = 0; s < sys.space().size(); ++s)
    EXPECT_EQ(sys.successors(s), (std::vector<StateId>{(s + 3001) % 5})) << s;
}

TEST(CompiledKernelTest, ConcurrentWorkersShareOneKernel) {
  // Engine workers share one kernel, each with its own scratch; the
  // closures run the same code on per-thread stacks. Runs under
  // -fsanitize=thread in CI.
  const SystemAst ast = parse(kDijkstra3N3);
  const System sys = compile(ast);
  constexpr int kWorkers = 4;
  std::vector<std::string> bad(kWorkers);
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w)
      workers.emplace_back([&, w] {
        for (StateId s = 0; s < sys.space().size() && bad[w].empty(); ++s)
          bad[w] = fuzz::treewalk_mismatch(ast, sys, s);
      });
    for (auto& t : workers) t.join();
  }
  for (int w = 0; w < kWorkers; ++w) EXPECT_EQ(bad[w], "") << "worker " << w;
  EXPECT_TRUE(TransitionGraph::build(sys, EngineOptions{4, 3}) ==
              TransitionGraph::build(sys, EngineOptions{1, 0}));
  ring::ThreeStateLayout l(3);
  ring::BtrLayout bl(3);
  OnTheFlyChecker fly(sys, ring::make_btr(bl), ring::make_alpha3(l, bl), EngineOptions{4, 7});
  EXPECT_TRUE(fly.stabilizing_to().holds);
}

TEST(CompiledKernelTest, KernelSurvivesReachableInitialButNotComposition) {
  System sys = load_system(kDijkstra3N3);
  EXPECT_NE(with_reachable_initial(sys, sys.space().decode(sys.initial_states()[0])).kernel(),
            nullptr);
  EXPECT_EQ(box(sys, sys).kernel(), nullptr);
}

}  // namespace
}  // namespace cref::gcl
