#include "gcl/compile.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "gcl/parser.hpp"

namespace cref::gcl {

namespace {

// GCL integers are int64 with two's-complement wrap-around. Spelled out
// through uint64 so overflow is defined, and shared by the tree-walking
// reference (eval) and the compiled kernel below.
std::int64_t wrap(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::uint64_t bits(std::int64_t v) { return static_cast<std::uint64_t>(v); }
std::int64_t wrap_add(std::int64_t a, std::int64_t b) { return wrap(bits(a) + bits(b)); }
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) { return wrap(bits(a) - bits(b)); }
std::int64_t wrap_mul(std::int64_t a, std::int64_t b) { return wrap(bits(a) * bits(b)); }
std::int64_t wrap_neg(std::int64_t a) { return wrap(std::uint64_t{0} - bits(a)); }

}  // namespace

std::int64_t eval_mod(std::int64_t a, std::int64_t b) {
  // b == -1 divides everything; answering it here also keeps
  // INT64_MIN % -1 (a hardware trap) out of the way.
  if (b == 0 || b == -1) return 0;
  std::int64_t r = a % b;
  // |b| as uint64 is exact even for b == INT64_MIN.
  return r < 0 ? wrap(bits(r) + (b > 0 ? bits(b) : std::uint64_t{0} - bits(b))) : r;
}

std::int64_t eval_div(std::int64_t a, std::int64_t b) {
  // Euclidean: (a - eval_mod(a, b)) is an exact multiple of b, so the
  // pair satisfies a == eval_div(a,b)*b + eval_mod(a,b) for every b != 0
  // whose quotient fits in int64.
  if (b == 0) return 0;
  if (b == -1) return wrap_neg(a);
  return wrap_sub(a, eval_mod(a, b)) / b;
}

std::int64_t eval(const Expr& e, const StateVec& s) {
  switch (e.op) {
    case Op::Const: return e.value;
    case Op::Var: return static_cast<std::int64_t>(s[e.var_index]);
    case Op::Not: return eval(e.children[0], s) == 0 ? 1 : 0;
    case Op::Neg: return wrap_neg(eval(e.children[0], s));
    case Op::Add: return wrap_add(eval(e.children[0], s), eval(e.children[1], s));
    case Op::Sub: return wrap_sub(eval(e.children[0], s), eval(e.children[1], s));
    case Op::Mul: return wrap_mul(eval(e.children[0], s), eval(e.children[1], s));
    case Op::Mod:
      return eval_mod(eval(e.children[0], s), eval(e.children[1], s));
    case Op::Div:
      return eval_div(eval(e.children[0], s), eval(e.children[1], s));
    case Op::Eq: return eval(e.children[0], s) == eval(e.children[1], s);
    case Op::Ne: return eval(e.children[0], s) != eval(e.children[1], s);
    case Op::Lt: return eval(e.children[0], s) < eval(e.children[1], s);
    case Op::Le: return eval(e.children[0], s) <= eval(e.children[1], s);
    case Op::Gt: return eval(e.children[0], s) > eval(e.children[1], s);
    case Op::Ge: return eval(e.children[0], s) >= eval(e.children[1], s);
    case Op::And:
      return eval(e.children[0], s) != 0 && eval(e.children[1], s) != 0;
    case Op::Or:
      return eval(e.children[0], s) != 0 || eval(e.children[1], s) != 0;
  }
  return 0;
}

namespace {

// ---------------------------------------------------------------------------
// The compiled form: every guard, right-hand side and the init predicate
// is emitted once as postfix code over the decoded digits of a state.
// Binary operators whose right operand is a constant or a variable fuse
// it into the instruction (the K and V forms), && and || jump past their
// right operand exactly when eval short-circuits, and the operand stack
// is sized from the deepest expression at compile time.

enum class Code : std::uint8_t {
  Const,          // push arg
  Var,            // push digit[arg]
  Not,            // top = !top
  Neg,            // top = -top
  JumpIfZero,     // &&: top == 0 ? jump to arg (result 0) : pop
  JumpIfNonzero,  // ||: top != 0 ? top = 1, jump to arg : pop
  Bool,           // top = top != 0
  // Binary operators, each in three operand forms: X pops its right
  // operand, XK takes the constant arg, XV the digit of variable arg.
  // One flat opcode per form keeps dispatch to a single jump.
  Add,
  AddK,
  AddV,
  Sub,
  SubK,
  SubV,
  Mul,
  MulK,
  MulV,
  Mod,
  ModK,
  ModV,
  Div,
  DivK,
  DivV,
  Eq,
  EqK,
  EqV,
  Ne,
  NeK,
  NeV,
  Lt,
  LtK,
  LtV,
  Le,
  LeK,
  LeV,
  Gt,
  GtK,
  GtV,
  Ge,
  GeK,
  GeV,
};

/// Stack form of a binary operator; its K and V forms follow it.
Code binary_code(Op op) {
  switch (op) {
    case Op::Add: return Code::Add;
    case Op::Sub: return Code::Sub;
    case Op::Mul: return Code::Mul;
    case Op::Mod: return Code::Mod;
    case Op::Div: return Code::Div;
    case Op::Eq: return Code::Eq;
    case Op::Ne: return Code::Ne;
    case Op::Lt: return Code::Lt;
    case Op::Le: return Code::Le;
    case Op::Gt: return Code::Gt;
    case Op::Ge: return Code::Ge;
    default: throw std::logic_error("gcl::compile: not a binary operator");
  }
}

Code fused(Code stack_form, bool variable) {
  return static_cast<Code>(static_cast<int>(stack_form) + (variable ? 2 : 1));
}

struct Instr {
  Code code;
  std::int64_t arg;  // constant, variable index, or jump target
};

/// Half-open range of the code array holding one expression.
struct Range {
  std::uint32_t begin, end;
};

/// One assignment that survives last-write-wins: target and value code.
struct Write {
  std::uint32_t var;
  Range rhs;
};

struct ActionCode {
  Range guard;
  std::uint32_t first_write, end_write;
};

class Kernel final : public SuccessorKernel {
 public:
  Kernel(const SystemAst& ast, SpacePtr space) : space_(std::move(space)) {
    for (std::size_t i = 0; i < space_->var_count(); ++i) {
      cards_.push_back(space_->var(i).cardinality);
      strides_.push_back(space_->stride(i));
    }
    for (const ActionAst& a : ast.actions) {
      ActionCode ac{};
      ac.guard = emit(a.guard);
      ac.first_write = static_cast<std::uint32_t>(writes_.size());
      // Last write wins: the right-hand sides are pure and total, so an
      // assignment overwritten later in the same action can be dropped.
      for (std::size_t i = 0; i < a.assignments.size(); ++i) {
        const AssignmentAst& asg = a.assignments[i];
        const bool overwritten = std::any_of(
            a.assignments.begin() + static_cast<std::ptrdiff_t>(i) + 1, a.assignments.end(),
            [&](const AssignmentAst& later) { return later.var_index == asg.var_index; });
        if (!overwritten)
          writes_.push_back({static_cast<std::uint32_t>(asg.var_index), emit(asg.value)});
      }
      ac.end_write = static_cast<std::uint32_t>(writes_.size());
      actions_.push_back(ac);
    }
    if (ast.init) init_ = emit(*ast.init);
  }

  std::size_t successors_into(StateId s, SuccessorScratch& scratch) const override {
    const std::size_t base = scratch.out.size();
    space_->decode_into(s, scratch.decoded);
    if (scratch.stack.size() < depth_) scratch.stack.resize(depth_);
    const Value* digits = scratch.decoded.data();
    std::int64_t* stack = scratch.stack.data();
    for (const ActionCode& a : actions_) {
      if (run(a.guard, digits, stack) == 0) continue;
      // Effect as an id delta: t = s + sum (new - old) * stride, in
      // wrap-around StateId arithmetic (the sum lands back in range).
      StateId t = s;
      for (std::uint32_t w = a.first_write; w < a.end_write; ++w) {
        const Write& wr = writes_[w];
        const std::int64_t v = eval_mod(run(wr.rhs, digits, stack), cards_[wr.var]);
        t += (static_cast<StateId>(v) - digits[wr.var]) * strides_[wr.var];
      }
      if (t != s) scratch.out.push_back(t);
    }
    auto first = scratch.out.begin() + static_cast<std::ptrdiff_t>(base);
    std::sort(first, scratch.out.end());
    scratch.out.erase(std::unique(first, scratch.out.end()), scratch.out.end());
    return scratch.out.size() - base;
  }

  // The Action closures and the init predicate of the compiled System
  // run the same code over a caller's decoded state.
  bool guard(std::size_t action, const StateVec& s) const {
    return run(actions_[action].guard, s.data(), thread_stack()) != 0;
  }

  void effect(std::size_t action, StateVec& s) const {
    // All right-hand sides read the old state before any write.
    thread_local std::vector<Value> values;
    const ActionCode& a = actions_[action];
    values.clear();
    for (std::uint32_t w = a.first_write; w < a.end_write; ++w) {
      const Write& wr = writes_[w];
      values.push_back(static_cast<Value>(
          eval_mod(run(wr.rhs, s.data(), thread_stack()), cards_[wr.var])));
    }
    for (std::uint32_t w = a.first_write; w < a.end_write; ++w)
      s[writes_[w].var] = values[w - a.first_write];
  }

  bool initial(const StateVec& s) const { return run(init_, s.data(), thread_stack()) != 0; }

 private:
  std::int64_t* thread_stack() const {
    thread_local std::vector<std::int64_t> stack;
    if (stack.size() < depth_) stack.resize(depth_);
    return stack.data();
  }

  /// Emits `root` as postfix code (iteratively: expression depth is
  /// unbounded) and returns its range; tracks the operand-stack height.
  Range emit(const Expr& root) {
    const auto begin = static_cast<std::uint32_t>(code_.size());
    std::size_t height = 0;
    auto put = [&](Code c, std::int64_t arg, int delta) {
      code_.push_back({c, arg});
      height = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(height) + delta);
      depth_ = std::max(depth_, height);
    };
    struct Frame {
      const Expr* e;
      int stage;
      std::size_t patch;  // && / ||: index of the jump to patch
    };
    std::vector<Frame> work{{&root, 0, 0}};
    while (!work.empty()) {
      const std::size_t top = work.size() - 1;
      const Expr& e = *work[top].e;
      const int stage = work[top].stage++;
      auto descend = [&](const Expr& child) { work.push_back({&child, 0, 0}); };
      switch (e.op) {
        case Op::Const:
          put(Code::Const, e.value, +1);
          work.pop_back();
          break;
        case Op::Var:
          put(Code::Var, static_cast<std::int64_t>(e.var_index), +1);
          work.pop_back();
          break;
        case Op::Not:
        case Op::Neg:
          if (stage == 0) {
            descend(e.children[0]);
          } else {
            put(e.op == Op::Not ? Code::Not : Code::Neg, 0, 0);
            work.pop_back();
          }
          break;
        case Op::And:
        case Op::Or:
          if (stage == 0) {
            descend(e.children[0]);
          } else if (stage == 1) {
            work[top].patch = code_.size();
            put(e.op == Op::And ? Code::JumpIfZero : Code::JumpIfNonzero, 0, -1);
            descend(e.children[1]);
          } else {
            put(Code::Bool, 0, 0);
            code_[work[top].patch].arg = static_cast<std::int64_t>(code_.size());
            work.pop_back();
          }
          break;
        default: {  // binary arithmetic and comparisons
          const Code op = binary_code(e.op);
          const Expr& rhs = e.children[1];
          if (stage == 0) {
            descend(e.children[0]);
          } else if (stage == 1 && rhs.op == Op::Const) {
            put(fused(op, false), rhs.value, 0);
            work.pop_back();
          } else if (stage == 1 && rhs.op == Op::Var) {
            put(fused(op, true), static_cast<std::int64_t>(rhs.var_index), 0);
            work.pop_back();
          } else if (stage == 1) {
            descend(rhs);
          } else {
            put(op, 0, -1);
            work.pop_back();
          }
        }
      }
    }
    return {begin, static_cast<std::uint32_t>(code_.size())};
  }

  /// Runs one expression. The top of the stack lives in `acc`; the
  /// slots below it in `stack`.
  std::int64_t run(Range r, const Value* digits, std::int64_t* stack) const {
    const Instr* const code = code_.data();
    std::int64_t* sp = stack;
    std::int64_t acc = 0;
    for (std::uint32_t pc = r.begin; pc < r.end; ++pc) {
      const Instr& in = code[pc];
      switch (in.code) {
        case Code::Const:
          *sp++ = acc;
          acc = in.arg;
          break;
        case Code::Var:
          *sp++ = acc;
          acc = digits[in.arg];
          break;
        case Code::Not: acc = acc == 0; break;
        case Code::Neg: acc = wrap_neg(acc); break;
        case Code::JumpIfZero:
          if (acc == 0) {
            pc = static_cast<std::uint32_t>(in.arg) - 1;
          } else {
            acc = *--sp;
          }
          break;
        case Code::JumpIfNonzero:
          if (acc != 0) {
            acc = 1;
            pc = static_cast<std::uint32_t>(in.arg) - 1;
          } else {
            acc = *--sp;
          }
          break;
        case Code::Bool: acc = acc != 0; break;
        case Code::Add: acc = wrap_add(*--sp, acc); break;
        case Code::AddK: acc = wrap_add(acc, in.arg); break;
        case Code::AddV: acc = wrap_add(acc, digits[in.arg]); break;
        case Code::Sub: acc = wrap_sub(*--sp, acc); break;
        case Code::SubK: acc = wrap_sub(acc, in.arg); break;
        case Code::SubV: acc = wrap_sub(acc, digits[in.arg]); break;
        case Code::Mul: acc = wrap_mul(*--sp, acc); break;
        case Code::MulK: acc = wrap_mul(acc, in.arg); break;
        case Code::MulV: acc = wrap_mul(acc, digits[in.arg]); break;
        case Code::Mod: acc = eval_mod(*--sp, acc); break;
        case Code::ModK: acc = eval_mod(acc, in.arg); break;
        case Code::ModV: acc = eval_mod(acc, digits[in.arg]); break;
        case Code::Div: acc = eval_div(*--sp, acc); break;
        case Code::DivK: acc = eval_div(acc, in.arg); break;
        case Code::DivV: acc = eval_div(acc, digits[in.arg]); break;
        case Code::Eq: acc = *--sp == acc; break;
        case Code::EqK: acc = acc == in.arg; break;
        case Code::EqV: acc = acc == digits[in.arg]; break;
        case Code::Ne: acc = *--sp != acc; break;
        case Code::NeK: acc = acc != in.arg; break;
        case Code::NeV: acc = acc != digits[in.arg]; break;
        case Code::Lt: acc = *--sp < acc; break;
        case Code::LtK: acc = acc < in.arg; break;
        case Code::LtV: acc = acc < digits[in.arg]; break;
        case Code::Le: acc = *--sp <= acc; break;
        case Code::LeK: acc = acc <= in.arg; break;
        case Code::LeV: acc = acc <= digits[in.arg]; break;
        case Code::Gt: acc = *--sp > acc; break;
        case Code::GtK: acc = acc > in.arg; break;
        case Code::GtV: acc = acc > digits[in.arg]; break;
        case Code::Ge: acc = *--sp >= acc; break;
        case Code::GeK: acc = acc >= in.arg; break;
        case Code::GeV: acc = acc >= digits[in.arg]; break;
      }
    }
    return acc;
  }

  SpacePtr space_;
  std::vector<std::int64_t> cards_;
  std::vector<StateId> strides_;
  std::vector<Instr> code_;
  std::vector<Write> writes_;
  std::vector<ActionCode> actions_;
  Range init_{0, 0};
  std::size_t depth_ = 0;
};

}  // namespace

System compile(const SystemAst& ast) {
  std::vector<VarSpec> vars;
  vars.reserve(ast.vars.size());
  for (const VarDeclAst& v : ast.vars) vars.push_back({v.name, static_cast<Value>(v.cardinality)});
  auto space = std::make_shared<const Space>(std::move(vars));
  auto kernel = std::make_shared<const Kernel>(ast, space);

  std::vector<Action> actions;
  for (std::size_t i = 0; i < ast.actions.size(); ++i) {
    Action action;
    action.name = ast.actions[i].name;
    action.process = ast.actions[i].process;
    action.guard = [kernel, i](const StateVec& s) { return kernel->guard(i, s); };
    action.effect = [kernel, i](StateVec& s) { kernel->effect(i, s); };
    actions.push_back(std::move(action));
  }

  std::optional<StatePredicate> init;
  if (ast.init) init = [kernel](const StateVec& s) { return kernel->initial(s); };
  // Only dense spaces have ids for the kernel to work on.
  std::shared_ptr<const SuccessorKernel> slot;
  if (space->dense()) slot = kernel;
  return System(ast.name, std::move(space), std::move(actions), std::move(init), std::move(slot));
}

System load_system(const std::string& source) { return compile(parse(source)); }

}  // namespace cref::gcl
