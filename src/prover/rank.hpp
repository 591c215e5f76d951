#pragma once

// Expression-level machinery of the static stabilization prover: the
// post-state substitution and Delta-expression construction that turn a
// ranking candidate rho into per-action proof obligations, and the
// unified decision procedure that discharges those obligations exactly
// (budgeted finite-domain enumeration over the obligation's FOOTPRINT
// variables, mirroring the gcl_lint passes) with a sound abstract-
// interpretation fallback above the budget.
//
// Semantics contract: post_expr models gcl::compile exactly — every
// assigned variable x is replaced by `(rhs % card)` (the Euclidean
// eval_mod is the wrap compile applies), all right-hand sides read the
// OLD state (guarded-command multiple assignment), and a variable
// assigned twice takes its LAST assignment. Because substitution leaves
// subexpressions over unwritten variables structurally unchanged,
// delta_expr's additive term cancellation collapses rho(post) - rho to
// an expression over only the variables the action actually interferes
// with — which is what keeps obligation footprints layer-local and the
// prover's cost independent of |Sigma| on DAG-layered programs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gcl/ast.hpp"

namespace cref::prover {

// --- expression builders (loc-free; for the prover and its tests) ----

gcl::Expr make_const(std::int64_t v);
gcl::Expr make_var(const gcl::SystemAst& ast, std::size_t var_index);
gcl::Expr make_unary(gcl::Op op, gcl::Expr a);
gcl::Expr make_binary(gcl::Op op, gcl::Expr a, gcl::Expr b);
/// Left-folded Add chain; Const 1 for an empty list (the neutral
/// element of conjunction-free truthiness, used for "no predicate").
gcl::Expr make_sum(std::vector<gcl::Expr> terms);

/// Deep structural equality (op, value, var_index, children; source
/// locations and display names ignored).
bool expr_equal(const gcl::Expr& a, const gcl::Expr& b);

// --- post-state substitution and Delta construction ------------------

/// `e` evaluated in the post-state of `action`: every assigned variable
/// x is replaced by `(rhs % card)`, last assignment wins, unwritten
/// subtrees are returned structurally unchanged.
gcl::Expr post_expr(const gcl::Expr& e, const gcl::ActionAst& action,
                    const std::vector<int>& cards);

/// post_expr(e) - e with additive term cancellation: both sides are
/// flattened into +/- term lists and structurally equal terms of
/// opposite sign are dropped, so terms the action does not touch vanish
/// syntactically. Const 0 when everything cancels (in particular when
/// the action writes no variable of `e`).
gcl::Expr delta_expr(const gcl::Expr& e, const gcl::ActionAst& action,
                     const std::vector<int>& cards);

/// Truthy iff executing `action` changes the state: OR over assigned
/// variables of `(rhs % card) != x` (last assignment per variable).
/// Const 0 for an action with no assignments. This is the paper's
/// no-op-is-not-a-transition side condition made syntactic.
gcl::Expr changed_expr(const gcl::ActionAst& action, const std::vector<int>& cards);

// --- the decision procedure ------------------------------------------

/// How an obligation was discharged (recorded in certificates).
enum class Discharge {
  Vacuous,                 // context provably unsatisfiable
  Enumeration,             // exhaustive finite-domain enumeration
  AbstractInterpretation,  // interval x congruence transfer functions
  Table,                   // whole-Sigma enumerated residual ranking
};

const char* discharge_name(Discharge d);

struct DecideOptions {
  /// Max valuations an exhaustive check may enumerate (product of the
  /// footprint variables' cardinalities), as in gcl::AnalyzeOptions.
  std::size_t budget = std::size_t{1} << 20;
};

struct DecideOutcome {
  bool proved = false;
  Discharge method = Discharge::Enumeration;
  std::size_t valuations = 0;  // enumerated points (0 for absint)
  std::size_t dropped = 0;     // droppable context conjuncts discarded
};

/// Proves "every state (over the FULL declared domains) satisfying all
/// of `context` makes `prop` truthy". `droppable[i]` marks context
/// conjuncts the procedure may discard — discarding only enlarges the
/// quantified set, so it is a sound strengthening; the procedure keeps
/// exactly the droppable conjuncts that fit the enumeration budget
/// (those adding no footprint variables are always kept). Falls back to
/// refine_by_guard + abs_eval when even the mandatory footprint
/// overflows the budget. !proved means unknown, never refuted.
DecideOutcome decide_always(const gcl::SystemAst& ast, const gcl::Expr& prop,
                            const std::vector<const gcl::Expr*>& context,
                            const std::vector<bool>& droppable,
                            const DecideOptions& opts = {});

/// Proves the conjunction of `context` unsatisfiable (same droppable
/// semantics: an unsatisfiable subset witnesses the whole).
DecideOutcome decide_unsat(const gcl::SystemAst& ast,
                           const std::vector<const gcl::Expr*>& context,
                           const std::vector<bool>& droppable,
                           const DecideOptions& opts = {});

}  // namespace cref::prover
