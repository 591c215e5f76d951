#include "prover/refine.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_set>

#include "gcl/diag.hpp"
#include "gcl/pretty.hpp"
#include "gcl/valuation.hpp"
#include "prover/interference.hpp"
#include "prover/obligations.hpp"
#include "prover/templates.hpp"
#include "util/line_codec.hpp"

namespace cref::prover {

using gcl::Expr;
using gcl::Op;

namespace {

/// a (sorted) subset-of b (sorted)?
bool subset_of(const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// Obligation context builder: expressions must outlive the decide call,
/// so droppable conjuncts live in `owned` (reserve before taking ptrs).
struct ObCtx {
  std::vector<const Expr*> ptrs;
  std::vector<bool> drop;
  void add(const Expr& e, bool droppable) {
    ptrs.push_back(&e);
    drop.push_back(droppable);
  }
};

/// The obligation footprint of one concrete action under alpha: guard,
/// right-hand sides, ASSIGNMENT TARGETS (the changed-ness comparison
/// reads the old value), every abstract-variable image expression, and
/// the alpha invariant. Every expression the enumerated classification
/// or its point checks evaluates has footprint inside this set, which is
/// what makes pinning the other variables to 0 sound.
std::vector<std::size_t> obligation_footprint(const AlphaCtx& ctx, std::size_t ai) {
  std::vector<char> in(ctx.c.vars.size(), 0);
  const gcl::ActionAst& act = ctx.c.actions[ai];
  gcl::mark_vars(act.guard, in);
  for (const gcl::AssignmentAst& asg : act.assignments) {
    gcl::mark_vars(asg.value, in);
    if (asg.var_index < in.size()) in[asg.var_index] = 1;
  }
  for (const Expr& e : ctx.img) gcl::mark_vars(e, in);
  if (ctx.alpha.invariant) gcl::mark_vars(*ctx.alpha.invariant, in);
  return gcl::marked_vars(in);
}

/// Row-level classification of one action over its obligation footprint
/// (shared between the prover and the mode-B validator, so tampered
/// certificates face the exact same enumeration).
struct EnumRows {
  std::vector<std::size_t> fp;
  std::vector<StateVec> stutter_rows;  // NON-exempt stutter rows only
  std::vector<CompressedRow> compressed;
  std::size_t rows = 0;        // state-changing transitions classified
  std::size_t exact_rows = 0;
  std::size_t exempt_rows = 0;  // stutter rows at A-deadlock images
  bool refuted = false;        // a definitely-Invalid edge exists
  std::string refute_msg;
  std::string fail;            // nonempty: classification inconclusive
};

EnumRows enumerate_action(const AlphaCtx& ctx, std::size_t ai, std::size_t budget,
                          std::size_t max_a_nodes) {
  EnumRows out;
  out.fp = obligation_footprint(ctx, ai);
  const gcl::ActionAst& act = ctx.c.actions[ai];
  const std::size_t total = gcl::valuation_count(out.fp, ctx.c_cards, budget);
  if (total > budget) {
    out.fail = "enumerating " + act.name + " needs more than " +
               std::to_string(budget) + " valuations";
    return out;
  }
  StateVec s, post, img_s, img_t;
  gcl::for_each_valuation(out.fp, ctx.c_cards, s, [&](const StateVec& sv) {
    if (!gcl::truthy(act.guard, sv)) return true;
    gcl::post_state(act, ctx.c_cards, sv, post);
    if (post == sv) return true;
    ++out.rows;
    gcl::alpha_image(ctx.alpha, ctx.a, sv, img_s);
    gcl::alpha_image(ctx.alpha, ctx.a, post, img_t);
    if (img_s == img_t) {
      if (a_is_deadlock(ctx, img_s))
        ++out.exempt_rows;  // the checker permits stuttering here forever
      else
        out.stutter_rows.push_back(sv);
      return true;
    }
    if (find_direct_match(ctx, img_s, img_t) >= 0) {
      ++out.exact_rows;
      return true;
    }
    bool exhausted = false;
    if (auto path = find_a_path(ctx, img_s, img_t, max_a_nodes, &exhausted)) {
      out.compressed.push_back({sv, ai, std::move(*path)});
      return true;
    }
    if (exhausted) {
      // Complete refutation: the edge's image pair is not connected in
      // A at all, so classify_edge reports Invalid on a real state.
      out.refuted = true;
      out.refute_msg = "action " + act.name + " at (" +
                       gcl::format_valuation(ctx.c, out.fp, sv) +
                       ") has no abstract path for its image change (Invalid edge)";
    } else {
      out.fail = "abstract BFS cap hit while classifying " + act.name;
    }
    return false;
  });
  return out;
}

/// Lexicographic comparison of a template tuple across one edge:
/// -1 strict decrease, 0 tie everywhere, +1 increase before a decrease.
int lex_edge(const std::vector<RankTerm>& comps, const StateVec& s,
             const StateVec& t) {
  for (const RankTerm& c : comps) {
    const auto v = gcl::eval(c.expr, s);
    const auto v2 = gcl::eval(c.expr, t);
    if (v2 < v) return -1;
    if (v2 > v) return +1;
  }
  return 0;
}

/// Point-wise lexicographic sign of precomputed delta expressions.
int lex_point(const std::vector<Expr>& deltas, const StateVec& s) {
  for (const Expr& d : deltas) {
    const auto v = gcl::eval(d, s);
    if (v < 0) return -1;
    if (v > 0) return +1;
  }
  return 0;
}

bool reject(std::string* why, std::string msg) {
  if (why) *why = std::move(msg);
  return false;
}

}  // namespace

const char* action_class_name(ActionClass c) {
  switch (c) {
    case ActionClass::Vacuous: return "vacuous";
    case ActionClass::Stutter: return "stutter";
    case ActionClass::Exact: return "exact";
    case ActionClass::Mixed: return "mixed";
    case ActionClass::Enumerated: return "enumerated";
  }
  return "?";
}

const char* refine_obligation_kind_name(RefineObligation::Kind k) {
  switch (k) {
    case RefineObligation::Kind::Classify: return "classify";
    case RefineObligation::Kind::StutterDecrease: return "stutter-decrease";
    case RefineObligation::Kind::StutterNonIncrease: return "stutter-non-increase";
    case RefineObligation::Kind::VisibleNonIncrease: return "visible-non-increase";
    case RefineObligation::Kind::CompressedDecrease: return "compressed-decrease";
    case RefineObligation::Kind::InvariantInit: return "invariant-init";
    case RefineObligation::Kind::InvariantStep: return "invariant-step";
    case RefineObligation::Kind::InvariantExcludes: return "invariant-excludes";
    case RefineObligation::Kind::DeadlockSupport: return "deadlock-support";
  }
  return "?";
}

const char* refine_verdict_name(RefineVerdict v) {
  switch (v) {
    case RefineVerdict::Proved: return "proved";
    case RefineVerdict::Refuted: return "refuted";
    case RefineVerdict::Unknown: return "unknown";
  }
  return "?";
}

// --- the prover -------------------------------------------------------

namespace {

/// Per-action synthesis state.
struct ActionInfo {
  Expr guard;
  Expr changed;
  std::vector<Expr> stutter_conjs;
  ActionClass cls = ActionClass::Enumerated;
  std::ptrdiff_t matched = -1;
  EnumRows rows;  // Enumerated only
};

}  // namespace

RefineResult prove_refinement(const gcl::SystemAst& c_ast, const gcl::SystemAst& a_ast,
                              const gcl::AlphaSpec& alpha, const RefineOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  RefineResult result;
  auto finish = [&](RefineVerdict v) -> RefineResult& {
    result.verdict = v;
    result.prove_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return result;
  };

  const AlphaCtx ctx(c_ast, a_ast, alpha);
  const DecideOptions dopts{opts.budget};
  const std::size_t nc = c_ast.actions.size();

  RefinementCertificate cert;
  cert.c_system = c_ast.name;
  cert.a_system = a_ast.name;
  cert.alpha_text = gcl::print_alpha(alpha);
  cert.budget = opts.budget;
  cert.action_class.assign(nc, ActionClass::Enumerated);
  cert.matched.assign(nc, -1);
  cert.enum_footprint.assign(nc, {});
  cert.stutter_ranked_at.assign(nc, kUnranked);

  // --- per-action classification ladder ------------------------------
  std::vector<ActionInfo> info(nc);
  for (std::size_t i = 0; i < nc; ++i) {
    const gcl::ActionAst& act = c_ast.actions[i];
    ActionInfo& ai = info[i];
    ai.guard = act.guard;
    ai.changed = changed_expr(act, ctx.c_cards);
    ai.stutter_conjs = stutter_conjuncts(ctx, i);

    // (1) Vacuous: the action never takes a state-changing transition.
    {
      const std::vector<const Expr*> cx = {&ai.guard, &ai.changed};
      const DecideOutcome r = decide_unsat(c_ast, cx, {false, false}, dopts);
      if (r.proved) {
        ai.cls = ActionClass::Vacuous;
        cert.obligations.push_back({RefineObligation::Kind::Classify, act.name, 0,
                                    r.method, r.valuations, "never fires"});
        cert.action_class[i] = ai.cls;
        continue;
      }
    }

    // (2) Pure stutter: alpha(s') == alpha(s) on every transition.
    {
      bool all = true;
      std::size_t vals = 0;
      Discharge worst = Discharge::Vacuous;
      for (const Expr& cj : ai.stutter_conjs) {
        const std::vector<const Expr*> cx = {&ai.guard, &ai.changed};
        const DecideOutcome r = decide_always(c_ast, cj, cx, {false, false}, dopts);
        if (!r.proved) {
          all = false;
          break;
        }
        vals += r.valuations;
        if (r.method != Discharge::Vacuous) worst = r.method;
      }
      if (all) {
        ai.cls = ActionClass::Stutter;
        cert.obligations.push_back(
            {RefineObligation::Kind::Classify, act.name, 0, worst, vals,
             "stutter (" + std::to_string(ai.stutter_conjs.size()) + " conjunct(s))"});
        cert.action_class[i] = ai.cls;
        continue;
      }
    }

    // (3) Exact: every transition maps to the A-edge of one abstract b.
    bool classified = false;
    for (std::size_t bi = 0; bi < a_ast.actions.size() && !classified; ++bi) {
      const std::vector<Expr> mc = match_conjuncts(ctx, i, bi);
      bool all = true;
      std::size_t vals = 0;
      Discharge worst = Discharge::Vacuous;
      for (const Expr& cj : mc) {
        const std::vector<const Expr*> cx = {&ai.guard, &ai.changed};
        const DecideOutcome r = decide_always(c_ast, cj, cx, {false, false}, dopts);
        if (!r.proved) {
          all = false;
          break;
        }
        vals += r.valuations;
        if (r.method != Discharge::Vacuous) worst = r.method;
      }
      if (all) {
        ai.cls = ActionClass::Exact;
        ai.matched = static_cast<std::ptrdiff_t>(bi);
        cert.obligations.push_back({RefineObligation::Kind::Classify, act.name, 0,
                                    worst, vals,
                                    "maps to " + a_ast.actions[bi].name});
        classified = true;
      }
    }
    if (classified) {
      cert.action_class[i] = ai.cls;
      cert.matched[i] = ai.matched;
      continue;
    }

    // (4) Mixed: stutter OR the edge of one abstract b, state by state.
    for (std::size_t bi = 0; bi < a_ast.actions.size() && !classified; ++bi) {
      const Expr prop = make_binary(Op::Or, conj(ai.stutter_conjs),
                                    conj(match_conjuncts(ctx, i, bi)));
      const std::vector<const Expr*> cx = {&ai.guard, &ai.changed};
      const DecideOutcome r = decide_always(c_ast, prop, cx, {false, false}, dopts);
      if (r.proved) {
        ai.cls = ActionClass::Mixed;
        ai.matched = static_cast<std::ptrdiff_t>(bi);
        cert.obligations.push_back({RefineObligation::Kind::Classify, act.name, 0,
                                    r.method, r.valuations,
                                    "stutter or " + a_ast.actions[bi].name});
        classified = true;
      }
    }
    if (classified) {
      cert.action_class[i] = ai.cls;
      cert.matched[i] = ai.matched;
      continue;
    }

    // (5) Enumerated residual classification over the footprint.
    ai.rows = enumerate_action(ctx, i, opts.budget, opts.max_a_nodes);
    if (ai.rows.refuted) {
      result.counterexample = ai.rows.refute_msg;
      result.failures.push_back(ai.rows.refute_msg);
      return finish(RefineVerdict::Refuted);
    }
    if (!ai.rows.fail.empty()) {
      result.failures.push_back(ai.rows.fail);
      continue;
    }
    ai.cls = ActionClass::Enumerated;
    cert.action_class[i] = ai.cls;
    cert.enum_footprint[i] = ai.rows.fp;
    cert.obligations.push_back(
        {RefineObligation::Kind::Classify, act.name, 0, Discharge::Enumeration,
         ai.rows.rows,
         std::to_string(ai.rows.stutter_rows.size()) + " stutter / " +
             std::to_string(ai.rows.exempt_rows) + " exempt / " +
             std::to_string(ai.rows.exact_rows) + " exact / " +
             std::to_string(ai.rows.compressed.size()) + " compressed row(s)"});
  }
  if (!result.failures.empty()) return finish(RefineVerdict::Unknown);

  for (std::size_t i = 0; i < nc; ++i)
    for (CompressedRow& row : info[i].rows.compressed)
      cert.compressed.push_back(std::move(row));

  const Expr not_dl = not_a_deadlock_expr(ctx);
  const InterferenceGraph ig = build_interference(c_ast);
  const std::vector<Candidate> pool = template_pool(c_ast, ig, opts.max_pool);

  // --- stutter ranking ------------------------------------------------
  // Strict lexicographic decrease on every stutter step whose image is
  // not an A-deadlock: symbolically for Stutter/Mixed actions,
  // point-wise for enumerated stutter rows.
  std::vector<std::size_t> sym;  // symbolic actions still unranked
  for (std::size_t i = 0; i < nc; ++i) {
    if (info[i].cls != ActionClass::Stutter && info[i].cls != ActionClass::Mixed)
      continue;
    // Exemption pre-pass: no stutter transition with a live image at
    // all (an unsatisfiable subset of the context witnesses this).
    ObCtx cx;
    cx.add(info[i].guard, false);
    cx.add(info[i].changed, false);
    for (const Expr& cj : info[i].stutter_conjs) cx.add(cj, true);
    cx.add(not_dl, true);
    const DecideOutcome r = decide_unsat(c_ast, cx.ptrs, cx.drop, dopts);
    if (r.proved) {
      cert.obligations.push_back({RefineObligation::Kind::StutterDecrease,
                                  c_ast.actions[i].name, 0, Discharge::Vacuous,
                                  r.valuations, "all stutter images are A-deadlocks"});
    } else {
      sym.push_back(i);
    }
  }
  struct RowRef {
    std::size_t action;
    std::size_t row;
  };
  std::vector<RowRef> srows;
  for (std::size_t i = 0; i < nc; ++i)
    for (std::size_t r = 0; r < info[i].rows.stutter_rows.size(); ++r)
      srows.push_back({i, r});
  const std::size_t total_srows = srows.size();

  std::vector<std::vector<Expr>> sties(nc);  // accepted-component ties
  for (const Candidate& cand : pool) {
    if ((sym.empty() && srows.empty()) ||
        cert.stutter_components.size() >= opts.max_components)
      break;
    struct Eval {
      std::size_t action;
      Expr delta;
      bool strict;
      DecideOutcome outcome;
    };
    std::vector<Eval> evals;
    std::vector<char> row_strict(srows.size(), 0);
    bool rejected = false;
    bool any_strict = false;
    for (std::size_t i : sym) {
      Expr delta = delta_expr(cand.expr, c_ast.actions[i], ctx.c_cards);
      ObCtx cx;
      cx.add(info[i].guard, false);
      cx.add(info[i].changed, false);
      for (const Expr& cj : info[i].stutter_conjs) cx.add(cj, true);
      cx.add(not_dl, true);
      for (const Expr& t : sties[i]) cx.add(t, true);
      const Expr strict_prop = make_binary(Op::Lt, delta, make_const(0));
      DecideOutcome r = decide_always(c_ast, strict_prop, cx.ptrs, cx.drop, dopts);
      bool strict = r.proved;
      if (!strict) {
        const Expr noninc = make_binary(Op::Le, delta, make_const(0));
        r = decide_always(c_ast, noninc, cx.ptrs, cx.drop, dopts);
        if (!r.proved) {
          rejected = true;
          break;
        }
      }
      any_strict |= strict;
      evals.push_back({i, std::move(delta), strict, r});
    }
    if (!rejected) {
      for (std::size_t k = 0; k < srows.size() && !rejected; ++k) {
        const RowRef& rr = srows[k];
        const Expr delta = delta_expr(cand.expr, c_ast.actions[rr.action], ctx.c_cards);
        // Point evaluation is only sound when the delta reads nothing
        // outside the row's enumeration footprint.
        if (!subset_of(gcl::footprint(delta, c_ast.vars.size()), info[rr.action].rows.fp)) {
          rejected = true;
          break;
        }
        const auto d = gcl::eval(delta, info[rr.action].rows.stutter_rows[rr.row]);
        if (d > 0) rejected = true;
        if (d < 0) {
          row_strict[k] = 1;
          any_strict = true;
        }
      }
    }
    if (rejected) continue;
    if (!any_strict) {
      // A component that provably never moves adds no information.
      bool useful = false;
      for (const Eval& e : evals) {
        ObCtx cx;
        cx.add(info[e.action].guard, false);
        cx.add(info[e.action].changed, false);
        for (const Expr& cj : info[e.action].stutter_conjs) cx.add(cj, true);
        cx.add(not_dl, true);
        for (const Expr& t : sties[e.action]) cx.add(t, true);
        const Expr still = make_binary(Op::Eq, e.delta, make_const(0));
        if (!decide_always(c_ast, still, cx.ptrs, cx.drop, dopts).proved) {
          useful = true;
          break;
        }
      }
      if (!useful) continue;
    }

    const std::size_t comp = cert.stutter_components.size();
    cert.stutter_components.push_back({cand.pretty, cand.expr});
    std::vector<std::size_t> still_sym;
    for (Eval& e : evals) {
      const gcl::ActionAst& a = c_ast.actions[e.action];
      if (e.strict) {
        cert.stutter_ranked_at[e.action] = comp;
        cert.obligations.push_back({RefineObligation::Kind::StutterDecrease, a.name,
                                    comp, e.outcome.method, e.outcome.valuations,
                                    a.name + " vs " + cand.pretty});
      } else {
        cert.obligations.push_back({RefineObligation::Kind::StutterNonIncrease, a.name,
                                    comp, e.outcome.method, e.outcome.valuations,
                                    a.name + " vs " + cand.pretty});
        sties[e.action].push_back(
            make_binary(Op::Eq, std::move(e.delta), make_const(0)));
        still_sym.push_back(e.action);
      }
    }
    sym = std::move(still_sym);
    std::vector<RowRef> still_rows;
    for (std::size_t k = 0; k < srows.size(); ++k)
      if (!row_strict[k]) still_rows.push_back(srows[k]);
    srows = std::move(still_rows);
  }
  if (!sym.empty()) {
    std::string names;
    for (std::size_t i : sym)
      names += (names.empty() ? "" : ", ") + c_ast.actions[i].name;
    result.failures.push_back("no template ranks the stutter steps of {" + names + "}");
  }
  if (!srows.empty())
    result.failures.push_back(std::to_string(srows.size()) +
                              " enumerated stutter row(s) remain unranked");
  if (total_srows > 0 && srows.empty())
    cert.obligations.push_back({RefineObligation::Kind::StutterDecrease, "", 0,
                                Discharge::Enumeration, total_srows,
                                std::to_string(total_srows) +
                                    " stutter row(s) point-ranked"});

  // --- visible ranking (compressed edges must be off every cycle) ----
  if (!cert.compressed.empty()) {
    std::vector<std::size_t> nonvac;
    for (std::size_t i = 0; i < nc; ++i)
      if (info[i].cls != ActionClass::Vacuous) nonvac.push_back(i);
    std::vector<char> vrow_done(cert.compressed.size(), 0);
    std::size_t pending = cert.compressed.size();
    std::vector<std::vector<Expr>> vties(nc);
    for (const Candidate& cand : pool) {
      if (pending == 0 || cert.visible_components.size() >= opts.max_components) break;
      struct Eval {
        std::size_t action;
        Expr delta;
        DecideOutcome outcome;
      };
      std::vector<Eval> evals;
      std::vector<char> row_strict(cert.compressed.size(), 0);
      bool rejected = false;
      bool any_strict = false;
      for (std::size_t i : nonvac) {
        Expr delta = delta_expr(cand.expr, c_ast.actions[i], ctx.c_cards);
        ObCtx cx;
        cx.add(info[i].guard, false);
        cx.add(info[i].changed, false);
        for (const Expr& t : vties[i]) cx.add(t, true);
        const Expr noninc = make_binary(Op::Le, delta, make_const(0));
        const DecideOutcome r = decide_always(c_ast, noninc, cx.ptrs, cx.drop, dopts);
        if (!r.proved) {
          rejected = true;
          break;
        }
        evals.push_back({i, std::move(delta), r});
      }
      if (!rejected) {
        for (std::size_t k = 0; k < cert.compressed.size() && !rejected; ++k) {
          if (vrow_done[k]) continue;
          const CompressedRow& row = cert.compressed[k];
          const Expr delta =
              delta_expr(cand.expr, c_ast.actions[row.action], ctx.c_cards);
          if (!subset_of(gcl::footprint(delta, c_ast.vars.size()),
                         info[row.action].rows.fp)) {
            rejected = true;
            break;
          }
          const auto d = gcl::eval(delta, row.source);
          if (d > 0) rejected = true;
          if (d < 0) {
            row_strict[k] = 1;
            any_strict = true;
          }
        }
      }
      if (rejected || !any_strict) continue;

      const std::size_t comp = cert.visible_components.size();
      cert.visible_components.push_back({cand.pretty, cand.expr});
      for (Eval& e : evals) {
        cert.obligations.push_back({RefineObligation::Kind::VisibleNonIncrease,
                                    c_ast.actions[e.action].name, comp,
                                    e.outcome.method, e.outcome.valuations,
                                    c_ast.actions[e.action].name + " vs " +
                                        cand.pretty});
        vties[e.action].push_back(
            make_binary(Op::Eq, std::move(e.delta), make_const(0)));
      }
      for (std::size_t k = 0; k < cert.compressed.size(); ++k)
        if (row_strict[k]) {
          vrow_done[k] = 1;
          --pending;
        }
    }
    if (pending > 0) {
      result.failures.push_back(std::to_string(pending) +
                                " compressed row(s) lack a visible-ranking decrease");
    } else {
      cert.obligations.push_back({RefineObligation::Kind::CompressedDecrease, "", 0,
                                  Discharge::Enumeration, cert.compressed.size(),
                                  std::to_string(cert.compressed.size()) +
                                      " compressed row(s) point-ranked"});
    }
  }

  // --- reach exclusion (compressed rows vs the declared init) --------
  if (!cert.compressed.empty() && c_ast.init) {
    if (!alpha.invariant) {
      result.failures.push_back(
          "compressed rows with a declared init need an alpha invariant to "
          "exclude them from reach(I_C)");
    } else {
      const Expr& inv = *alpha.invariant;
      bool ok = true;
      for (const CompressedRow& row : cert.compressed) {
        if (gcl::eval(inv, row.source) != 0) {
          result.failures.push_back(
              "the alpha invariant does not exclude a compressed row of " +
              c_ast.actions[row.action].name);
          ok = false;
          break;
        }
      }
      const std::vector<const Expr*> init_conjs = gcl::conjuncts_of(*c_ast.init);
      const std::vector<const Expr*> inv_conjs = gcl::conjuncts_of(inv);
      for (std::size_t ci = 0; ci < inv_conjs.size() && ok; ++ci) {
        std::vector<bool> drop(init_conjs.size(), true);
        const DecideOutcome r =
            decide_always(c_ast, *inv_conjs[ci], init_conjs, drop, dopts);
        if (!r.proved) {
          result.failures.push_back("invariant conjunct " + std::to_string(ci) +
                                    " is not implied by init");
          ok = false;
          break;
        }
        cert.obligations.push_back({RefineObligation::Kind::InvariantInit, "", ci,
                                    r.method, r.valuations,
                                    "init implies conjunct " + std::to_string(ci)});
      }
      for (std::size_t i = 0; i < nc && ok; ++i) {
        if (info[i].cls == ActionClass::Vacuous) continue;
        for (std::size_t ci = 0; ci < inv_conjs.size() && ok; ++ci) {
          const Expr post = post_expr(*inv_conjs[ci], c_ast.actions[i], ctx.c_cards);
          ObCtx cx;
          cx.add(info[i].guard, false);
          cx.add(info[i].changed, false);
          for (const Expr* pc : inv_conjs) cx.add(*pc, true);
          const DecideOutcome r = decide_always(c_ast, post, cx.ptrs, cx.drop, dopts);
          if (!r.proved) {
            result.failures.push_back("invariant conjunct " + std::to_string(ci) +
                                      " is not inductive under " +
                                      c_ast.actions[i].name);
            ok = false;
            break;
          }
          cert.obligations.push_back({RefineObligation::Kind::InvariantStep,
                                      c_ast.actions[i].name, ci, r.method,
                                      r.valuations, "conjunct preserved"});
        }
      }
      if (ok) {
        cert.obligations.push_back({RefineObligation::Kind::InvariantExcludes, "", 0,
                                    Discharge::Enumeration, cert.compressed.size(),
                                    "invariant refuted at every compressed source"});
        cert.has_invariant = true;
        cert.invariant = inv;
      }
    }
  }

  // --- deadlock obligations ------------------------------------------
  // For every abstract action b: b fires at the image => some concrete
  // action fires, witnessed by a small support subset so the obligation
  // footprint stays local.
  cert.deadlock_support.assign(a_ast.actions.size(), {});
  for (std::size_t bi = 0; bi < a_ast.actions.size(); ++bi) {
    const Expr fires = a_action_fires_expr(ctx, bi);
    const std::vector<const Expr*> acx = {&fires};
    if (decide_unsat(c_ast, acx, {false}, dopts).proved) {
      cert.obligations.push_back({RefineObligation::Kind::DeadlockSupport,
                                  a_ast.actions[bi].name, 0, Discharge::Vacuous, 0,
                                  "abstract action never fires at an image"});
      continue;
    }
    auto try_support = [&](const std::vector<std::size_t>& sup,
                           DecideOutcome* out) {
      std::vector<Expr> fires_c;
      for (std::size_t i : sup)
        fires_c.push_back(make_binary(Op::And, info[i].guard, info[i].changed));
      const Expr prop = disj(std::move(fires_c));
      *out = decide_always(c_ast, prop, acx, {true}, dopts);
      return out->proved;
    };
    bool found = false;
    DecideOutcome r;
    std::vector<std::size_t> sup;
    for (std::size_t i = 0; i < nc && !found; ++i) {
      sup = {i};
      found = try_support(sup, &r);
    }
    for (std::size_t i = 0; i < nc && !found; ++i)
      for (std::size_t j = i + 1; j < nc && !found; ++j) {
        sup = {i, j};
        found = try_support(sup, &r);
      }
    if (!found) {
      sup.clear();
      for (std::size_t i = 0; i < nc; ++i) sup.push_back(i);
      found = try_support(sup, &r);
    }
    if (!found) {
      result.failures.push_back("no deadlock support for abstract action " +
                                a_ast.actions[bi].name);
      continue;
    }
    cert.deadlock_support[bi] = sup;
    std::string names;
    for (std::size_t i : sup) names += (names.empty() ? "" : ", ") + c_ast.actions[i].name;
    cert.obligations.push_back({RefineObligation::Kind::DeadlockSupport,
                                a_ast.actions[bi].name, 0, r.method, r.valuations,
                                "supported by {" + names + "}"});
  }

  if (!result.failures.empty()) return finish(RefineVerdict::Unknown);
  result.certificate = std::move(cert);
  return finish(RefineVerdict::Proved);
}

// --- independent validation -------------------------------------------

namespace {

/// Complete edge-level replay of Sigma_C: every transition is
/// re-classified by direct abstract execution (nothing recorded in the
/// certificate is trusted — only its ranking tuples are used, and those
/// are re-checked semantically on every edge), deadlocks are compared
/// point-wise, and when C declares init, compressed sources are shown
/// unreachable by a concrete BFS rather than via the invariant.
bool validate_mode_a(const gcl::SystemAst& c_ast, const gcl::SystemAst& a_ast,
                     const gcl::AlphaSpec& alpha, const RefinementCertificate& cert,
                     std::string* why) {
  const AlphaCtx ctx(c_ast, a_ast, alpha);
  const std::size_t n = c_ast.vars.size();
  const Packing pack(ctx.c_cards);
  const std::vector<std::size_t> all = gcl::all_vars(n);

  std::unordered_set<std::size_t> comp_sources;
  StateVec s, post, img_s, img_t;
  bool ok = true;
  std::string reason;
  gcl::for_each_valuation(all, ctx.c_cards, s, [&](const StateVec& sv) {
    bool has_move = false;
    for (const gcl::ActionAst& act : c_ast.actions) {
      if (!gcl::truthy(act.guard, sv)) continue;
      gcl::post_state(act, ctx.c_cards, sv, post);
      if (post == sv) continue;
      has_move = true;
      gcl::alpha_image(ctx.alpha, ctx.a, sv, img_s);
      gcl::alpha_image(ctx.alpha, ctx.a, post, img_t);
      if (img_s == img_t) {
        if (!a_is_deadlock(ctx, img_s) &&
            lex_edge(cert.stutter_components, sv, post) != -1) {
          ok = false;
          reason = "a live stutter step of " + act.name +
                   " does not decrease the stutter ranking";
          return false;
        }
        if (!cert.visible_components.empty() &&
            lex_edge(cert.visible_components, sv, post) == +1) {
          ok = false;
          reason = "a stutter step of " + act.name + " increases the visible ranking";
          return false;
        }
        continue;
      }
      if (find_direct_match(ctx, img_s, img_t) >= 0) {
        if (!cert.visible_components.empty() &&
            lex_edge(cert.visible_components, sv, post) == +1) {
          ok = false;
          reason = "an exact step of " + act.name + " increases the visible ranking";
          return false;
        }
        continue;
      }
      bool exhausted = false;
      const auto path = find_a_path(ctx, img_s, img_t, cert.budget, &exhausted);
      if (!path) {
        ok = false;
        reason = exhausted ? "an Invalid edge exists under " + act.name
                           : "abstract BFS cap hit replaying " + act.name;
        return false;
      }
      comp_sources.insert(pack.encode(sv));
      if (cert.visible_components.empty() ||
          lex_edge(cert.visible_components, sv, post) != -1) {
        ok = false;
        reason = "a compressed step of " + act.name +
                 " does not strictly decrease the visible ranking";
        return false;
      }
    }
    if (!has_move) {
      gcl::alpha_image(ctx.alpha, ctx.a, sv, img_s);
      if (!a_is_deadlock(ctx, img_s)) {
        ok = false;
        reason = "a C-deadlock maps to a live abstract state";
        return false;
      }
    }
    return true;
  });
  if (!ok) return reject(why, reason);

  if (!comp_sources.empty() && c_ast.init) {
    // reach(I_C) must avoid every compressed source (refinement_init
    // bans Compressed inside the init region; the region is
    // successor-closed, so source exclusion suffices).
    std::vector<char> seen(pack.total, 0);
    std::vector<std::size_t> queue;
    gcl::for_each_valuation(all, ctx.c_cards, s, [&](const StateVec& sv) {
      if (gcl::truthy(*c_ast.init, sv)) {
        const std::size_t id = pack.encode(sv);
        if (!seen[id]) {
          seen[id] = 1;
          queue.push_back(id);
        }
      }
      return true;
    });
    StateVec cur;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      if (comp_sources.count(queue[head]))
        return reject(why, "a compressed source is reachable from init");
      pack.decode(queue[head], ctx.c_cards, cur);
      for (const gcl::ActionAst& act : c_ast.actions) {
        if (!gcl::truthy(act.guard, cur)) continue;
        gcl::post_state(act, ctx.c_cards, cur, post);
        if (post == cur) continue;
        const std::size_t id = pack.encode(post);
        if (!seen[id]) {
          seen[id] = 1;
          queue.push_back(id);
        }
      }
    }
  }
  return true;
}

/// Symbolic re-derivation above the replay budget: every recorded
/// classification is re-discharged from validator-recomputed contexts,
/// enumerated actions are RE-ENUMERATED (the recomputed compressed rows
/// must equal the certificate's exactly — the BFS is deterministic, so
/// a dropped or forged row cannot hide), and all ranking, invariant and
/// deadlock legs are re-proved.
bool validate_mode_b(const gcl::SystemAst& c_ast, const gcl::SystemAst& a_ast,
                     const gcl::AlphaSpec& alpha, const RefinementCertificate& cert,
                     std::string* why) {
  const AlphaCtx ctx(c_ast, a_ast, alpha);
  const DecideOptions dopts{cert.budget};
  const std::size_t nc = c_ast.actions.size();
  const std::size_t n = c_ast.vars.size();
  const Expr not_dl = not_a_deadlock_expr(ctx);

  std::vector<Expr> guards(nc), changeds(nc);
  std::vector<std::vector<Expr>> sconjs(nc);
  std::vector<EnumRows> rows(nc);
  std::vector<CompressedRow> recomputed;
  for (std::size_t i = 0; i < nc; ++i) {
    const gcl::ActionAst& act = c_ast.actions[i];
    guards[i] = act.guard;
    changeds[i] = changed_expr(act, ctx.c_cards);
    sconjs[i] = stutter_conjuncts(ctx, i);
    switch (cert.action_class[i]) {
      case ActionClass::Vacuous: {
        const std::vector<const Expr*> cx = {&guards[i], &changeds[i]};
        if (!decide_unsat(c_ast, cx, {false, false}, dopts).proved)
          return reject(why, "vacuity of " + act.name + " cannot be re-established");
        break;
      }
      case ActionClass::Stutter: {
        for (const Expr& cj : sconjs[i]) {
          const std::vector<const Expr*> cx = {&guards[i], &changeds[i]};
          if (!decide_always(c_ast, cj, cx, {false, false}, dopts).proved)
            return reject(why, "stutter class of " + act.name +
                                   " cannot be re-established");
        }
        break;
      }
      case ActionClass::Exact: {
        const std::size_t bi = static_cast<std::size_t>(cert.matched[i]);
        for (const Expr& cj : match_conjuncts(ctx, i, bi)) {
          const std::vector<const Expr*> cx = {&guards[i], &changeds[i]};
          if (!decide_always(c_ast, cj, cx, {false, false}, dopts).proved)
            return reject(why, "exact match of " + act.name + " vs " +
                                   a_ast.actions[bi].name +
                                   " cannot be re-established");
        }
        break;
      }
      case ActionClass::Mixed: {
        const std::size_t bi = static_cast<std::size_t>(cert.matched[i]);
        std::vector<Expr> sc = sconjs[i];
        const Expr prop =
            make_binary(Op::Or, conj(std::move(sc)), conj(match_conjuncts(ctx, i, bi)));
        const std::vector<const Expr*> cx = {&guards[i], &changeds[i]};
        if (!decide_always(c_ast, prop, cx, {false, false}, dopts).proved)
          return reject(why, "mixed class of " + act.name +
                                 " cannot be re-established");
        break;
      }
      case ActionClass::Enumerated: {
        rows[i] = enumerate_action(ctx, i, cert.budget, cert.budget);
        if (rows[i].refuted) return reject(why, rows[i].refute_msg);
        if (!rows[i].fail.empty()) return reject(why, rows[i].fail);
        if (rows[i].fp != cert.enum_footprint[i])
          return reject(why, "enumeration footprint of " + act.name +
                                 " does not match the certificate");
        for (const CompressedRow& row : rows[i].compressed)
          recomputed.push_back(row);
        break;
      }
    }
  }
  if (recomputed.size() != cert.compressed.size())
    return reject(why, "compressed row count does not match re-enumeration");
  for (std::size_t k = 0; k < recomputed.size(); ++k)
    if (recomputed[k].source != cert.compressed[k].source ||
        recomputed[k].action != cert.compressed[k].action ||
        recomputed[k].a_path != cert.compressed[k].a_path)
      return reject(why, "compressed row " + std::to_string(k) +
                             " does not match re-enumeration");

  // Stutter ranking: symbolic ladders for Stutter/Mixed actions,
  // point-wise lexicographic strictness at every enumerated stutter row.
  for (std::size_t i = 0; i < nc; ++i) {
    if (cert.action_class[i] != ActionClass::Stutter &&
        cert.action_class[i] != ActionClass::Mixed)
      continue;
    const gcl::ActionAst& act = c_ast.actions[i];
    auto base_ctx = [&](ObCtx& cx) {
      cx.add(guards[i], false);
      cx.add(changeds[i], false);
      for (const Expr& cj : sconjs[i]) cx.add(cj, true);
      cx.add(not_dl, true);
    };
    if (cert.stutter_ranked_at[i] == kUnranked) {
      ObCtx cx;
      base_ctx(cx);
      if (!decide_unsat(c_ast, cx.ptrs, cx.drop, dopts).proved)
        return reject(why, "stutter exemption of " + act.name +
                               " cannot be re-established");
      continue;
    }
    const std::size_t site = cert.stutter_ranked_at[i];
    std::vector<Expr> deltas, ties;
    for (std::size_t j = 0; j <= site; ++j)
      deltas.push_back(delta_expr(cert.stutter_components[j].expr, act, ctx.c_cards));
    for (std::size_t j = 0; j <= site; ++j) {
      ObCtx cx;
      base_ctx(cx);
      for (const Expr& t : ties) cx.add(t, true);
      const bool strict = j == site;
      const Expr prop = make_binary(strict ? Op::Lt : Op::Le, deltas[j], make_const(0));
      if (!decide_always(c_ast, prop, cx.ptrs, cx.drop, dopts).proved)
        return reject(why, (strict ? std::string("strict stutter decrease of ")
                                   : std::string("stutter non-increase of ")) +
                               act.name + " at component " + std::to_string(j) +
                               " cannot be re-established");
      ties.push_back(make_binary(Op::Eq, deltas[j], make_const(0)));
    }
  }
  for (std::size_t i = 0; i < nc; ++i) {
    if (rows[i].stutter_rows.empty()) continue;
    std::vector<Expr> deltas;
    for (const RankTerm& c : cert.stutter_components) {
      Expr d = delta_expr(c.expr, c_ast.actions[i], ctx.c_cards);
      if (!subset_of(gcl::footprint(d, n), rows[i].fp))
        return reject(why, "a stutter-ranking delta reads outside the footprint of " +
                               c_ast.actions[i].name);
      deltas.push_back(std::move(d));
    }
    for (const StateVec& row : rows[i].stutter_rows)
      if (lex_point(deltas, row) != -1)
        return reject(why, "a stutter row of " + c_ast.actions[i].name +
                               " does not decrease the stutter ranking");
  }

  // Visible ranking: non-increase on every non-vacuous action, strict
  // point-wise decrease at every compressed row.
  if (!cert.compressed.empty() && cert.visible_components.empty())
    return reject(why, "compressed rows without a visible ranking");
  if (!cert.visible_components.empty()) {
    for (std::size_t i = 0; i < nc; ++i) {
      if (cert.action_class[i] == ActionClass::Vacuous) continue;
      std::vector<Expr> deltas, ties;
      for (const RankTerm& c : cert.visible_components)
        deltas.push_back(delta_expr(c.expr, c_ast.actions[i], ctx.c_cards));
      for (std::size_t j = 0; j < deltas.size(); ++j) {
        ObCtx cx;
        cx.add(guards[i], false);
        cx.add(changeds[i], false);
        for (const Expr& t : ties) cx.add(t, true);
        const Expr prop = make_binary(Op::Le, deltas[j], make_const(0));
        if (!decide_always(c_ast, prop, cx.ptrs, cx.drop, dopts).proved)
          return reject(why, "visible non-increase of " + c_ast.actions[i].name +
                                 " at component " + std::to_string(j) +
                                 " cannot be re-established");
        ties.push_back(make_binary(Op::Eq, deltas[j], make_const(0)));
      }
    }
    for (const CompressedRow& row : cert.compressed) {
      std::vector<Expr> deltas;
      for (const RankTerm& c : cert.visible_components) {
        Expr d = delta_expr(c.expr, c_ast.actions[row.action], ctx.c_cards);
        if (!subset_of(gcl::footprint(d, n), rows[row.action].fp))
          return reject(why,
                        "a visible-ranking delta reads outside the footprint of " +
                            c_ast.actions[row.action].name);
        deltas.push_back(std::move(d));
      }
      if (lex_point(deltas, row.source) != -1)
        return reject(why, "a compressed row of " + c_ast.actions[row.action].name +
                               " does not strictly decrease the visible ranking");
    }
  }

  // Reach exclusion.
  if (!cert.compressed.empty() && c_ast.init) {
    if (!cert.has_invariant || !alpha.invariant ||
        !expr_equal(cert.invariant, *alpha.invariant))
      return reject(why, "compressed rows with init but no binding alpha invariant");
    const Expr& inv = *alpha.invariant;
    const std::vector<const Expr*> init_conjs = gcl::conjuncts_of(*c_ast.init);
    const std::vector<const Expr*> inv_conjs = gcl::conjuncts_of(inv);
    for (const Expr* ic : inv_conjs) {
      std::vector<bool> drop(init_conjs.size(), true);
      if (!decide_always(c_ast, *ic, init_conjs, drop, dopts).proved)
        return reject(why, "an invariant conjunct is not implied by init");
    }
    for (std::size_t i = 0; i < nc; ++i) {
      if (cert.action_class[i] == ActionClass::Vacuous) continue;
      for (const Expr* ic : inv_conjs) {
        const Expr post = post_expr(*ic, c_ast.actions[i], ctx.c_cards);
        ObCtx cx;
        cx.add(guards[i], false);
        cx.add(changeds[i], false);
        for (const Expr* pc : inv_conjs) cx.add(*pc, true);
        if (!decide_always(c_ast, post, cx.ptrs, cx.drop, dopts).proved)
          return reject(why, "an invariant conjunct is not inductive under " +
                                 c_ast.actions[i].name);
      }
    }
    for (const CompressedRow& row : cert.compressed) {
      if (!subset_of(gcl::footprint(inv, n), rows[row.action].fp))
        return reject(why, "the invariant reads outside a compressed row's footprint");
      if (gcl::eval(inv, row.source) != 0)
        return reject(why, "the invariant does not exclude a compressed source");
    }
  }

  // Deadlock obligations with the stored supports.
  for (std::size_t bi = 0; bi < a_ast.actions.size(); ++bi) {
    const Expr fires = a_action_fires_expr(ctx, bi);
    const std::vector<const Expr*> acx = {&fires};
    if (cert.deadlock_support[bi].empty()) {
      if (!decide_unsat(c_ast, acx, {false}, dopts).proved)
        return reject(why, "empty deadlock support for " + a_ast.actions[bi].name +
                               " cannot be re-established");
      continue;
    }
    std::vector<Expr> fires_c;
    for (std::size_t i : cert.deadlock_support[bi])
      fires_c.push_back(make_binary(Op::And, guards[i], changeds[i]));
    const Expr prop = disj(std::move(fires_c));
    if (!decide_always(c_ast, prop, acx, {true}, dopts).proved)
      return reject(why, "deadlock support of " + a_ast.actions[bi].name +
                             " cannot be re-established");
  }
  return true;
}

}  // namespace

bool validate_refinement_certificate(const gcl::SystemAst& c_ast,
                                     const gcl::SystemAst& a_ast,
                                     const gcl::AlphaSpec& alpha,
                                     const RefinementCertificate& cert,
                                     std::string* why) {
  const std::size_t nc = c_ast.actions.size();
  const std::size_t na = a_ast.actions.size();
  const std::size_t n = c_ast.vars.size();
  if (cert.c_system != c_ast.name)
    return reject(why, "certificate concrete system does not match");
  if (cert.a_system != a_ast.name)
    return reject(why, "certificate abstract system does not match");
  if (cert.alpha_text != gcl::print_alpha(alpha))
    return reject(why, "certificate alpha does not match the requested map");
  if (cert.budget == 0) return reject(why, "certificate has no budget");
  if (cert.action_class.size() != nc || cert.matched.size() != nc ||
      cert.enum_footprint.size() != nc || cert.stutter_ranked_at.size() != nc)
    return reject(why, "certificate action tables do not match the system");
  if (cert.deadlock_support.size() != na)
    return reject(why, "certificate deadlock table does not match the abstraction");
  const std::vector<int> cards = gcl::cards_of(c_ast);
  for (std::size_t i = 0; i < nc; ++i) {
    const ActionClass c = cert.action_class[i];
    if (c == ActionClass::Exact || c == ActionClass::Mixed) {
      if (cert.matched[i] < 0 ||
          static_cast<std::size_t>(cert.matched[i]) >= na)
        return reject(why, "matched abstract action out of range");
    }
    if (cert.stutter_ranked_at[i] != kUnranked) {
      if (c != ActionClass::Stutter && c != ActionClass::Mixed)
        return reject(why, "stutter rank site on a non-stutter action");
      if (cert.stutter_ranked_at[i] >= cert.stutter_components.size())
        return reject(why, "stutter rank site out of range");
    }
  }
  for (const CompressedRow& row : cert.compressed) {
    if (row.action >= nc || cert.action_class[row.action] != ActionClass::Enumerated)
      return reject(why, "compressed row on a non-enumerated action");
    if (row.source.size() != n) return reject(why, "compressed row has a bad source");
    for (std::size_t v = 0; v < n; ++v)
      if (static_cast<int>(row.source[v]) >= cards[v])
        return reject(why, "compressed row source out of domain");
    if (row.a_path.empty()) return reject(why, "compressed row has an empty path");
    for (std::size_t b : row.a_path)
      if (b >= na) return reject(why, "compressed row path out of range");
  }
  for (const std::vector<std::size_t>& sup : cert.deadlock_support)
    for (std::size_t i : sup)
      if (i >= nc) return reject(why, "deadlock support out of range");

  const std::size_t total = gcl::valuation_count(gcl::all_vars(n), cards, cert.budget);
  if (total <= cert.budget)
    return validate_mode_a(c_ast, a_ast, alpha, cert, why);
  return validate_mode_b(c_ast, a_ast, alpha, cert, why);
}

// --- rendering --------------------------------------------------------

std::string format_refinement_certificate(const gcl::SystemAst& c_ast,
                                          const gcl::SystemAst& a_ast,
                                          const RefinementCertificate& cert) {
  std::ostringstream out;
  out << "refinement certificate: [" << cert.c_system << " refines " << cert.a_system
      << "]\n";
  for (std::size_t i = 0; i < cert.action_class.size(); ++i) {
    out << "  action " << c_ast.actions[i].name << ": "
        << action_class_name(cert.action_class[i]);
    if (cert.matched[i] >= 0 &&
        static_cast<std::size_t>(cert.matched[i]) < a_ast.actions.size())
      out << " -> " << a_ast.actions[static_cast<std::size_t>(cert.matched[i])].name;
    if (!cert.enum_footprint[i].empty()) {
      out << " over {";
      for (std::size_t k = 0; k < cert.enum_footprint[i].size(); ++k)
        out << (k ? ", " : "") << c_ast.vars[cert.enum_footprint[i][k]].name;
      out << "}";
    }
    if (cert.stutter_ranked_at[i] != kUnranked)
      out << ", stutter-strict at [" << cert.stutter_ranked_at[i] << "]";
    out << "\n";
  }
  out << "  stutter ranking (" << cert.stutter_components.size()
      << " component(s)):\n";
  for (std::size_t i = 0; i < cert.stutter_components.size(); ++i)
    out << "    [" << i << "] " << cert.stutter_components[i].pretty << "\n";
  if (!cert.visible_components.empty()) {
    out << "  visible ranking (" << cert.visible_components.size()
        << " component(s)):\n";
    for (std::size_t i = 0; i < cert.visible_components.size(); ++i)
      out << "    [" << i << "] " << cert.visible_components[i].pretty << "\n";
  }
  out << "  compressed rows: " << cert.compressed.size() << "\n";
  if (cert.has_invariant)
    out << "  invariant: " << gcl::print_expr(cert.invariant) << "\n";
  out << "  obligations (" << cert.obligations.size() << "):\n";
  for (const RefineObligation& o : cert.obligations) {
    out << "    " << refine_obligation_kind_name(o.kind);
    if (!o.action.empty()) out << " " << o.action;
    out << " via " << discharge_name(o.method);
    if (o.valuations > 0) out << " (" << o.valuations << " valuation(s))";
    if (!o.detail.empty()) out << " -- " << o.detail;
    out << "\n";
  }
  out << "  budget: " << cert.budget << "\n";
  return out.str();
}

std::string render_refinement_certificate_json(const RefinementCertificate& cert) {
  std::ostringstream out;
  out << "{\"type\": \"refinement_certificate\", \"concrete\": \""
      << gcl::json_escape(cert.c_system) << "\", \"abstract\": \""
      << gcl::json_escape(cert.a_system) << "\", \"actions\": [";
  for (std::size_t i = 0; i < cert.action_class.size(); ++i) {
    if (i) out << ", ";
    out << "{\"class\": \"" << action_class_name(cert.action_class[i])
        << "\", \"matched\": ";
    if (cert.matched[i] >= 0)
      out << cert.matched[i];
    else
      out << "null";
    out << ", \"stutter_ranked_at\": ";
    if (cert.stutter_ranked_at[i] == kUnranked)
      out << "null";
    else
      out << cert.stutter_ranked_at[i];
    out << "}";
  }
  out << "], \"stutter_components\": [";
  for (std::size_t i = 0; i < cert.stutter_components.size(); ++i)
    out << (i ? ", " : "") << "\"" << gcl::json_escape(cert.stutter_components[i].pretty)
        << "\"";
  out << "], \"visible_components\": [";
  for (std::size_t i = 0; i < cert.visible_components.size(); ++i)
    out << (i ? ", " : "") << "\"" << gcl::json_escape(cert.visible_components[i].pretty)
        << "\"";
  out << "], \"compressed_rows\": " << cert.compressed.size() << ", \"invariant\": ";
  if (cert.has_invariant)
    out << "\"" << gcl::json_escape(gcl::print_expr(cert.invariant)) << "\"";
  else
    out << "null";
  out << ", \"obligations\": [";
  for (std::size_t i = 0; i < cert.obligations.size(); ++i) {
    const RefineObligation& o = cert.obligations[i];
    if (i) out << ", ";
    out << "{\"kind\": \"" << refine_obligation_kind_name(o.kind)
        << "\", \"action\": \"" << gcl::json_escape(o.action)
        << "\", \"component\": " << o.component << ", \"method\": \""
        << discharge_name(o.method) << "\", \"valuations\": " << o.valuations
        << ", \"detail\": \"" << gcl::json_escape(o.detail) << "\"}";
  }
  out << "], \"budget\": " << cert.budget << "}\n";
  return out.str();
}

// --- serialization ----------------------------------------------------
//
// Line-oriented "refine-cert 1" blob (embedded in the service verdict
// cache). Expressions are stored as re-parseable GCL text over the
// concrete program's variables; the obligation audit trail is NOT
// serialized — the validator re-derives everything anyway.

std::string serialize_refinement_certificate(const RefinementCertificate& cert) {
  util::LineWriter w;
  w.line("refine-cert").num(1);
  w.line("c-system").word(cert.c_system);
  w.line("a-system").word(cert.a_system);
  w.line("budget").num(cert.budget);
  w.block("alpha", cert.alpha_text);
  w.line("actions").num(cert.action_class.size());
  for (std::size_t i = 0; i < cert.action_class.size(); ++i) {
    w.line("action").word(action_class_name(cert.action_class[i])).num(cert.matched[i]);
    if (cert.stutter_ranked_at[i] == kUnranked)
      w.word("-");
    else
      w.num(cert.stutter_ranked_at[i]);
    w.list(cert.enum_footprint[i]);
  }
  w.line("stutter-components").num(cert.stutter_components.size());
  for (const RankTerm& c : cert.stutter_components)
    w.line("scomp").word(gcl::print_expr(c.expr));
  w.line("visible-components").num(cert.visible_components.size());
  for (const RankTerm& c : cert.visible_components)
    w.line("vcomp").word(gcl::print_expr(c.expr));
  w.line("has-invariant").num(cert.has_invariant ? 1 : 0);
  if (cert.has_invariant) w.line("invariant").word(gcl::print_expr(cert.invariant));
  w.line("compressed").num(cert.compressed.size());
  for (const CompressedRow& row : cert.compressed)
    w.line("row").num(row.action).list(row.source).list(row.a_path);
  w.line("supports").num(cert.deadlock_support.size());
  for (const std::vector<std::size_t>& sup : cert.deadlock_support)
    w.line("support").list(sup);
  w.line("end");
  return w.take();
}

std::optional<RefinementCertificate> parse_refinement_certificate(
    const std::string& text, const gcl::SystemAst& c_ast) {
  static constexpr ActionClass kActionClasses[] = {ActionClass::Vacuous, ActionClass::Stutter,
                                                   ActionClass::Exact, ActionClass::Mixed,
                                                   ActionClass::Enumerated};
  util::LineReader r(text);
  RefinementCertificate cert;
  int version = 0;
  std::string cls, site;
  std::size_t n = 0;
  if (!r.line("refine-cert").num(version).ok() || version != 1) return std::nullopt;
  r.line("c-system").word(cert.c_system);
  r.line("a-system").word(cert.a_system);
  r.line("budget").num(cert.budget);
  r.block("alpha", cert.alpha_text);
  r.line("actions").num(n);
  for (; n > 0 && r.ok(); --n) {
    std::ptrdiff_t matched = 0;
    std::size_t ranked = kUnranked;
    r.line("action").word(cls).num(matched).word(site).list(cert.enum_footprint.emplace_back());
    const auto* c = std::find_if(std::begin(kActionClasses), std::end(kActionClasses),
                                 [&](ActionClass k) { return cls == action_class_name(k); });
    if (c == std::end(kActionClasses) || (site != "-" && !util::parse_number(site, ranked)))
      return std::nullopt;
    cert.action_class.push_back(*c);
    cert.matched.push_back(matched);
    cert.stutter_ranked_at.push_back(ranked);
  }
  auto read_terms = [&](const char* header, const char* item, std::vector<RankTerm>& terms) {
    r.line(header).num(n);
    for (; n > 0 && r.ok(); --n) {
      RankTerm& t = terms.emplace_back();
      if (r.line(item).rest(t.pretty).ok()) t.expr = gcl::parse_expr_over(t.pretty, c_ast);
    }
  };
  try {
    read_terms("stutter-components", "scomp", cert.stutter_components);
    read_terms("visible-components", "vcomp", cert.visible_components);
    r.line("has-invariant").num(cert.has_invariant);
    std::string inv;
    if (cert.has_invariant && r.line("invariant").rest(inv).ok())
      cert.invariant = gcl::parse_expr_over(inv, c_ast);
  } catch (const std::exception&) {
    return std::nullopt;  // an expression that does not parse over C's variables
  }
  r.line("compressed").num(n);
  for (; n > 0 && r.ok(); --n) {
    CompressedRow& row = cert.compressed.emplace_back();
    r.line("row").num(row.action).list(row.source).list(row.a_path);
  }
  r.line("supports").num(n);
  for (; n > 0 && r.ok(); --n) r.line("support").list(cert.deadlock_support.emplace_back());
  if (!r.line("end").finish()) return std::nullopt;
  return cert;
}

}  // namespace cref::prover
