#include "families.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/graph.hpp"
#include "fuzzing/generators.hpp"
#include "fuzzing/reference.hpp"
#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "gcl/pretty.hpp"
#include "service/hash.hpp"

namespace perfbench {

namespace {

std::string num(int v) { return std::to_string(v); }

std::string var(const char* stem, int j) { return stem + num(j); }

/// Declaration position i holds process order[i]: a rotation of the
/// ring, reflected when asked.
std::vector<int> decl_order(int n, const Variant& v) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = ((v.reflect ? v.rotation - i : v.rotation + i) % n + n) % n;
  return order;
}

std::string decls(const char* stem, int n, int card, const Variant& v) {
  std::string s;
  for (int j : decl_order(n, v)) s += "  var " + var(stem, j) + " : 0.." + num(card - 1) + ";\n";
  return s;
}

/// Privilege guard of process j in a K-state ring of n processes.
std::string kstate_priv(int n, int j) {
  return j == 0 ? "c0 == c" + num(n - 1) : var("c", j) + " != c" + num(j - 1);
}

/// The K-state move of process j (bottom increments, others copy).
std::string kstate_move(int j, int k) {
  return j == 0 ? "c0 := (c0 + 1) % " + num(k) : var("c", j) + " := c" + num(j - 1);
}

std::string all_equal(const char* stem, int n, int value) {
  std::string s;
  for (int j = 0; j < n; ++j) s += (j ? " && " : "") + var(stem, j) + " == " + num(value);
  return s;
}

/// c_j == shift + 1 below the token, shift from it on (mod k).
std::string staircase(int n, int k, const Variant& v) {
  std::string s;
  for (int j = 0; j < n; ++j)
    s += (j ? " && " : "") + var("c", j) + " == " + num((v.shift + (j < v.token)) % k);
  return s;
}

/// The 3-state rings differ only in the top process's guard.
std::string three_state_gcl(const std::string& name, int p, const std::string& top_guard,
                            const Variant& v) {
  const int t = p - 1;
  std::string s = "system " + name + " {\n" + decls("c", p, 3, v);
  s += "  action top @" + num(t) + " : " + top_guard + " -> c" + num(t) + " := (c" +
       num(t - 1) + " + 1) % 3;\n";
  s += "  action bottom @0 : c1 == (c0 + 1) % 3 -> c0 := (c1 + 1) % 3;\n";
  for (int j = 1; j < t; ++j) {
    s += "  action up" + num(j) + " @" + num(j) + " : c" + num(j - 1) + " == (c" + num(j) +
         " + 1) % 3 -> c" + num(j) + " := c" + num(j - 1) + ";\n";
    s += "  action down" + num(j) + " @" + num(j) + " : c" + num(j + 1) + " == (c" + num(j) +
         " + 1) % 3 -> c" + num(j) + " := c" + num(j + 1) + ";\n";
  }
  return s + "  init : " + staircase(p, 3, v) + ";\n}\n";
}

bool reference_verdict(const cref::fuzz::ReferenceVerdicts& v, Relation r) {
  switch (r) {
    case Relation::kRefinementInit: return v.refinement_init;
    case Relation::kEverywhere: return v.everywhere;
    case Relation::kConvergence: return v.convergence;
    case Relation::kEventually: return v.eventually;
    case Relation::kStabilizing: return v.stabilizing;
  }
  return false;
}

/// Brute-force verdicts of the pair (C, A) through the identity map.
cref::fuzz::ReferenceVerdicts reference(const std::string& c_src, const std::string& a_src) {
  cref::EngineOptions serial;
  serial.num_threads = 1;
  const cref::System c = cref::gcl::load_system(c_src);
  const cref::System a = cref::gcl::load_system(a_src);
  const cref::TransitionGraph cg = cref::TransitionGraph::build(c, serial);
  const cref::TransitionGraph ag = cref::TransitionGraph::build(a, serial);
  return cref::fuzz::reference_check(cg, ag, c.initial_states(), a.initial_states(), {});
}

double power(int base, int exp) { return std::pow(static_cast<double>(base), exp); }


bool has_work(Family f) {
  return f == Family::kWorkRing || f == Family::kWorkVsLoop || f == Family::kLoopVsWork;
}

bool three_state(Family f) { return f == Family::kDijkstra3 || f == Family::kNaive; }

/// Number of counter values a variant's shift ranges over.
int shift_range(const Slot& s) { return three_state(s.family) ? 3 : s.k; }

/// Every initial-state variant (shift, token, work shift) of a slot
/// under the given declaration order.
std::vector<Variant> init_variants(const Slot& s, int rotation, bool reflect) {
  std::vector<Variant> out;
  const int works = has_work(s.family) ? s.m : 1;
  for (int sh = 0; sh < shift_range(s); ++sh)
    for (int t = three_state(s.family) ? 1 : 0; t < s.n; ++t)
      for (int w = 0; w < works; ++w) out.push_back({rotation, reflect, sh, t, w});
  return out;
}

std::vector<Variant> all_variants(const Slot& s) {
  std::vector<Variant> out;
  for (int r = 0; r < s.n; ++r)
    for (bool f : {false, true}) {
      const std::vector<Variant> v = init_variants(s, r, f);
      out.insert(out.end(), v.begin(), v.end());
    }
  return out;
}

const char* family_name(Family f) {
  switch (f) {
    case Family::kKState: return "kstate";
    case Family::kDijkstra3: return "dijkstra3";
    case Family::kNaive: return "naive";
    case Family::kWorkRing: return "workring";
    case Family::kWorkVsLoop: return "workring-vs-looping";
    case Family::kLoopVsWork: return "looping-vs-workring";
    case Family::kRandom: return "random";
  }
  return "?";
}

}  // namespace

std::string kstate_gcl(int n, int k, const Variant& v) {
  std::string s = "system kstate {\n" + decls("c", n, k, v);
  for (int j = 0; j < n; ++j)
    s += "  action move" + num(j) + " @" + num(j) + " : " + kstate_priv(n, j) + " -> " +
         kstate_move(j, k) + ";\n";
  return s + "  init : " + staircase(n, k, v) + ";\n}\n";
}

std::string dijkstra3_gcl(int p, const Variant& v) {
  const std::string t = num(p - 1), below = num(p - 2);
  return three_state_gcl("dijkstra3", p,
                         "c" + below + " == c0 && (c" + below + " + 1) % 3 != c" + t, v);
}

std::string naive_gcl(int p, const Variant& v) {
  const std::string t = num(p - 1), below = num(p - 2);
  return three_state_gcl("naive_ring", p, "c" + below + " == (c" + t + " + 1) % 3", v);
}

std::string workring_gcl(int n, int k, int m, bool looping, const Variant& v) {
  std::string s = std::string("system ") + (looping ? "work_ring_looping" : "work_ring") + " {\n";
  s += decls("c", n, k, v) + decls("w", n, m, v);
  for (int j = 0; j < n; ++j) {
    const std::string w = var("w", j), at = " @" + num(j) + " : " + kstate_priv(n, j);
    s += "  action work" + num(j) + at +
         (looping ? " -> " + w + " := (" + w + " + 1) % " + num(m)
                  : " && " + w + " < " + num(m - 1) + " -> " + w + " := " + w + " + 1") +
         ";\n";
    s += "  action pass" + num(j) + at + " && " + w + " == " + num(m - 1) + " -> " +
         kstate_move(j, k) + ", " + w + " := 0;\n";
  }
  return s + "  init : " + staircase(n, k, v) + " && " + all_equal("w", n, v.work_shift % m) +
         ";\n}\n";
}

bool expected_holds(const Slot& s, Relation r) {
  const bool stabilizing = r == Relation::kStabilizing;
  switch (s.family) {
    case Family::kKState:
    case Family::kWorkRing:
    case Family::kWorkVsLoop:
      return !stabilizing || s.k >= s.n - 1;
    case Family::kDijkstra3:
      return true;
    case Family::kNaive:
      return !stabilizing;
    case Family::kLoopVsWork:
      return false;
    case Family::kRandom:
      break;
  }
  throw std::logic_error("expected_holds: random pairs have no table");
}

ServeJob make_job(const Slot& s, const Variant& v, Relation r, bool static_only) {
  ServeJob job;
  job.family = s.family;
  job.relation = r;
  job.static_only = static_only;
  job.holds = static_only || expected_holds(s, r);
  std::string params;
  switch (s.family) {
    case Family::kKState:
      job.c_src = job.a_src = kstate_gcl(s.n, s.k, v);
      params = "(n=" + num(s.n) + ",K=" + num(s.k) + ")";
      job.states = power(s.k, s.n);
      break;
    case Family::kDijkstra3:
    case Family::kNaive:
      job.c_src = job.a_src = s.family == Family::kNaive ? naive_gcl(s.n, v) : dijkstra3_gcl(s.n, v);
      params = "(p=" + num(s.n) + ")";
      job.states = power(3, s.n);
      break;
    case Family::kWorkRing:
    case Family::kWorkVsLoop:
    case Family::kLoopVsWork: {
      const std::string plain = workring_gcl(s.n, s.k, s.m, false, v);
      const std::string loop = workring_gcl(s.n, s.k, s.m, true, v);
      job.c_src = s.family == Family::kLoopVsWork ? loop : plain;
      job.a_src = s.family == Family::kWorkVsLoop ? loop : plain;
      params = "(n=" + num(s.n) + ",K=" + num(s.k) + ",m=" + num(s.m) + ")";
      job.states = power(s.k * s.m, s.n);
      break;
    }
    case Family::kRandom:
      throw std::logic_error("make_job: random pairs come from RandomPairs");
  }
  job.label = family_name(s.family) + params + "/r" + num(v.rotation) + (v.reflect ? "f" : "") +
              "s" + num(v.shift) + "t" + num(v.token) + "w" + num(v.work_shift);
  return job;
}

std::vector<std::string> confirm_tables() {
  // Smallest members, chosen to cover both sides of every K >= n - 1
  // boundary the tables state.
  const Slot members[] = {
      {Family::kKState, 3, 2, 0},     {Family::kKState, 4, 2, 0},
      {Family::kKState, 4, 3, 0},     {Family::kDijkstra3, 3, 0, 0},
      {Family::kDijkstra3, 4, 0, 0},  {Family::kNaive, 3, 0, 0},
      {Family::kNaive, 4, 0, 0},      {Family::kWorkRing, 3, 2, 2},
      {Family::kWorkRing, 4, 2, 2},   {Family::kWorkVsLoop, 3, 2, 2},
      {Family::kWorkVsLoop, 4, 2, 2}, {Family::kLoopVsWork, 3, 2, 2},
  };
  std::vector<std::string> disagreements;
  for (const Slot& s : members) {
    // Rotation and reflection only relabel states; one rotated,
    // reflected variant stands for them.
    std::vector<Variant> variants = init_variants(s, 0, false);
    variants.push_back({s.n - 1, true, 1, three_state(s.family) ? 2 : 1, 1});
    for (const Variant& v : variants) {
      const ServeJob base = make_job(s, v, Relation::kRefinementInit);
      const cref::fuzz::ReferenceVerdicts ref = reference(base.c_src, base.a_src);
      for (Relation r : cref::service::kAllRelations) {
        const bool want = expected_holds(s, r);
        if (reference_verdict(ref, r) != want)
          disagreements.push_back(base.label + " " + cref::service::to_string(r) +
                                  ": table says " + (want ? "holds" : "fails") +
                                  ", reference says " + (want ? "fails" : "holds"));
      }
    }
  }
  return disagreements;
}

VariantPool::VariantPool(const Slot& s, std::uint64_t seed) : variants_(all_variants(s)) {
  std::mt19937_64 rng(seed);
  std::shuffle(variants_.begin(), variants_.end(), rng);
}

bool VariantPool::next(Variant& out) {
  if (variants_.empty()) return false;
  out = variants_.back();
  variants_.pop_back();
  return true;
}

ServeJob RandomPairs::next() {
  for (;;) {
    const cref::gcl::SystemAst a = cref::fuzz::random_gcl_system(rng_);
    const cref::gcl::SystemAst c = cref::fuzz::mutate_gcl_system(a, rng_);
    ServeJob job;
    job.family = Family::kRandom;
    job.relation = cref::service::kAllRelations[rng_() % 5];
    job.c_src = cref::gcl::print_system(c);
    job.a_src = cref::gcl::print_system(a);
    // Distinct cache keys: the key is structural, so compare digests.
    const std::string key =
        cref::service::job_key(cref::service::hash_gcl(cref::gcl::parse(job.c_src)),
                               cref::service::hash_gcl(cref::gcl::parse(job.a_src)),
                               cref::service::hash_alpha({}), job.relation)
            .hex();
    if (!seen_.insert(key).second) continue;
    job.label = "random#" + key.substr(0, 8);
    job.states = 1;
    for (const auto& v : c.vars) job.states *= v.cardinality;
    job.holds = reference_verdict(reference(job.c_src, job.a_src), job.relation);
    return job;
  }
}

}  // namespace perfbench
