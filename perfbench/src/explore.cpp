// explore-large: one client runs OnTheFlyChecker (4 engine threads) in
// a loop on the GCL work ring with 4 processes, K = 5, m = 8
// (40^4 = 2.56e6 states), against the 4-process K-state spec through
// the lazy forget-work abstraction. Each round runs, in a seeded order,
// the two relations that must HOLD (convergence, everywhere-eventually)
// and the looping-work convergence check that must FAIL with a
// divergence witness.

#include <algorithm>
#include <filesystem>
#include <optional>
#include <random>
#include <stdexcept>
#include <tuple>
#include <unistd.h>

#include "bench.hpp"
#include "core/abstraction.hpp"
#include "families.hpp"
#include "fuzzing/reference.hpp"
#include "gcl/compile.hpp"
#include "layers.hpp"
#include "refinement/onthefly.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using cref::service::Relation;

constexpr int kProcs = 4, kK = 5, kM = 8;

/// Forget-work: the K-state image is the c-part, the first n variables.
void forget_work(const cref::StateVec& c, cref::StateVec& a) {
  a.assign(c.begin(), c.begin() + kProcs);
}

struct ExploreJob {
  const char* name;
  bool looping;
  Relation relation;
  bool holds;
};

constexpr ExploreJob kJobs[] = {
    {"workring convergence", false, Relation::kConvergence, true},
    {"workring eventually", false, Relation::kEventually, true},
    {"looping-workring convergence", true, Relation::kConvergence, false},
};

/// True iff `w` is a cycle of C-edges that all stutter under alpha —
/// checked with successor generation alone, not with the engine.
bool is_stutter_cycle(const cref::System& c, const cref::Abstraction& alpha, const cref::Trace& w) {
  const std::vector<cref::StateId>& s = w.states;
  if (s.size() < 2) return false;
  auto stutter_edge = [&](cref::StateId u, cref::StateId v) {
    const std::vector<cref::StateId> succ = c.successors(u);
    return std::binary_search(succ.begin(), succ.end(), v) && alpha.apply(u) == alpha.apply(v);
  };
  for (std::size_t i = 0; i + 1 < s.size(); ++i)
    if (!stutter_edge(s[i], s[i + 1])) return false;
  return s.front() == s.back() || stutter_edge(s.back(), s.front());
}

class ExploreLarge : public Workload {
 public:
  explicit ExploreLarge(const Options& o) : opts_(o), rng_(o.seed) {}

  void setup() override {
    confirm_small_members();
    c_src_ = workring_gcl(kProcs, kK, kM, false);
    loop_src_ = workring_gcl(kProcs, kK, kM, true);
    a_src_ = kstate_gcl(kProcs, kK);
    c_.emplace(cref::gcl::load_system(c_src_));
    loop_.emplace(cref::gcl::load_system(loop_src_));
    a_.emplace(cref::gcl::load_system(a_src_));
    eo_.num_threads = 4;
  }

  LoopResult run(double seconds, int pass) override {
    LoopResult out;
    const double t0 = now_ms();
    std::int64_t id = pass * kPassStride;
    // Whole rounds only, so every run weighs the three jobs equally.
    do {
      std::vector<const ExploreJob*> round;
      for (const ExploreJob& j : kJobs) round.push_back(&j);
      std::shuffle(round.begin(), round.end(), rng_);
      for (const ExploreJob* job : round) out.jobs.push_back(run_one(*job, id++));
    } while (now_ms() - t0 < seconds * 1000.0);
    out.elapsed_s = (now_ms() - t0) / 1000.0;
    return out;
  }

  LayerResult layer_pass(int pass) override {
    LayerResult out;
    const std::string dir = opts_.out_dir + "/explore-large-layers-" +
                            std::to_string(::getpid()) + "-" + std::to_string(pass);
    std::filesystem::remove_all(dir);
    {
      LayerCaches caches(dir);
      std::int64_t id = pass * kPassStride;
      for (const ExploreJob& j : kJobs) {
        // The explicit layers (graph build, explicit engine,
        // certificate, cache) run on the holding convergence job only.
        const bool explicit_layers = &j == &kJobs[0];
        LayerJob lj{j.looping ? loop_src_ : c_src_, a_src_, j.relation, j.holds, false,
                    explicit_layers, forget_work};
        const std::vector<std::string> wrong = run_layers(lj, id, eo_, caches);
        for (const std::string& w : wrong)
          report_failure("explore-large", id, std::string(j.name) + ": " + w);
        ++out.jobs;
        out.wrong += wrong.empty() ? 0 : 1;
        ++id;
      }
    }
    std::filesystem::remove_all(dir);
    return out;
  }

 private:
  /// E20's verdicts, re-derived by the brute-force reference on the
  /// smallest members (64 to 256 states onto 8 to 16).
  void confirm_small_members() {
    for (auto [n, k, m] : {std::tuple{3, 2, 2}, {3, 3, 2}, {4, 2, 2}}) {
      const cref::System a = cref::gcl::load_system(kstate_gcl(n, k));
      const cref::TransitionGraph ag = cref::TransitionGraph::build(a, serial());
      for (const ExploreJob& j : kJobs) {
        const cref::System c = cref::gcl::load_system(workring_gcl(n, k, m, j.looping));
        std::vector<cref::StateId> table(c.space().size());
        cref::StateVec cv, av;
        for (cref::StateId s = 0; s < table.size(); ++s) {
          c.space().decode_into(s, cv);
          av.assign(cv.begin(), cv.begin() + n);
          table[s] = a.space().encode(av);
        }
        const cref::fuzz::ReferenceVerdicts v = cref::fuzz::reference_check(
            cref::TransitionGraph::build(c, serial()), ag, c.initial_states(),
            a.initial_states(), table);
        const bool got = j.relation == Relation::kConvergence ? v.convergence : v.eventually;
        if (got != j.holds)
          throw std::runtime_error(std::string("table: ") + j.name + " at n=" +
                                   std::to_string(n) + ": reference says " +
                                   (got ? "holds" : "fails"));
      }
    }
  }

  static cref::EngineOptions serial() {
    cref::EngineOptions eo;
    eo.num_threads = 1;
    return eo;
  }

  JobRecord run_one(const ExploreJob& job, std::int64_t id) {
    JobRecord rec;
    const cref::System& c = job.looping ? *loop_ : *c_;
    std::string what;
    {
      ScopedSpan js("client.job", id);
      try {
        cref::Abstraction alpha =
            cref::Abstraction::lazy("forget-work", c.space_ptr(), a_->space_ptr(), forget_work);
        const cref::OnTheFlyChecker checker(c, *a_, alpha, eo_);
        cref::CheckResult r;
        const double start = now_ms();
        {
          ScopedSpan s("client.relation", id);
          r = job.relation == Relation::kConvergence ? checker.convergence_refinement()
                                                     : checker.everywhere_eventually_refinement();
        }
        rec.latency_ms = now_ms() - start;
        if (r.holds != job.holds)
          what = std::string("verdict ") + (r.holds ? "holds" : "fails") + ", expected " +
                 (job.holds ? "holds" : "fails") + (r.reason.empty() ? "" : " (" + r.reason + ")");
        else if (!r.holds && !is_stutter_cycle(c, alpha, r.witness))
          what = "witness is not a divergence (stutter) cycle: " + r.reason;
      } catch (const std::exception& e) {
        what = std::string("threw: ") + e.what();
      }
    }
    rec.done_ms = now_ms();
    rec.failed = !what.empty();
    if (rec.failed) report_failure("explore-large", id, std::string(job.name) + ": " + what);
    return rec;
  }

  Options opts_;
  std::mt19937_64 rng_;
  std::string c_src_, loop_src_, a_src_;
  std::optional<cref::System> c_, loop_, a_;
  cref::EngineOptions eo_;
};

}  // namespace

std::unique_ptr<Workload> make_explore_large(const Options& o) {
  return std::make_unique<ExploreLarge>(o);
}

}  // namespace perfbench
