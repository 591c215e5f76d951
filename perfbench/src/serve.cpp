// serve-cold and serve-warm: four client threads in a closed loop
// against one long-lived CheckService (engine.num_threads = 1, as in
// run_batch). Each client submits source text (Job::from_gcl) and
// sends its next job when the last one returns.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "families.hpp"
#include "layers.hpp"
#include "service/service.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace svc = cref::service;

constexpr int kClients = 4;

/// The answer bytes a warm hit must reproduce.
struct Answer {
  bool holds = false;
  std::string reason;
  std::vector<cref::StateId> witness;
  bool operator==(const Answer&) const = default;
};

Answer answer_of(const svc::JobOutcome& o) {
  return {o.result.holds, o.result.reason, o.result.witness.states};
}

/// Checks one outcome against its expected answer; empty = correct.
std::string judge(const ServeJob& job, const svc::JobOutcome& o) {
  const cref::CheckResult& r = o.result;
  if (r.reason.rfind("service:", 0) == 0) return "service error: " + r.reason;
  if (r.holds != job.holds)
    return std::string("verdict ") + (r.holds ? "holds" : "fails") + ", expected " +
           (job.holds ? "holds" : "fails") + (r.reason.empty() ? "" : " (" + r.reason + ")");
  if (r.holds && !r.witness.empty()) return "a holding verdict carries a witness";
  if (!r.holds && r.reason.empty()) return "a failing verdict carries no reason";
  if (job.static_only && r.reason.rfind("statically certified", 0) != 0)
    return "not served by the static prover: " + r.reason;
  return {};
}

std::string job_name(const ServeJob& j) {
  return j.label + " " + svc::to_string(j.relation);
}

/// State shared by both serve workloads: the service, the job list the
/// clients index into, and the closed client loop.
class ServeBase : public Workload {
 protected:
  ServeBase(const Options& o, const char* name) : opts_(o), name_(name) {}

  svc::ServiceOptions service_options() const {
    svc::ServiceOptions so;
    so.engine.num_threads = 1;
    return so;
  }

  /// Runs the closed loop over request indices `order` (into jobs_)
  /// until `seconds` pass or the order is used up, and in any case
  /// until the first `prefix` requests are done; the peak RSS is read
  /// when they are. Jobs finishing after the window are checked but not
  /// timed. With `cold` (indexed by key), an answer must also equal the
  /// cold answer of its key; with `answers`, each request's answer is
  /// stored there (by position in `order`).
  LoopResult loop(const std::vector<std::size_t>& order, double seconds, int pass,
                  std::size_t prefix = 0, const std::vector<Answer>* cold = nullptr,
                  std::vector<Answer>* answers = nullptr) {
    LoopResult out;
    std::vector<JobRecord> records(order.size());
    std::vector<char> done(order.size(), 0);
    if (answers) answers->assign(order.size(), Answer{});
    prefix = std::min(prefix, order.size());
    std::atomic<std::size_t> next{0}, prefix_left{prefix};
    const svc::CheckService::Stats before = service_->stats();
    const double t0 = now_ms();
    const double deadline = t0 + seconds * 1000.0;
    auto client = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= order.size() || (i >= prefix && now_ms() >= deadline)) return;
        const ServeJob& job = jobs_[order[i]];
        const std::int64_t id = static_cast<std::int64_t>(i);
        JobRecord& rec = records[i];
        std::string what;
        const double start = now_ms();
        {
          ScopedSpan js("client.job", id);
          try {
            std::optional<svc::Job> j;
            {
              ScopedSpan s("client.from_gcl", id);
              j = svc::Job::from_gcl(job.relation, job.c_src, job.a_src);
            }
            svc::JobOutcome o;
            {
              ScopedSpan s("client.service_run", id);
              o = service_->run(*j);
              s.set_value(o.cache_hit ? 1 : 0);
            }
            rec.latency_ms = now_ms() - start;
            rec.cache_hit = o.cache_hit;
            rec.built = o.build_ms > 0;
            rec.c_side = j->c_digest.hex();
            rec.a_side = j->a_digest.hex();
            what = judge(job, o);
            if (what.empty() && cold && !(answer_of(o) == (*cold)[order[i]]))
              what = "warm answer bytes differ from the cold answer";
            if (answers) (*answers)[i] = answer_of(o);
          } catch (const std::exception& e) {
            rec.latency_ms = now_ms() - start;
            what = std::string("threw: ") + e.what();
          }
        }
        rec.done_ms = now_ms();
        rec.late = rec.done_ms > deadline;
        rec.failed = !what.empty();
        if (rec.failed) report_failure(name_, id + pass * kPassStride, job_name(job) + ": " + what);
        done[i] = 1;
        if (i < prefix && prefix_left.fetch_sub(1) == 1) out.rss_mb = peak_rss_mb();
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
    double last = t0;
    for (std::size_t i = 0; i < order.size(); ++i)
      if (done[i]) {
        out.jobs.push_back(records[i]);
        last = std::max(last, records[i].done_ms);
      }
    out.elapsed_s = (std::min(last, deadline) - t0) / 1000.0;
    out.validation_failures = service_->stats().validation_failures - before.validation_failures;
    if (Tracer::get().enabled()) {
      ScopedSpan v("service.validation_failures");
      v.set_value(static_cast<double>(out.validation_failures));
      ScopedSpan d("service.duplicate_builds");
      d.set_value(static_cast<double>(duplicate_builds(out.jobs)));
    }
    return out;
  }

  /// Jobs that reported a side build although every side they name was
  /// already built by an earlier-finishing job.
  static std::size_t duplicate_builds(std::vector<JobRecord> jobs) {
    std::sort(jobs.begin(), jobs.end(),
              [](const JobRecord& a, const JobRecord& b) { return a.done_ms < b.done_ms; });
    std::set<std::string> built;
    std::size_t dup = 0;
    for (const JobRecord& j : jobs) {
      if (!j.built) continue;
      if (built.count(j.c_side) && built.count(j.a_side)) ++dup;
      built.insert(j.c_side);
      built.insert(j.a_side);
    }
    return dup;
  }

  /// Layer pass over the given jobs.
  LayerResult layers_over(const std::vector<std::size_t>& indices, int pass) {
    LayerResult out;
    const std::string dir = opts_.out_dir + "/" + name_ + "-layers-" +
                            std::to_string(::getpid()) + "-" + std::to_string(pass);
    std::filesystem::remove_all(dir);
    {
      LayerCaches caches(dir);
      cref::EngineOptions eo;
      eo.num_threads = 1;
      for (std::size_t k = 0; k < indices.size(); ++k) {
        const ServeJob& j = jobs_[indices[k]];
        LayerJob lj{j.c_src, j.a_src, j.relation, j.holds, j.static_only, true, {}};
        const std::int64_t id = pass * kPassStride + static_cast<std::int64_t>(k);
        const std::vector<std::string> wrong = run_layers(lj, id, eo, caches);
        for (const std::string& w : wrong) report_failure(name_, id, job_name(j) + ": " + w);
        ++out.jobs;
        out.wrong += wrong.empty() ? 0 : 1;
      }
    }
    std::filesystem::remove_all(dir);
    return out;
  }

  Options opts_;
  const char* name_;
  std::vector<ServeJob> jobs_;
  std::unique_ptr<svc::CheckService> service_;
};

/// The band: ring pairs of 10^4..3.3*10^4 states, each asked under all
/// five relations, covering both verdicts of every family (K < n - 1
/// makes the K-state and work rings non-stabilizing).
const Slot kBand[] = {
    // The first nine are serve-warm's key pairs.
    {Family::kKState, 3, 30, 0},     {Family::kKState, 5, 8, 0},
    {Family::kKState, 7, 4, 0},      {Family::kWorkRing, 3, 5, 6},
    {Family::kWorkRing, 4, 2, 5},    {Family::kWorkVsLoop, 3, 4, 8},
    {Family::kLoopVsWork, 3, 4, 6},  {Family::kDijkstra3, 9, 0, 0},
    {Family::kNaive, 9, 0, 0},       {Family::kKState, 4, 12, 0},
    {Family::kWorkRing, 4, 3, 4},
};
constexpr Slot kTail{Family::kKState, 7, 7, 0};      // 823,543 states
constexpr Slot kStatic{Family::kWorkRing, 5, 5, 8};  // 1.024e8 states, prover only
constexpr int kRandomPerBlock = 5;
constexpr int kTailEvery = 4;  // blocks per tail pair
constexpr int kColdBlocks = 100;  // ~6,100 jobs: twice what 20 s take on 4 vCPUs
// serve-cold's peak RSS is read once the jobs of the first kRssBlocks
// blocks (~1,270 jobs, ~13 s on 4 vCPUs) are done, and the loop always
// runs that far: the graph store never evicts, so a reading at the
// window's end would grow with throughput.
constexpr int kRssBlocks = 20;

/// Hands out each slot's variants once, in a seeded order.
class Variants {
 public:
  explicit Variants(std::uint64_t seed) : seed_(seed) {}
  bool next(const Slot& s, Variant& v) {
    const std::string key = std::to_string(static_cast<int>(s.family)) + "/" +
                            std::to_string(s.n) + "/" + std::to_string(s.k) + "/" +
                            std::to_string(s.m);
    auto it = pools_.find(key);
    if (it == pools_.end()) it = pools_.emplace(key, VariantPool(s, seed_ + pools_.size())).first;
    return it->second.next(v);
  }

 private:
  std::uint64_t seed_;
  std::map<std::string, VariantPool> pools_;
};

/// The five jobs of one pair, in a seeded relation order.
void add_pair(const Slot& s, const Variant& v, std::mt19937_64& rng, std::vector<ServeJob>& out) {
  std::vector<Relation> rels(std::begin(cref::service::kAllRelations),
                             std::end(cref::service::kAllRelations));
  std::shuffle(rels.begin(), rels.end(), rng);
  for (Relation r : rels) out.push_back(make_job(s, v, r));
}

// ------------------------------------------------------------ serve-cold

/// Every key distinct, so every job misses. Jobs come in blocks: each
/// band pair under all five relations (adjacent, so concurrent clients
/// race on the pair's side build), five random pairs and one prover-only
/// ~10^8-state identity convergence job; every kTailEvery-th block also
/// carries the ~10^6-state tail pair. The seed picks the variants, the
/// random pairs and every order.
class ServeCold : public ServeBase {
 public:
  explicit ServeCold(const Options& o) : ServeBase(o, "serve-cold") {}

  void setup() override {
    for (const std::string& d : confirm_tables()) throw std::runtime_error("table: " + d);
    Variants variants(opts_.seed);
    RandomPairs random(opts_.seed);
    std::mt19937_64 rng(opts_.seed ^ 0x9e3779b97f4a7c15ull);
    for (int b = 0; b < kColdBlocks; ++b) {
      std::vector<Slot> slots(std::begin(kBand), std::end(kBand));
      if (b % kTailEvery == kTailEvery - 1) slots.push_back(kTail);
      std::shuffle(slots.begin(), slots.end(), rng);
      std::vector<ServeJob> block;
      Variant v;
      bool full = true;
      for (const Slot& s : slots) {
        if (!(full = variants.next(s, v))) break;
        add_pair(s, v, rng, block);
      }
      if (!full || !variants.next(kStatic, v)) break;
      block.push_back(make_job(kStatic, v, Relation::kConvergence, /*static_only=*/true));
      for (int r = 0; r < kRandomPerBlock; ++r) {
        const auto at = static_cast<std::ptrdiff_t>(rng() % (block.size() + 1));
        block.insert(block.begin() + at, random.next());
      }
      jobs_.insert(jobs_.end(), block.begin(), block.end());
      if (b + 1 == kRssBlocks) rss_prefix_ = jobs_.size();
    }
    order_.resize(jobs_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    service_ = std::make_unique<svc::CheckService>(service_options());
  }

  LoopResult run(double seconds, int pass) override {
    if (pass > 0) service_ = std::make_unique<svc::CheckService>(service_options());
    LoopResult r = loop(order_, seconds, pass, rss_prefix_);
    if (r.jobs.size() == order_.size())
      std::fprintf(stderr, "%s: job list used up before the window closed\n", name_);
    return r;
  }

  LayerResult layer_pass(int pass) override {
    // Every fifth job of the first block, the block's random pairs, and
    // its prover-only job.
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i].static_only) {
        idx.push_back(i);
        break;
      }
      if (jobs_[i].family == Family::kRandom || i % 5 == 0) idx.push_back(i);
    }
    return layers_over(idx, pass);
  }

 private:
  std::vector<std::size_t> order_;
  std::size_t rss_prefix_ = 0;
};

// ------------------------------------------------------------ serve-warm

/// ~50 distinct keys: nine band pairs under all five relations plus five
/// random pairs. Set-up answers each key once; the LRU holds fewer
/// entries than there are keys and a disk store backs it, so hits come
/// from memory and (for the least popular keys) from disk, and every hit
/// revalidates its certificate.
/// Requests follow a fixed Zipf(1) popularity over the keys, replayed
/// as a deterministic cycle (key of rank r appears round(kCycle / r)
/// times) whose order the seed shuffles anew each cycle.
class ServeWarm : public ServeBase {
 public:
  explicit ServeWarm(const Options& o) : ServeBase(o, "serve-warm") {}

  ~ServeWarm() override {
    service_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  void setup() override {
    for (const std::string& d : confirm_tables()) throw std::runtime_error("table: " + d);
    Variants variants(opts_.seed);
    RandomPairs random(opts_.seed);
    std::mt19937_64 rng(opts_.seed ^ 0xc2b2ae3d27d4eb4full);
    for (std::size_t i = 0; i < kWarmPairs; ++i) {
      Variant v;
      variants.next(kBand[i], v);
      for (Relation r : cref::service::kAllRelations) jobs_.push_back(make_job(kBand[i], v, r));
    }
    for (int i = 0; i < kRandomPerBlock; ++i) jobs_.push_back(random.next());

    // Popularity ranks come from a fixed permutation of the keys, so a
    // key's popularity is a property of its slot and relation, not of
    // the seed.
    std::vector<std::size_t> by_rank(jobs_.size());
    for (std::size_t k = 0; k < by_rank.size(); ++k) by_rank[k] = k;
    std::shuffle(by_rank.begin(), by_rank.end(), std::mt19937_64(kRankSeed));
    std::vector<std::size_t> cycle;
    for (std::size_t r = 0; r < by_rank.size(); ++r) {
      const auto copies = static_cast<std::size_t>(std::lround(kCycle / static_cast<double>(r + 1)));
      cycle.insert(cycle.end(), std::max<std::size_t>(copies, 1), by_rank[r]);
    }
    while (requests_.size() < 200000) {
      std::shuffle(cycle.begin(), cycle.end(), rng);
      requests_.insert(requests_.end(), cycle.begin(), cycle.end());
    }
    popular_.assign(by_rank.begin(), by_rank.begin() + 20);

    dir_ = opts_.out_dir + "/serve-warm-cache-" + std::to_string(::getpid()) + "-" +
           std::to_string(instance_++);
    std::filesystem::remove_all(dir_);
    svc::ServiceOptions so = service_options();
    so.cache_capacity = kWarmCapacity;
    so.cache_dir = dir_;
    service_ = std::make_unique<svc::CheckService>(so);

    // Answer every key once; these cold bytes are what warm hits must
    // reproduce.
    std::vector<std::size_t> once(jobs_.size());
    for (std::size_t i = 0; i < once.size(); ++i) once[i] = i;
    const LoopResult fill = loop(once, 1e9, 0, 0, nullptr, &cold_);
    for (const JobRecord& r : fill.jobs)
      if (r.failed) setup_failures_.push_back("cold answer of a serve-warm key is wrong");
  }

  LoopResult run(double seconds, int pass) override {
    return loop(requests_, seconds, pass, 0, &cold_);
  }

  LayerResult layer_pass(int pass) override { return layers_over(popular_, pass); }

 private:
  static constexpr std::size_t kWarmPairs = 9;
  static constexpr double kCycle = 50;
  // 40 of the 50 keys fit in memory: the ~5 % of requests for the
  // least popular keys hit the disk store (the tail), while the median
  // request stays a memory hit instead of straddling the two paths.
  static constexpr std::size_t kWarmCapacity = 40;
  static constexpr std::uint64_t kRankSeed = 20020702;

  static inline int instance_ = 0;
  std::vector<std::size_t> requests_, popular_;
  std::vector<Answer> cold_;  // by key: the bytes a warm hit must reproduce
  std::string dir_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_cold(const Options& o) { return std::make_unique<ServeCold>(o); }
std::unique_ptr<Workload> make_serve_warm(const Options& o) { return std::make_unique<ServeWarm>(o); }

}  // namespace perfbench
