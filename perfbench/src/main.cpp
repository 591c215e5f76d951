// perfbench: the repository benchmark.
//
//   perfbench --workload serve-cold|serve-warm|explore-large --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// Untraced (--trace 0), prints the end-to-end metrics of one workload:
// setup_s (median over five rounds of a round's mean set-up time),
// jobs_per_s, latency_p50_ms, latency_p99_ms and peak_rss_mb. Traced
// (--trace 1), it runs the timed loop three times for S/2 seconds each —
// warm-up, traced, untraced (the last two's throughput ratio is the
// tracing overhead) — then takes a
// fixed job list apart layer by layer twice, derives every per-layer
// metric from the spans, checks that the work counts repeat exactly, and
// writes the spans to DIR/trace-<workload>-seed<N>.jsonl.
//
// Every verdict is checked against an expected answer that does not
// come from the engine under test; each wrong one is printed to stderr.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

// Set-up runs in kSetupRounds rounds; a round repeats the set-up until
// it has taken kMinRoundS seconds (at least once), and setup_s is the
// median of the rounds' mean set-up times. A set-up of a few
// milliseconds, whose single timings swing with the machine's slow and
// fast spells, is thus averaged over dozens, while the round that starts
// the process cannot move the median alone.
constexpr int kSetupRounds = 5;
constexpr double kMinRoundS = 0.4;

/// The highest percentile <= 99 with at least ten samples above it.
/// Below 20 samples that percentile would fall under the median, so
/// the maximum is reported instead.
struct Tail {
  double value = 0, percentile = 100;
};
Tail tail_latency(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t i = n - 1;
  if (n >= 20) {
    const auto p99 = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
    i = std::min(p99, n - 11);
  }
  return {v[i], 100.0 * static_cast<double>(i + 1) / static_cast<double>(n)};
}

/// Latencies of the jobs that finished inside the window.
std::vector<double> latencies(const LoopResult& r) {
  std::vector<double> v;
  for (const JobRecord& j : r.jobs)
    if (!j.late) v.push_back(j.latency_ms);
  return v;
}

std::size_t failures(const LoopResult& r) {
  return static_cast<std::size_t>(
      std::count_if(r.jobs.begin(), r.jobs.end(), [](const JobRecord& j) { return j.failed; }));
}

double rate(const LoopResult& r) {
  return r.elapsed_s > 0 ? static_cast<double>(latencies(r).size()) / r.elapsed_s : 0;
}

double hit_share(const LoopResult& r) {
  if (r.jobs.empty()) return 0;
  const auto hits =
      std::count_if(r.jobs.begin(), r.jobs.end(), [](const JobRecord& j) { return j.cache_hit; });
  return static_cast<double>(hits) / static_cast<double>(r.jobs.size());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

bool parse_args(int argc, char** argv, Options& o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      o.trace = value == "1";
    } else if (flag == "--out") {
      o.out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && o.seconds > 0;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "serve-cold") return make_serve_cold(o);
  if (o.workload == "serve-warm") return make_serve_warm(o);
  if (o.workload == "explore-large") return make_explore_large(o);
  return nullptr;
}

int run(const Options& o) {
  std::filesystem::create_directories(o.out_dir);

  // Set-up from scratch each time; the last instance is measured. The
  // first round is timed from process start.
  std::vector<double> rounds;
  std::size_t setups = 0;
  std::unique_ptr<Workload> w;
  for (int round = 0; round < kSetupRounds; ++round) {
    const double t0 = round == 0 ? 0.0 : now_ms();
    int reps = 0;
    do {
      w.reset();
      w = make_workload(o);
      w->setup();
      ++reps;
    } while (now_ms() - t0 < kMinRoundS * 1000.0);
    rounds.push_back((now_ms() - t0) / 1000.0 / reps);
    setups += static_cast<std::size_t>(reps);
  }
  std::fprintf(stderr, "%s: %zu set-ups in %d rounds, round means %.4g .. %.4g s\n",
               o.workload.c_str(), setups, kSetupRounds,
               *std::min_element(rounds.begin(), rounds.end()),
               *std::max_element(rounds.begin(), rounds.end()));
  const std::size_t setup_failed = w->setup_failures().size();
  for (const std::string& f : w->setup_failures()) report_failure(o.workload, -1, f);

  if (!o.trace) {
    const LoopResult r = w->run(o.seconds, 0);
    const std::size_t failed = failures(r) + setup_failed;
    const std::size_t attempted = r.jobs.size() + setup_failed;
    const Tail tail = tail_latency(latencies(r));
    const std::vector<Metric> metrics = {
        {"setup_s", median(rounds), "s"},
        {"jobs_per_s", rate(r), "1/s"},
        {"latency_p50_ms", median(latencies(r)), "ms"},
        {"latency_p99_ms", tail.value, "ms"},
        {"peak_rss_mb", r.rss_mb > 0 ? r.rss_mb : peak_rss_mb(), "MB"},
    };
    std::printf("%s: setup_s=%.4g s jobs_per_s=%.4g 1/s latency_p50_ms=%.4g ms "
                "latency_p99_ms=%.4g ms (p%.2f of %zu samples) failed_share=%.4g share "
                "peak_rss_mb=%.4g MB\n",
                o.workload.c_str(), metrics[0].value, metrics[1].value, metrics[2].value,
                metrics[3].value, tail.percentile, latencies(r).size(),
                attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
                metrics[4].value);
    print_result(failed == 0, std::max<std::size_t>(attempted, 1), failed, metrics);
    return 0;
  }

  // Traced run: a warm-up loop (the process's first pass pays for
  // first-touch memory, which would bias the comparison), the loop
  // traced, the loop untraced again — half the window each — and then
  // two traced layer passes over a fixed job list.
  const LoopResult warmup = w->run(o.seconds / 2, 0);
  Tracer::get().set_enabled(true);
  const LoopResult traced = w->run(o.seconds / 2, 3);
  Tracer::get().set_enabled(false);
  const LoopResult plain = w->run(o.seconds / 2, 4);
  Tracer::get().set_enabled(true);
  LayerResult layered;
  for (int pass = 1; pass <= 2; ++pass) {
    const LayerResult p = w->layer_pass(pass);
    layered.jobs += p.jobs;
    layered.wrong += p.wrong;
  }
  Tracer::get().set_enabled(false);

  const std::vector<Span> spans = Tracer::get().spans();
  std::vector<Metric> metrics = derive_layer_metrics(spans);
  const double overhead = rate(traced) > 0 ? 100.0 * (rate(plain) / rate(traced) - 1.0) : 0;
  metrics.push_back({"trace.overhead_pct", overhead, "%"});

  // Work counts must repeat exactly across the two passes at one seed;
  // a count that does not is named and is no gated number.
  const PassCounts a = pass_counts(spans, 1), b = pass_counts(spans, 2);
  struct Count {
    const char* name;
    double first, second;
  };
  const Count counts[] = {{"core.edges", a.edges, b.edges},
                          {"prover.obligations", a.obligations, b.obligations},
                          {"onthefly.peak_dfs_frames", a.peak_frames, b.peak_frames},
                          {"service.entry_bytes", a.entry_bytes, b.entry_bytes},
                          {"service.cache_hit_share", hit_share(traced), hit_share(plain)}};
  double differing = 0;
  for (const Count& c : counts) {
    const bool same = c.first == c.second;
    differing += same ? 0 : 1;
    std::fprintf(stderr, "determinism: %s %s (%.17g vs %.17g)%s\n", c.name,
                 same ? "repeats" : "DIFFERS", c.first, c.second,
                 same ? "" : " -- not a gated number");
  }
  metrics.push_back({"trace.nondeterministic_counts", differing, "count"});

  const std::string path =
      o.out_dir + "/trace-" + o.workload + "-seed" + std::to_string(o.seed) + ".jsonl";
  if (!Tracer::get().write_jsonl(path))
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  std::fprintf(stderr, "%s traced: %zu spans -> %s; untraced %.4g jobs/s, traced %.4g jobs/s\n",
               o.workload.c_str(), spans.size(), path.c_str(), rate(plain), rate(traced));

  const std::size_t failed =
      failures(warmup) + failures(traced) + failures(plain) + layered.wrong + setup_failed;
  const std::size_t attempted = warmup.jobs.size() + traced.jobs.size() + plain.jobs.size() +
                                layered.jobs + setup_failed;
  print_result(failed == 0, std::max<std::size_t>(attempted, 1), failed, metrics);
  return 0;
}

}  // namespace

void report_failure(const std::string& workload, std::int64_t job, const std::string& what) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lk(mu);
  std::fprintf(stderr, "FAILED %s job %lld: %s\n", workload.c_str(), static_cast<long long>(job),
               what.c_str());
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::now_ms();  // starts the clock
  perfbench::Options o;
  if (!perfbench::parse_args(argc, argv, o) || !perfbench::make_workload(o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve-cold|serve-warm|explore-large --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
