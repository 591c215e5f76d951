#pragma once

// Shared shapes of the three workloads: per-job records of the timed
// client loop, the workload interface driven by main.cpp, and the
// metric type printed in the result line.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One timed job of a client loop.
struct JobRecord {
  double latency_ms = 0;
  double done_ms = 0;  // completion time, for ordering
  bool failed = false;
  bool late = false;  // finished after the window closed: checked, not timed
  bool cache_hit = false;
  bool built = false;                // the service reported a side build
  std::string c_side, a_side;        // side digests (hex), for duplicate-build counting
};

struct LoopResult {
  std::vector<JobRecord> jobs;  // completed jobs, any order
  double elapsed_s = 0;         // loop start to the window's end (or last completion)
  std::size_t validation_failures = 0;
  double rss_mb = 0;  // peak RSS read inside the loop (serve-cold); 0 = read at the end
};

/// Jobs of one layer pass and how many of them were answered wrongly.
struct LayerResult {
  std::size_t jobs = 0, wrong = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs, expected answers and the service or checker; for
  /// serve-warm also answers every key once. Throws on a verdict-table
  /// disagreement with the brute-force reference.
  virtual void setup() = 0;

  /// The timed closed loop, run until `seconds` have passed (jobs in
  /// flight finish). `pass` distinguishes reruns over the same inputs.
  virtual LoopResult run(double seconds, int pass) = 0;

  /// Calls every layer entry point on a fixed job list, each inside a
  /// span whose job id is `pass * kPassStride + index`. Wrong answers
  /// are already reported.
  virtual LayerResult layer_pass(int pass) = 0;

  /// Failures of set-up (cold answers on serve-warm), one line each.
  const std::vector<std::string>& setup_failures() const { return setup_failures_; }

 protected:
  std::vector<std::string> setup_failures_;
};

inline constexpr std::int64_t kPassStride = 1000000;

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set (VmHWM) of this process in MB.
inline double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

std::unique_ptr<Workload> make_serve_cold(const Options& o);
std::unique_ptr<Workload> make_serve_warm(const Options& o);
std::unique_ptr<Workload> make_explore_large(const Options& o);

/// Prints one failed job to stderr (every failure is reported, never
/// dropped).
void report_failure(const std::string& workload, std::int64_t job, const std::string& what);

}  // namespace perfbench
