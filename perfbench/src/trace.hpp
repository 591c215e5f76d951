#pragma once

// In-memory span recorder of the traced run. Spans are recorded only
// around the benchmark's own calls into a layer (never inside the
// library), each with its name, start, end, parent span, job id and an
// optional count attached to it (edges swept, bytes serialized, ...).
// Every per-layer metric is derived from these spans; write_jsonl dumps
// them at exit.
//
// Disabled (the default), a ScopedSpan costs one relaxed load and a
// steady_clock read.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds since the process's first call into the recorder.
double now_ms();

struct Span {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 = root
  std::int64_t job = -1;     // -1 = not tied to one job
  double start_ms = 0, end_ms = 0;
  double value = -1;         // attached count; -1 = none

  double ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::int64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed); }
  void record(const Span& s);

  std::vector<Span> spans() const;

  /// One JSON object per line: name, id, parent, job, start_ms, end_ms, value.
  bool write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; nests under the calling thread's innermost open span.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::int64_t job = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_value(double v) { span_.value = v; }

 private:
  Span span_;
  bool on_;
  std::int64_t saved_parent_ = -1;
};

}  // namespace perfbench
