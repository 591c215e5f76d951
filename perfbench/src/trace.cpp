#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();
thread_local std::int64_t t_parent = -1;

}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch).count();
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(const Span& s) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const Span& s : spans())
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"job\":%lld,"
                 "\"start_ms\":%.6f,\"end_ms\":%.6f,\"value\":%.17g}\n",
                 s.name, static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.job), s.start_ms, s.end_ms, s.value);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::int64_t job) : on_(Tracer::get().enabled()) {
  span_.name = name;
  span_.job = job;
  if (on_) {
    span_.id = Tracer::get().next_id();
    span_.parent = t_parent;
    saved_parent_ = t_parent;
    t_parent = span_.id;
  }
  span_.start_ms = now_ms();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ms = now_ms();
  t_parent = saved_parent_;
  Tracer::get().record(span_);
}

}  // namespace perfbench
