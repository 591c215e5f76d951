#pragma once

// The traced run's layer pass: one job taken apart into the public
// entry points of every measured layer, each call inside its own span,
// and the per-layer metrics derived from the recorded spans.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/space.hpp"
#include "refinement/engine.hpp"
#include "service/cache.hpp"
#include "service/relation.hpp"
#include "trace.hpp"

namespace perfbench {

struct LayerJob {
  std::string c_src, a_src;
  cref::service::Relation relation = cref::service::Relation::kRefinementInit;
  bool expected = false;     // verdict every engine must return
  bool static_only = false;  // too big to build: stop after the prover
  /// Build graphs and run the explicit engine, certificate and cache
  /// layers (explore-large runs them on one of its three jobs only).
  bool explicit_layers = true;
  /// Abstraction over decoded states; empty = identity.
  std::function<void(const cref::StateVec&, cref::StateVec&)> alpha;
};

/// Per-pass cache state: a memory LRU, and the directory of the disk
/// store the layer pass writes through and reads back from.
struct LayerCaches {
  explicit LayerCaches(std::string dir) : memory(4096), disk_dir(std::move(dir)) {}
  cref::service::VerdictCache memory;
  std::string disk_dir;
};

/// Runs `job` layer by layer under span job id `id`. Returns one line
/// per engine whose verdict differs from `job.expected`.
std::vector<std::string> run_layers(const LayerJob& job, std::int64_t id,
                                    const cref::EngineOptions& eo, LayerCaches& caches);

/// Counts that must repeat exactly across two layer passes at one seed.
struct PassCounts {
  double edges = 0, obligations = 0, peak_frames = 0, entry_bytes = 0;
};
PassCounts pass_counts(const std::vector<Span>& spans, int pass);

/// Every per-layer metric, derived from the spans of the traced loop
/// and the layer passes.
std::vector<Metric> derive_layer_metrics(const std::vector<Span>& spans);

}  // namespace perfbench
