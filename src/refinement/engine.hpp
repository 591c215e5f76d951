#pragma once

// EngineOptions and parallel_chunks live in util/parallel.hpp, shared
// with the Sigma-materialization in core/graph.cpp; this header
// re-exports them for the engine's call sites and defines the
// per-phase timing struct RefinementChecker reports.
#include "util/parallel.hpp"

namespace cref {

/// Wall-clock totals (ms) of the engine's internal phases, accumulated
/// across all checks run on one RefinementChecker (graph build in the
/// front end, the rest read from its OnTheFlyChecker's stats). Graph
/// build is paid in the constructor, SCC/closure phases once (lazily,
/// on first use); the edge and stutter scans recur per check. Benches
/// feed successive snapshots into sim::Stats for a per-phase breakdown.
struct PhaseTimings {
  double graph_build_ms = 0;  // CSR materialization of C and A
  double c_scc_ms = 0;        // SCC decomposition of C
  double a_scc_ms = 0;        // SCC decomposition of A
  double closure_ms = 0;      // A-side condensation transitive closure
  double edge_scan_ms = 0;    // classify / verify / stutter scans over T_C
};

}  // namespace cref
