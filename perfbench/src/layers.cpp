#include "layers.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "core/abstraction.hpp"
#include "core/graph.hpp"
#include "gcl/alpha.hpp"
#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "prover/refine.hpp"
#include "refinement/checker.hpp"
#include "refinement/onthefly.hpp"
#include "service/certify.hpp"
#include "service/hash.hpp"

namespace perfbench {

namespace {

using cref::service::Relation;

cref::CheckResult run_otf(const cref::OnTheFlyChecker& c, Relation r) {
  switch (r) {
    case Relation::kRefinementInit: return c.refinement_init();
    case Relation::kEverywhere: return c.everywhere_refinement();
    case Relation::kConvergence: return c.convergence_refinement();
    case Relation::kEventually: return c.everywhere_eventually_refinement();
    case Relation::kStabilizing: return c.stabilizing_to();
  }
  return {};
}

/// A zero-length span carrying a count.
void count_span(const char* name, std::int64_t id, double value) {
  ScopedSpan s(name, id);
  s.set_value(value);
}

}  // namespace

std::vector<std::string> run_layers(const LayerJob& job, std::int64_t id,
                                    const cref::EngineOptions& eo, LayerCaches& caches) {
  namespace svc = cref::service;
  std::vector<std::string> wrong;
  auto expect = [&](const char* engine, bool holds) {
    if (holds != job.expected)
      wrong.push_back(std::string(engine) + " says " + (holds ? "holds" : "fails") +
                      ", expected " + (job.expected ? "holds" : "fails"));
  };
  const bool same_text = job.c_src == job.a_src;

  std::optional<cref::gcl::SystemAst> c_ast, a_ast;
  {
    ScopedSpan s("gcl.parse", id);
    c_ast = cref::gcl::parse(job.c_src);
    a_ast = cref::gcl::parse(job.a_src);
  }
  svc::Digest key;
  {
    ScopedSpan s("service.hash", id);
    key = svc::job_key(svc::hash_gcl(*c_ast), svc::hash_gcl(*a_ast), svc::hash_alpha({}),
                       job.relation);
  }

  // The service tries the static prover first on convergence jobs; the
  // by-name map is the identity on same-variable pairs and the
  // forget-work projection on the explore pair.
  if (job.relation == Relation::kConvergence) {
    const cref::gcl::AlphaSpec alpha = cref::gcl::identity_alpha(*c_ast, *a_ast);
    cref::prover::RefineResult sr;
    {
      ScopedSpan s("prover.prove", id);
      sr = cref::prover::prove_refinement(*c_ast, *a_ast, alpha);
      s.set_value(sr.verdict == cref::prover::RefineVerdict::Proved ? 1 : 0);
    }
    if (sr.certificate) {
      count_span("prover.obligations", id, static_cast<double>(sr.certificate->obligations.size()));
      bool valid = false;
      {
        ScopedSpan s("prover.validate", id);
        valid = cref::prover::validate_refinement_certificate(*c_ast, *a_ast, alpha,
                                                              *sr.certificate);
      }
      if (!valid) wrong.push_back("prover certificate rejected by its validator");
      expect("prover", true);
    } else if (sr.verdict == cref::prover::RefineVerdict::Refuted) {
      expect("prover", false);
    }
  }
  if (job.static_only) return wrong;

  std::optional<cref::System> c_sys, a_sys;
  {
    ScopedSpan s("gcl.compile", id);
    c_sys = cref::gcl::compile(*c_ast);
    a_sys = same_text ? *c_sys : cref::gcl::compile(*a_ast);
  }
  const cref::StateId n = c_sys->space().size();
  {
    ScopedSpan s("core.successor_sweep", id);
    cref::SuccessorScratch scratch;
    std::size_t edges = 0;
    for (cref::StateId st = 0; st < n; ++st) {
      scratch.out.clear();
      edges += c_sys->successors_into(st, scratch);
    }
    s.set_value(static_cast<double>(n));
    count_span("core.edges", id, static_cast<double>(edges));
  }

  if (job.explicit_layers) {
    cref::TransitionGraph cg, ag;
    {
      ScopedSpan s("core.build", id);
      cg = cref::TransitionGraph::build(*c_sys, eo);
      ag = same_text ? cg : cref::TransitionGraph::build(*a_sys, eo);
    }
    const std::vector<cref::StateId> c_init = c_sys->initial_states();
    const std::vector<cref::StateId> a_init = a_sys->initial_states();
    std::vector<cref::StateId> table;  // empty = identity
    if (job.alpha) {
      table.resize(n);
      cref::StateVec cv, av;
      for (cref::StateId st = 0; st < n; ++st) {
        c_sys->space().decode_into(st, cv);
        job.alpha(cv, av);
        table[st] = a_sys->space().encode(av);
      }
    }
    std::optional<cref::RefinementChecker> rc;
    cref::CheckResult res;
    {
      ScopedSpan s("refinement.check", id);
      rc.emplace(cg, ag, c_init, a_init, table);
      rc->set_engine_options(eo);
      res = svc::run_relation(*rc, job.relation);
    }
    expect("explicit engine", res.holds);
    svc::CacheEntry entry{job.relation, res.holds, res.reason, res.witness.states, std::nullopt};
    {
      ScopedSpan s("service.cert_emit", id);
      entry.certificate = svc::make_job_certificate(*rc, job.relation, res);
    }
    std::string text;
    {
      ScopedSpan s("service.serialize", id);
      text = svc::serialize_entry(entry);
      s.set_value(static_cast<double>(text.size()));
    }
    {
      ScopedSpan s("service.cache_store", id);
      caches.memory.store(key, entry);
      svc::VerdictCache(1, caches.disk_dir).store(key, entry);
    }
    {
      ScopedSpan s("service.cache_lookup_mem", id);
      s.set_value(caches.memory.lookup(key) ? 1 : 0);
    }
    {
      // A fresh cache: memory misses, the disk store answers.
      svc::VerdictCache fresh(1, caches.disk_dir);
      ScopedSpan s("service.cache_lookup_disk", id);
      s.set_value(fresh.lookup(key) ? 1 : 0);
    }
    std::optional<svc::CacheEntry> parsed;
    {
      ScopedSpan s("service.entry_parse", id);
      parsed = svc::parse_entry(text);
    }
    if (!parsed) wrong.push_back("serialized cache entry does not parse back");
    if (entry.certificate) {
      cref::CheckResult v;
      {
        ScopedSpan s("service.cert_validate", id);
        v = svc::validate_job_certificate(job.relation, entry.holds, cref::Trace{entry.witness},
                                          *entry.certificate, cg, ag, c_init, a_init, table);
      }
      if (!v.holds) wrong.push_back("job certificate rejected: " + v.reason);
    }
  }

  cref::Abstraction alpha =
      job.alpha ? cref::Abstraction::lazy("alpha", c_sys->space_ptr(), a_sys->space_ptr(), job.alpha)
                : cref::Abstraction::identity(c_sys->space_ptr());
  cref::OnTheFlyChecker otf(*c_sys, *a_sys, std::move(alpha), eo);
  {
    ScopedSpan s("onthefly.init_scan", id);
    otf.c_initial_set();
  }
  {
    ScopedSpan s("onthefly.reach", id);
    otf.c_reachable_set();
  }
  {
    ScopedSpan s("onthefly.scc", id);
    s.set_value(static_cast<double>(otf.c_scc().peak_frames()));
  }
  {
    ScopedSpan s("onthefly.relation", id);
    expect("on-the-fly engine", run_otf(otf, job.relation).holds);
  }
  {
    ScopedSpan s("onthefly.edge_sweep", id);
    otf.edge_stats();
  }
  return wrong;
}

PassCounts pass_counts(const std::vector<Span>& spans, int pass) {
  PassCounts c;
  for (const Span& s : spans) {
    if (s.job < 0 || s.job / kPassStride != pass) continue;
    const std::string name = s.name;
    if (name == "core.edges") c.edges += s.value;
    else if (name == "prover.obligations") c.obligations += s.value;
    else if (name == "onthefly.scc") c.peak_frames = std::max(c.peak_frames, s.value);
    else if (name == "service.serialize") c.entry_bytes += s.value;
  }
  return c;
}

std::vector<Metric> derive_layer_metrics(const std::vector<Span>& spans) {
  // Per (span name, job): summed duration; per name: summed counts.
  std::map<std::string, std::map<std::int64_t, double>> per_job;
  std::map<std::string, std::vector<double>> values;
  for (const Span& s : spans) {
    per_job[s.name][s.job] += s.ms();
    if (s.value >= 0) values[s.name].push_back(s.value);
  }
  auto med_ms = [&](const char* span) {
    std::vector<double> v;
    for (const auto& [job, ms] : per_job[span]) v.push_back(ms);
    return median(v);
  };
  auto mean = [&](const char* span) {
    const std::vector<double>& v = values[span];
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  auto last = [&](const char* span) {
    const std::vector<double>& v = values[span];
    return v.empty() ? 0.0 : v.back();
  };
  const PassCounts first = pass_counts(spans, 1);

  double sweep_ms = 0, sweep_states = 0;
  for (const Span& s : spans)
    if (std::string(s.name) == "core.successor_sweep") {
      sweep_ms += s.ms();
      sweep_states += s.value;
    }

  return {
      {"gcl.parse_ms", med_ms("gcl.parse"), "ms"},
      {"gcl.compile_ms", med_ms("gcl.compile"), "ms"},
      {"service.hash_ms", med_ms("service.hash"), "ms"},
      {"service.cache_lookup_ms", med_ms("service.cache_lookup_mem"), "ms"},
      {"service.cache_lookup_disk_ms", med_ms("service.cache_lookup_disk"), "ms"},
      {"service.entry_parse_ms", med_ms("service.entry_parse"), "ms"},
      {"service.entry_bytes", first.entry_bytes, "B"},
      {"service.cert_emit_ms", med_ms("service.cert_emit"), "ms"},
      {"service.cert_validate_ms", med_ms("service.cert_validate"), "ms"},
      {"service.cache_hit_share", mean("client.service_run"), "share"},
      {"service.validation_failures", last("service.validation_failures"), "count"},
      {"service.duplicate_builds", last("service.duplicate_builds"), "count"},
      {"core.build_ms", med_ms("core.build"), "ms"},
      {"core.successor_ns_per_state", sweep_states > 0 ? sweep_ms * 1e6 / sweep_states : 0,
       "ns/state"},
      {"core.edges", first.edges, "count"},
      {"refinement.check_ms", med_ms("refinement.check"), "ms"},
      {"onthefly.init_scan_ms", med_ms("onthefly.init_scan"), "ms"},
      {"onthefly.reach_ms", med_ms("onthefly.reach"), "ms"},
      {"onthefly.scc_ms", med_ms("onthefly.scc"), "ms"},
      {"onthefly.relation_ms", med_ms("onthefly.relation"), "ms"},
      {"onthefly.edge_sweep_ms", med_ms("onthefly.edge_sweep"), "ms"},
      {"onthefly.peak_dfs_frames", first.peak_frames, "count"},
      {"prover.prove_ms", med_ms("prover.prove"), "ms"},
      {"prover.validate_ms", med_ms("prover.validate"), "ms"},
      {"prover.proved_share", mean("prover.prove"), "share"},
      {"prover.obligations", first.obligations, "count"},
  };
}

}  // namespace perfbench
