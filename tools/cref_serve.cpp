// Line-delimited front end for the batch checking service: each request
// line names a relation and two GCL programs, each answer line carries
// the verdict plus cache/phase telemetry. Answers are BYTE-IDENTICAL
// between cold and warm runs — a warm answer is served from the cache
// only after its certificate re-proves the verdict against graphs
// rebuilt from the request (see src/service/service.hpp).
//
//   cref_serve < requests.txt                 # read requests from stdin
//   cref_serve --batch requests.txt           # ... or from a file
//   cref_serve --batch b.txt --cache-dir .cache --json
//   cref_serve --batch b.txt --cache-dir d --twice --assert-warm
//
// Request line:   <relation> <c-program.gcl> <a-program.gcl>
//   relation: refinement-init | everywhere | convergence | eventually |
//             stabilizing
//   paths are resolved relative to the batch file's directory (or the
//   working directory when reading stdin); '#' starts a comment line.
//
// A request that cannot become a job — a malformed line, an unknown
// relation, a missing program file or one that does not parse — is
// answered with an error line in its place; the rest of the batch is
// still answered, and the run exits 1 at the end.
//
// --twice re-answers the whole batch with a SECOND service instance
// sharing only the on-disk cache — an end-to-end disk round trip.
// --assert-warm then exits 1 unless every second-pass answer of a
// well-formed request was a validated cache hit with bytes identical to
// the first pass (the tier-1 CI step runs exactly that).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

using namespace cref;

namespace {

int usage() {
  std::printf(
      "usage: cref_serve [options] < requests\n"
      "  request line: <relation> <c.gcl> <a.gcl>\n"
      "  --batch FILE     read requests from FILE instead of stdin\n"
      "  --cache-dir DIR  persist verified verdicts under DIR\n"
      "  --cache-size N   in-memory LRU capacity (default 1024)\n"
      "  --threads T      worker threads (0 = all hardware threads)\n"
      "  --json           machine-readable answer lines\n"
      "  --twice          answer the batch again via a fresh service\n"
      "                   instance sharing the cache dir\n"
      "  --assert-warm    with --twice: exit 1 unless the second pass is\n"
      "                   all validated cache hits, byte-identical\n"
      "  exit status: 1 if any request failed (answered with an error line)\n");
  return 2;
}

struct Request {
  std::string relation, c_path, a_path;
  std::string error;  // non-empty: the request failed and has no job
};

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + p.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// The comparable answer content: everything except timings and
/// cache telemetry. --assert-warm requires these bytes to match
/// between the cold and warm passes.
std::string answer_body(const Request& req, const service::JobOutcome& o) {
  std::ostringstream out;
  out << req.relation << ' ' << req.c_path << ' ' << req.a_path << ' '
      << (o.result.holds ? "holds" : "FAILS");
  if (!o.result.reason.empty()) out << " reason=\"" << o.result.reason << '"';
  if (!o.result.witness.states.empty()) out << " witness=" << o.result.witness.format_ids();
  return out.str();
}

std::string answer_line(const Request& req, const service::JobOutcome& o, bool json) {
  std::ostringstream out;
  if (json) {
    out << "{\"relation\": \"" << req.relation << "\", \"c\": \"" << json_escape(req.c_path)
        << "\", \"a\": \"" << json_escape(req.a_path) << "\", \"key\": \"" << o.key.hex()
        << "\", \"holds\": " << (o.result.holds ? "true" : "false") << ", \"reason\": \""
        << json_escape(o.result.reason) << "\", \"witness\": [";
    for (std::size_t i = 0; i < o.result.witness.states.size(); ++i)
      out << (i ? ", " : "") << o.result.witness.states[i];
    out << "], \"cache_hit\": " << (o.cache_hit ? "true" : "false")
        << ", \"revalidated\": " << (o.revalidated ? "true" : "false")
        << ", \"certificate_stored\": " << (o.certificate_stored ? "true" : "false")
        << ", \"hash_ms\": " << o.hash_ms << ", \"build_ms\": " << o.build_ms
        << ", \"check_ms\": " << o.check_ms << ", \"validate_ms\": " << o.validate_ms << "}";
  } else {
    out << answer_body(req, o) << "  [" << (o.cache_hit ? "hit" : "miss")
        << (o.revalidated ? ",revalidated" : "") << " hash=" << o.hash_ms
        << "ms build=" << o.build_ms << "ms check=" << o.check_ms
        << "ms validate=" << o.validate_ms << "ms]";
  }
  return out.str();
}

std::string error_line(const Request& req, bool json) {
  std::ostringstream out;
  if (json) {
    out << "{\"relation\": \"" << json_escape(req.relation) << "\", \"c\": \""
        << json_escape(req.c_path) << "\", \"a\": \"" << json_escape(req.a_path)
        << "\", \"error\": \"" << json_escape(req.error) << "\"}";
  } else {
    out << req.relation << ' ' << req.c_path << ' ' << req.a_path << " ERROR error=\""
        << req.error << '"';
  }
  return out.str();
}

std::vector<Request> parse_requests(std::istream& in) {
  std::vector<Request> reqs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    Request r;
    if (!(ss >> r.relation >> r.c_path >> r.a_path)) r.error = "bad request line: " + line;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"json", "twice", "assert-warm", "help"});
  if (cli.has("help")) return usage();

  service::ServiceOptions opts;
  opts.engine.num_threads = resolve_thread_count(cli.get_size("threads", 0));
  opts.cache_capacity = cli.get_size("cache-size", 1024);
  opts.cache_dir = cli.get("cache-dir");
  const bool json = cli.has("json");
  const bool twice = cli.has("twice");

  try {
    std::vector<Request> reqs;
    std::filesystem::path base = ".";
    if (cli.has("batch")) {
      const std::filesystem::path batch = cli.get("batch");
      base = batch.has_parent_path() ? batch.parent_path() : ".";
      std::ifstream in(batch);
      if (!in) throw std::runtime_error("cannot open batch file " + batch.string());
      reqs = parse_requests(in);
    } else {
      reqs = parse_requests(std::cin);
    }

    // One job per well-formed request; job_of maps a request to its job.
    std::vector<service::Job> jobs;
    std::vector<std::size_t> job_of(reqs.size());
    std::size_t failed = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      Request& r = reqs[i];
      if (r.error.empty()) {
        try {
          jobs.push_back(service::Job::from_gcl(service::relation_from_string(r.relation),
                                                read_file(base / r.c_path),
                                                read_file(base / r.a_path)));
          job_of[i] = jobs.size() - 1;
        } catch (const std::exception& e) {
          r.error = e.what();
        }
      }
      if (!r.error.empty()) {
        std::cerr << "cref_serve: request " << i << ": " << r.error << '\n';
        ++failed;
      }
    }
    auto print_pass = [&](int pass, const service::CheckService& svc,
                          const std::vector<service::JobOutcome>& outs) {
      for (std::size_t i = 0; i < reqs.size(); ++i)
        std::cout << (reqs[i].error.empty() ? answer_line(reqs[i], outs[job_of[i]], json)
                                            : error_line(reqs[i], json))
                  << '\n';
      const auto st = svc.stats();
      std::cerr << "pass " << pass << ": " << jobs.size() << " jobs, " << st.hits << " hits, "
                << st.misses << " misses, " << st.validation_failures
                << " validation failures, " << failed << " failed requests\n";
    };

    service::CheckService svc(opts);
    std::vector<service::JobOutcome> first = svc.run_batch(jobs);
    print_pass(1, svc, first);

    if (twice) {
      // A fresh instance: nothing survives but the on-disk store.
      service::CheckService warm(opts);
      std::vector<service::JobOutcome> second = warm.run_batch(jobs);
      print_pass(2, warm, second);
      if (cli.has("assert-warm")) {
        bool ok = true;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          if (!reqs[i].error.empty()) continue;  // failed requests have no answer to compare
          const service::JobOutcome& cold = first[job_of[i]];
          const service::JobOutcome& hot = second[job_of[i]];
          if (!hot.cache_hit || !hot.revalidated) {
            std::cerr << "assert-warm: request " << i << " was not a validated hit\n";
            ok = false;
          }
          if (answer_body(reqs[i], cold) != answer_body(reqs[i], hot)) {
            std::cerr << "assert-warm: request " << i << " answer differs between passes\n";
            ok = false;
          }
        }
        if (!ok) return 1;
        std::cerr << "assert-warm: all " << jobs.size()
                  << " warm answers validated and byte-identical\n";
      }
    }
    if (failed > 0) return 1;
  } catch (const std::exception& e) {
    std::cerr << "cref_serve: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
