#pragma once

// Job families of the serve workloads and their expected answers.
//
// Every family pairs two GCL programs over the SAME variables (the
// service checks GCL jobs through the identity map). The expected
// verdict of each (family, relation) comes from the paper's theorems and
// the EXPERIMENTS.md verdict tables, never from the engine under test:
//
//   self pairs X vs X   the four refinement relations hold trivially
//                       (every edge is Exact, every deadlock maps to
//                       itself); "stabilizing" holds iff X is
//                       self-stabilizing:
//     kstate(n, K)      Dijkstra's K-state ring on n processes:
//                       stabilizing iff K >= n - 1 (E11).
//     dijkstra3(p)      Dijkstra's 3-state ring: stabilizing at every
//                       size (E7).
//     naive(p)          the naive 3-state ring: never stabilizing (the
//                       zero-token state deadlocks, E7 control).
//     workring(n, K, m) K-state with local work: [WR <~ KState] holds
//                       (E20), so by Theorem 1 it stabilizes iff the
//                       K-state ring does: K >= n - 1.
//   workring vs looping the looping-work ring only adds the wrap edge
//                       w = m-1 -> 0 to T_C, so T_C is a subset of T_A
//                       with the same initial states and no deadlocks:
//                       all four refinements hold, stabilizing iff
//                       K >= n - 1.
//   looping vs workring the wrap edge is no edge of A and lies on a
//                       reachable cycle: all five relations fail.
//   random pairs        small fuzz::random_gcl_system pairs; the
//                       brute-force reference supplies the answer.
//
// Distinct cache keys at a fixed size come from Variants: the ring's
// variables are declared in a rotated and possibly reflected order, and
// the initial state is another legitimate state (all counters shifted
// by a constant, the privilege at another process, the work counters
// at another value). A variant's state graph is the base program's up
// to a relabelling of states (rotation, reflection, and the shift —
// all these rings are symmetric under adding a constant to every
// counter) and a choice of initial state inside the same legitimate
// cycle, so its verdicts and its cost are the base program's while its
// canonical hash — sensitive to variable order and constants — is new.
// confirm_tables() re-derives every table entry with
// fuzz::reference_check (dense Floyd-Warshall, no engine code) on each
// family's smallest members, under every initial-state variant and a
// rotated, reflected one, and reports any disagreement.

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "service/relation.hpp"

namespace perfbench {

using cref::service::Relation;

enum class Family { kKState, kDijkstra3, kNaive, kWorkRing, kWorkVsLoop, kLoopVsWork, kRandom };

/// Ring parameters: n processes (p for the 3-state rings), K counter
/// values, m work steps. Unused fields are 0.
struct Slot {
  Family family = Family::kKState;
  int n = 0, k = 0, m = 0;
};

/// Declaration order (rotation, reflection) and the legitimate initial
/// state: counters c_0..c_{token-1} start at shift + 1 and the others at
/// shift, which puts the single privilege (the 3-state rings' up-token)
/// at process `token`; work counters start at work_shift.
struct Variant {
  int rotation = 0;
  bool reflect = false;
  int shift = 0;
  int token = 0;  // 0 (all counters equal) for the K-state rings, >= 1 in the 3-state rings
  int work_shift = 0;
};

/// GCL sources of the families. `looping` selects the work ring whose
/// work step wraps (w := (w + 1) % m under the privilege alone).
std::string kstate_gcl(int n, int k, const Variant& v = {});
std::string dijkstra3_gcl(int p, const Variant& v = {});
std::string naive_gcl(int p, const Variant& v = {});
std::string workring_gcl(int n, int k, int m, bool looping, const Variant& v = {});

/// One serve request: the two program texts, its relation, and the
/// answer it must get.
struct ServeJob {
  Family family = Family::kKState;
  std::string label;  // e.g. "kstate(n=4,K=7)/r1fs2t0w0"
  Relation relation = Relation::kRefinementInit;
  std::string c_src, a_src;
  double states = 0;         // |Sigma_C|
  bool holds = false;        // expected verdict
  bool static_only = false;  // must be served by the static prover (too big to build)
};

/// Expected verdict of a table family (not kRandom).
bool expected_holds(const Slot& s, Relation r);

/// The job (slot, variant, relation) with its expected verdict.
/// `static_only` marks the prover-only ~10^8-state jobs.
ServeJob make_job(const Slot& s, const Variant& v, Relation r, bool static_only = false);

/// Re-derives the verdict tables on the smallest members of every
/// table family with the brute-force reference (see above).
/// Returns one line per disagreement (empty = all confirmed).
std::vector<std::string> confirm_tables();

/// All variants of a slot, in a seeded order; next() hands each out once.
class VariantPool {
 public:
  VariantPool(const Slot& s, std::uint64_t seed);
  bool next(Variant& out);

 private:
  std::vector<Variant> variants_;
};

/// Small random GCL pairs with distinct cache keys; the brute-force
/// reference supplies each expected verdict.
class RandomPairs {
 public:
  explicit RandomPairs(std::uint64_t seed) : rng_(seed) {}
  ServeJob next();

 private:
  std::mt19937_64 rng_;
  std::set<std::string> seen_;
};

}  // namespace perfbench
