// Tests of the on-the-fly engine: LazyScc's partition and reverse
// topological numbering must match a brute-force reachability closure
// (the quotient reasoning rests on both), and OnTheFlyChecker must be
// verdict-, reason- and witness-identical to RefinementChecker on every
// relation — over seeded
// random instances, the shipped ring protocols through their
// abstractions, absint-style state filters, and divergence controls.
// The concurrency test runs under -fsanitize=thread in CI.

#include "refinement/onthefly.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "refinement/checker.hpp"
#include "refinement/random_systems.hpp"
#include "ring/btr.hpp"
#include "ring/kstate.hpp"
#include "ring/three_state.hpp"

namespace cref {
namespace {

using Edges = std::vector<std::pair<StateId, StateId>>;

LazyScc::SuccFn graph_succ(const TransitionGraph& g) {
  return [&g](StateId s) { return g.successors(s); };
}

// ---------------------------------------------------------------------
// LazyScc vs a brute-force reachability closure: same partition, and ids
// dense and in reverse topological order of the condensation.
// ---------------------------------------------------------------------

void expect_same_decomposition(const TransitionGraph& g, const char* what) {
  const StateId n = g.num_states();
  // reach[s][t]: t is reachable from s by a path of length >= 0.
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  for (StateId s = 0; s < n; ++s) {
    std::vector<StateId> stack{s};
    reach[s][s] = 1;
    while (!stack.empty()) {
      const StateId u = stack.back();
      stack.pop_back();
      for (StateId t : g.successors(u))
        if (!reach[s][t]) {
          reach[s][t] = 1;
          stack.push_back(t);
        }
    }
  }
  LazyScc lz(n, graph_succ(g));
  std::vector<std::size_t> members(lz.count(), 0);
  for (StateId s = 0; s < n; ++s) {
    ASSERT_LT(lz.component(s), lz.count()) << what << " state " << s;
    ++members[lz.component(s)];
    for (StateId t = 0; t < n; ++t)
      EXPECT_EQ(lz.component(s) == lz.component(t), reach[s][t] && reach[t][s])
          << what << " states " << s << ", " << t;
  }
  for (std::size_t c = 0; c < lz.count(); ++c) {
    EXPECT_GE(members[c], 1u) << what << " comp " << c << " is empty";
    EXPECT_EQ(members[c] >= 2, lz.nontrivial(c)) << what << " comp " << c;
  }
  for (StateId s = 0; s < n; ++s)
    for (StateId t : g.successors(s)) {
      EXPECT_EQ(lz.edge_on_cycle(s, t), s != t && reach[t][s])
          << what << " edge (" << s << ", " << t << ")";
      if (lz.component(s) != lz.component(t)) {
        EXPECT_GT(lz.component(s), lz.component(t))
            << what << " cross edge (" << s << ", " << t << ")";
      }
    }
}

TEST(LazySccTest, MatchesExplicitNumberingOnHandcraftedGraphs) {
  // Two cycles joined by a bridge, plus a tail and an isolated state.
  expect_same_decomposition(
      TransitionGraph::from_edges(8, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 4}, {4, 2}, {4, 5}}),
      "two cycles");
  // Pure DAG.
  expect_same_decomposition(
      TransitionGraph::from_edges(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}), "dag");
  // One big ring.
  expect_same_decomposition(
      TransitionGraph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}), "ring");
}

TEST(LazySccTest, MatchesExplicitNumberingOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SystemSampler gen(seed);
    StateId n = 8 + static_cast<StateId>(seed % 25);
    TransitionGraph g = gen.random_graph(n, 0.05 + 0.01 * static_cast<double>(seed % 10));
    expect_same_decomposition(g, "seed");
  }
}

TEST(LazySccTest, DeepPathStaysIterativeAndReportsPeaks) {
  // A 100k-state chain drives the DFS frame stack to full depth; a
  // recursive Tarjan would overflow the call stack here.
  const StateId n = 100000;
  Edges edges;
  for (StateId s = 0; s + 1 < n; ++s) edges.emplace_back(s, s + 1);
  TransitionGraph g = TransitionGraph::from_edges(n, edges);
  LazyScc lz(n, graph_succ(g));
  EXPECT_EQ(lz.count(), n);
  EXPECT_EQ(lz.nontrivial_count(), 0u);
  EXPECT_EQ(lz.peak_frames(), static_cast<std::size_t>(n));
  // Each frame parks at most one successor entry on the edge stack.
  EXPECT_EQ(lz.peak_edges(), static_cast<std::size_t>(n - 1));
  // Components come out in reverse topological order along the chain.
  EXPECT_EQ(lz.component(n - 1), 0u);
  EXPECT_EQ(lz.component(0), static_cast<std::size_t>(n - 1));
}

// ---------------------------------------------------------------------
// Differential suite: OnTheFlyChecker vs the explicit engine on seeded
// random graph instances. Full CheckResult equality on every relation.
// ---------------------------------------------------------------------

struct Instance {
  TransitionGraph a;
  TransitionGraph c;
  std::vector<StateId> init;
};

Instance draw(std::uint64_t seed) {
  SystemSampler gen(seed);
  StateId n = 16 + static_cast<StateId>(seed % 33);  // 16..48 states
  Instance inst;
  inst.a = gen.random_graph(n, 0.12);
  inst.c = gen.drop_edges(inst.a, 0.8);
  if (seed % 2 == 0) inst.c = gen.add_shortcuts(inst.c, 3);
  inst.init = gen.random_subset(n, 0.2, /*nonempty=*/true);
  return inst;
}

void expect_identical(const CheckResult& expected, const CheckResult& got, std::uint64_t seed,
                      const char* relation) {
  EXPECT_EQ(expected.holds, got.holds) << "seed " << seed << " " << relation;
  EXPECT_EQ(expected.reason, got.reason) << "seed " << seed << " " << relation;
  EXPECT_EQ(expected.witness.states, got.witness.states) << "seed " << seed << " " << relation;
}

void expect_engines_agree(const RefinementChecker& ex, const OnTheFlyChecker& fly,
                          std::uint64_t seed) {
  expect_identical(ex.refinement_init(), fly.refinement_init(), seed, "init");
  expect_identical(ex.everywhere_refinement(), fly.everywhere_refinement(), seed, "everywhere");
  expect_identical(ex.convergence_refinement(), fly.convergence_refinement(), seed,
                   "convergence");
  expect_identical(ex.everywhere_eventually_refinement(),
                   fly.everywhere_eventually_refinement(), seed, "eventually");
  expect_identical(ex.stabilizing_to(), fly.stabilizing_to(), seed, "stabilizing");
  EdgeStats es = ex.edge_stats(), fs = fly.edge_stats();
  EXPECT_EQ(es.exact, fs.exact) << "seed " << seed;
  EXPECT_EQ(es.stutter, fs.stutter) << "seed " << seed;
  EXPECT_EQ(es.compressed, fs.compressed) << "seed " << seed;
  EXPECT_EQ(es.invalid, fs.invalid) << "seed " << seed;
}

TEST(OnTheFlyParityTest, IdenticalToExplicitOn200SeededInstances) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Instance inst = draw(seed);
    // Identity alpha on even seeds, a coarsening table on odd ones.
    std::vector<StateId> alpha;
    if (seed % 2 == 1) {
      alpha.resize(inst.c.num_states());
      for (StateId s = 0; s < inst.c.num_states(); ++s)
        alpha[s] = s % inst.a.num_states();
    }
    RefinementChecker ex(inst.c, inst.a, inst.init, inst.init, alpha);
    OnTheFlyChecker fly(inst.c, inst.a, inst.init, inst.init, alpha);
    expect_engines_agree(ex, fly, seed);
  }
}

TEST(OnTheFlyParityTest, ParallelScanIdenticalToSerialExplicit) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Instance inst = draw(seed);
    RefinementChecker ex(inst.c, inst.a, inst.init, inst.init);
    EngineOptions se;
    se.num_threads = 1;
    ex.set_engine_options(se);
    OnTheFlyChecker fly(inst.c, inst.a, inst.init, inst.init);
    EngineOptions pe;
    pe.num_threads = 4;
    pe.chunk_size = 4;  // force many chunks even on small graphs
    fly.set_engine_options(pe);
    expect_engines_agree(ex, fly, seed);
  }
}

// ---------------------------------------------------------------------
// System-backed parity: the shipped ring protocols through their real
// abstraction functions, both eager-table and lazy alphas.
// ---------------------------------------------------------------------

TEST(OnTheFlyParityTest, RingProtocolsThroughAlpha) {
  ring::ThreeStateLayout l3(3);
  ring::BtrLayout lb(3);
  {
    System c = ring::make_dijkstra3(l3);
    System a = ring::make_btr(lb);
    Abstraction alpha = ring::make_alpha3(l3, lb);
    RefinementChecker ex(c, a, alpha);
    OnTheFlyChecker fly(c, a, alpha);
    expect_engines_agree(ex, fly, 0);
  }
  ring::KStateLayout lk(3, 4);
  ring::UtrLayout lu(3);
  {
    System c = ring::make_kstate(lk);
    System a = ring::make_utr(lu);
    RefinementChecker ex(c, a, ring::make_alpha_k(lk, lu));
    OnTheFlyChecker fly(c, a, ring::make_alpha_k(lk, lu));
    expect_engines_agree(ex, fly, 1);
  }
  {
    // Identity alpha, same system on both sides: reflexivity sanity.
    System c = ring::make_kstate(lk);
    OnTheFlyChecker fly(c, c);
    EXPECT_TRUE(fly.everywhere_refinement().holds);
    EXPECT_TRUE(fly.stabilizing_to().holds);
  }
}

TEST(OnTheFlyParityTest, LazyAlphaMatchesEagerTable) {
  ring::KStateLayout lk(3, 4);
  ring::UtrLayout lu(3);
  System c = ring::make_kstate(lk);
  System a = ring::make_utr(lu);
  Abstraction lazy = Abstraction::lazy("alphaK", lk.space(), lu.space(),
                                       [lk, lu](const StateVec& cs, StateVec& as) {
                                         for (int j = 0; j <= lk.n(); ++j)
                                           as[lu.t(j)] = lk.token_image(cs, j) ? 1 : 0;
                                       });
  RefinementChecker ex(c, a, ring::make_alpha_k(lk, lu));
  OnTheFlyChecker fly(c, a, std::move(lazy));
  expect_engines_agree(ex, fly, 2);
}

TEST(OnTheFlyParityTest, StateFilterPrunesExactlyLikeTheExplicitBuild) {
  // An arbitrary predicate filter: both engines must see filtered
  // sources as edge-free (hence as deadlocks in unfiltered scans).
  ring::ThreeStateLayout l3(3);
  System c = ring::make_dijkstra3(l3);
  System a = ring::make_dijkstra3(l3);
  c.set_state_filter([](const StateVec& s) { return s[0] != 2; });
  RefinementChecker ex(c, a);
  OnTheFlyChecker fly(c, a);
  expect_engines_agree(ex, fly, 3);
}

// ---------------------------------------------------------------------
// Divergence control: a pure-stutter cycle with a non-deadlock image
// must be reported by both engines with the same witness.
// ---------------------------------------------------------------------

TEST(OnTheFlyParityTest, StutterCycleDivergenceDetected) {
  // C: a 2-cycle mapping entirely onto A-state 0, which keeps moving.
  TransitionGraph c = TransitionGraph::from_edges(2, {{0, 1}, {1, 0}});
  TransitionGraph a = TransitionGraph::from_edges(2, {{0, 1}, {1, 0}});
  std::vector<StateId> alpha{0, 0};
  RefinementChecker ex(c, a, {0}, {0}, alpha);
  OnTheFlyChecker fly(c, a, {0}, {0}, alpha);
  CheckResult r = fly.everywhere_refinement();
  EXPECT_FALSE(r.holds);
  EXPECT_NE(r.reason.find("divergence"), std::string::npos);
  expect_engines_agree(ex, fly, 4);

  // Same cycle, but the image IS an A-deadlock: infinite stuttering is
  // the image of a maximal finite computation — allowed.
  TransitionGraph a2 = TransitionGraph::from_edges(1, {});
  std::vector<StateId> alpha2{0, 0};
  OnTheFlyChecker fly2(TransitionGraph::from_edges(2, {{0, 1}, {1, 0}}), a2, {0}, {0}, alpha2);
  EXPECT_TRUE(fly2.everywhere_refinement().holds);
}

// ---------------------------------------------------------------------
// Stutter-sweep confinement: both engines keep only stutter edges inside
// a nontrivial C-SCC. Stutter edges that cross between two nontrivial
// components, and stutter chains through trivial ones, must change no
// verdict, reason or witness on any relation.
// ---------------------------------------------------------------------

TEST(OnTheFlyParityTest, StutterEdgesAcrossAndOutsideCyclicComponents) {
  // C-SCCs X = {1,2,3} and Y = {5,6} are pure-stutter cycles onto A-state
  // 0; Z = {8,9} follows A exactly (0 -> 1 -> 0). 3 -> 5 and 6 -> 8 are
  // stutter edges between nontrivial components; 0 -> 1 and 7 -> 4 -> 5
  // are stutter chains through trivial ones. No state deadlocks.
  const TransitionGraph c = TransitionGraph::from_edges(
      10, {{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 5}, {4, 5}, {5, 6}, {6, 5}, {6, 8},
           {7, 4}, {8, 9}, {9, 8}});
  const std::vector<StateId> alpha{0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  const TransitionGraph moving = TransitionGraph::from_edges(2, {{0, 1}, {1, 0}});
  {
    // A keeps moving at 0: every relation reports the divergence.
    RefinementChecker ex(c, moving, {7}, {0}, alpha);
    OnTheFlyChecker fly(c, moving, {7}, {0}, alpha);
    expect_engines_agree(ex, fly, 10);
    const CheckResult init = fly.refinement_init();  // from 7: Y is the first cycle
    EXPECT_NE(init.reason.find("divergence"), std::string::npos) << init.reason;
    EXPECT_EQ(init.witness.states, (std::vector<StateId>{5, 6, 5}));
    for (const CheckResult& r : {fly.everywhere_refinement(), fly.stabilizing_to()}) {
      EXPECT_NE(r.reason.find("divergence"), std::string::npos) << r.reason;
      EXPECT_EQ(r.witness.states, (std::vector<StateId>{1, 2, 3, 1}));
    }
  }
  {
    // Everything maps onto 0, a reachable A-deadlock: stuttering there
    // is a maximal finite computation of A, so every cycle is exempt.
    const TransitionGraph halting = TransitionGraph::from_edges(2, {{1, 0}});
    const std::vector<StateId> onto_zero(10, 0);
    RefinementChecker ex(c, halting, {7}, {1}, onto_zero);
    OnTheFlyChecker fly(c, halting, {7}, {1}, onto_zero);
    expect_engines_agree(ex, fly, 11);
    EXPECT_TRUE(fly.stabilizing_to().holds) << fly.stabilizing_to().reason;
  }
}

// ---------------------------------------------------------------------
// reachable_in_a: closure path vs per-query BFS fallback.
// ---------------------------------------------------------------------

TEST(OnTheFlyReachableInATest, ClosureAndBfsAgree) {
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 0}, {1, 0}});
  TransitionGraph c = TransitionGraph::from_edges(3, {});
  OnTheFlyChecker closure_fly(c, a, {}, {});
  OnTheFlyChecker bfs_fly(std::move(c), std::move(a), {}, {});
  EngineOptions eo;
  eo.max_comps_for_closure = 0;  // force the per-query BFS fallback
  bfs_fly.set_engine_options(eo);
  for (StateId s = 0; s < 3; ++s)
    for (StateId t = 0; t < 3; ++t)
      EXPECT_EQ(closure_fly.reachable_in_a(s, t), bfs_fly.reachable_in_a(s, t))
          << "(" << s << ", " << t << ")";
  EXPECT_TRUE(closure_fly.reachable_in_a(0, 0));  // singleton self-loop
  EXPECT_FALSE(closure_fly.reachable_in_a(2, 2));
}

// ---------------------------------------------------------------------
// Concurrency: checks on ONE OnTheFlyChecker instance from many
// threads — the lazy shared structures (C-SCC, I_C, R_C, A-side
// closure, R_A) race through their once_flags. Run under TSan in CI.
// ---------------------------------------------------------------------

TEST(OnTheFlyConcurrencyTest, ConcurrentChecksAgree) {
  Instance inst = draw(7);
  OnTheFlyChecker fly(inst.c, inst.a, inst.init, inst.init);
  EngineOptions eo;
  eo.num_threads = 2;
  eo.chunk_size = 8;
  fly.set_engine_options(eo);

  RefinementChecker ref(inst.c, inst.a, inst.init, inst.init);
  EngineOptions se;
  se.num_threads = 1;
  ref.set_engine_options(se);
  const EdgeStats expect_stats = ref.edge_stats();
  const CheckResult expect_conv = ref.convergence_refinement();
  const CheckResult expect_stab = ref.stabilizing_to();
  const CheckResult expect_init = ref.refinement_init();
  const bool expect_reach = ref.reachable_in_a(0, 1);

  constexpr int kCallers = 4;
  std::vector<EdgeStats> stats(kCallers);
  std::vector<CheckResult> conv(kCallers), stab(kCallers), init(kCallers);
  std::vector<int> reach(kCallers);
  {
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i)
      callers.emplace_back([&, i] {
        stats[i] = fly.edge_stats();
        conv[i] = fly.convergence_refinement();
        stab[i] = fly.stabilizing_to();
        init[i] = fly.refinement_init();
        reach[i] = fly.reachable_in_a(0, 1) ? 1 : 0;
      });
    for (auto& th : callers) th.join();
  }
  for (int i = 0; i < kCallers; ++i) {
    EXPECT_EQ(stats[i].total(), expect_stats.total());
    EXPECT_EQ(conv[i].holds, expect_conv.holds);
    EXPECT_EQ(conv[i].reason, expect_conv.reason);
    EXPECT_EQ(stab[i].holds, expect_stab.holds);
    EXPECT_EQ(stab[i].reason, expect_stab.reason);
    EXPECT_EQ(init[i].holds, expect_init.holds);
    EXPECT_EQ(reach[i], expect_reach ? 1 : 0);
  }
}

// ---------------------------------------------------------------------
// Constructor contracts.
// ---------------------------------------------------------------------

TEST(OnTheFlyCheckerTest, RejectsMismatchedAlphaTable) {
  TransitionGraph c = TransitionGraph::from_edges(3, {});
  TransitionGraph a = TransitionGraph::from_edges(2, {});
  EXPECT_THROW(OnTheFlyChecker(c, a, {}, {}, std::vector<StateId>{0}),
               std::invalid_argument);
  EXPECT_THROW(OnTheFlyChecker(c, a, {}, {}), std::invalid_argument);
}

TEST(OnTheFlyCheckerTest, RejectsOutOfRangeAlphaAndInitialStates) {
  auto g = [] { return TransitionGraph::from_edges(2, {{0, 1}}); };
  auto message = [&](std::vector<StateId> c_init, std::vector<StateId> a_init,
                     std::vector<StateId> alpha) -> std::string {
    try {
      RefinementChecker rc(g(), g(), std::move(c_init), std::move(a_init), std::move(alpha));
      (void)rc.everywhere_refinement();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no exception";
  };
  // Each message names the offending index and value.
  EXPECT_NE(message({0}, {0}, {0, StateId{1} << 40}).find("alpha table entry 1 is 1099511627776"),
            std::string::npos);
  EXPECT_NE(message({0}, {0}, {2, 0}).find("alpha table entry 0 is 2"), std::string::npos);
  EXPECT_NE(message({1, 7}, {0}, {}).find("C initial state 1 is 7"), std::string::npos);
  EXPECT_NE(message({0}, {2}, {}).find("A initial state 0 is 2"), std::string::npos);
  EXPECT_EQ(message({0, 1}, {1}, {1, 0}), "no exception");
}

TEST(OnTheFlyCheckerTest, StatsReportStructureSizes) {
  Instance inst = draw(9);
  OnTheFlyChecker fly(inst.c, inst.a, inst.init, inst.init);
  (void)fly.convergence_refinement();
  OnTheFlyStats st = fly.stats();
  EXPECT_EQ(st.states, inst.c.num_states());
  EXPECT_GT(st.c_comps, 0u);
  EXPECT_GT(st.a_comps, 0u);
  EXPECT_GT(st.peak_dfs_frames, 0u);
}

}  // namespace
}  // namespace cref
