// E6 — Section 4.2's compression diagram, measured: classify every
// transition of C1 against BTR through alpha4, count the classes, print
// one concrete compressed step together with the BTR path it skips, and
// verify no compression lies on a cycle (the condition Lemma 7 rests on).

#include <cstdio>

#include "common.hpp"
#include "refinement/checker.hpp"
#include "util/strings.hpp"
#include "ring/btr.hpp"
#include "ring/four_state.hpp"

using namespace cref;
using namespace cref::bench;
using namespace cref::ring;

int main() {
  header("E6", "Section 4.2: C1's compressions of BTR computations");

  util::Table t({"n", "C1 transitions", "exact", "compressed", "invalid",
                 "compressed on cycle", "check ms"});
  for (int n = 2; n <= 7; ++n) {
    BtrLayout bl(n);
    FourStateLayout l(n);
    Abstraction a4 = make_alpha4(l, bl);
    Timer timer;
    RefinementChecker rc(make_c1(l), make_btr(bl), a4);
    EdgeStats st = rc.edge_stats();
    // Count compressed edges that lie on cycles of C1 (must be zero).
    std::size_t on_cycle = 0;
    const LazyScc& scc = rc.c_scc();
    for (StateId s = 0; s < rc.c_graph().num_states(); ++s)
      for (StateId u : rc.c_graph().successors(s))
        if (scc.edge_on_cycle(s, u) &&
            rc.classify_edge(s, u) == EdgeClass::Compressed)
          ++on_cycle;
    t.add_row({std::to_string(n), std::to_string(st.total()), std::to_string(st.exact),
               std::to_string(st.compressed), std::to_string(st.invalid),
               std::to_string(on_cycle), util::format_double(timer.ms(), 1)});
  }
  std::printf("%s\n", t.to_string().c_str());

  // One concrete compression at n = 3, in the paper's drawing style.
  int n = 3;
  BtrLayout bl(n);
  FourStateLayout l(n);
  RefinementChecker rc(make_c1(l), make_btr(bl), make_alpha4(l, bl));
  if (auto ex = rc.example_compression()) {
    std::printf("example compressed step of C1 (n=%d):\n", n);
    std::printf("  concrete: %s\n            -> %s\n",
                l.space()->format(ex->first.states[0]).c_str(),
                l.space()->format(ex->first.states[1]).c_str());
    std::printf("  the BTR path it compresses (token view):\n%s",
                ex->second.format(*bl.space()).c_str());
    std::printf("  (%zu interior BTR state(s) dropped — exactly the token loss\n"
                "   drawn in the paper's Section 4.2 figure.)\n",
                ex->second.states.size() - 2);
  }
  return 0;
}
