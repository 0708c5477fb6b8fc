// Walks through the paper's worked examples (Figs. 2 and 5) with the
// library's own machinery: retime with hand-picked lags, extract the
// state transition graphs, and check the space/time relations.
//
//   ./example_paper_examples
//
// Exits 1 when a printed result contradicts the paper: C1 and C2 must
// be space-equivalent (Lemma 1); N1 must space-contain N2 and
// N-time-contain it for some N within the forward-move bound (Lemma 2);
// the Fig. 5 move is one forward move (prefix length 1); and every N2
// fault site must correspond to at least one N1 site.
#include <cstdio>

#include <string>

#include "fault/correspondence.h"
#include "netlist/bench_io.h"
#include "retime/moves.h"
#include "stg/containment.h"
#include "stg/equivalence.h"
#include "tests/paper_circuits.h"

int main() {
  using namespace retest;
  bool agrees = true;

  {
    std::printf("=== Fig. 2: backward move across an OR gate ===\n");
    const auto c1 = retest::testing::MakeFig2C1();
    const auto pair = retest::testing::MakeFig2Pair();
    std::printf("C1:\n%s\n", netlist::WriteBenchString(c1).c_str());
    std::printf("C2 (retimed):\n%s\n",
                netlist::WriteBenchString(pair.applied.circuit).c_str());
    const stg::Stg s1 = stg::Extract(c1);
    const stg::Stg s2 = stg::Extract(pair.applied.circuit);
    const bool equivalent = stg::SpaceEquivalent(s1, s2);
    std::printf("space-equivalent (Lemma 1): %s\n\n",
                equivalent ? "yes" : "no");
    agrees &= equivalent;
  }

  {
    std::printf("=== Fig. 5: forward move across AND gate g1 ===\n");
    const auto n1 = retest::testing::MakeFig5N1();
    const auto pair = retest::testing::MakeFig5Pair();
    std::printf("N1:\n%s\n", netlist::WriteBenchString(n1).c_str());
    std::printf("N2 (retimed):\n%s\n",
                netlist::WriteBenchString(pair.applied.circuit).c_str());

    const stg::Stg s1 = stg::Extract(n1);
    const stg::Stg s2 = stg::Extract(pair.applied.circuit);
    const bool contains = stg::SpaceContains(s1, s2);
    std::printf("N1 space-contains N2: %s\n", contains ? "yes" : "no");
    const auto n = stg::SmallestTimeContainment(s1, s2, 4);
    std::printf("smallest N with N1 >=_Nt N2: %s\n",
                n ? std::to_string(*n).c_str() : "none <= 4");

    const auto counts = retime::CountMoves(pair.build.graph, pair.retiming);
    std::printf("move counts: F=%d B=%d, prefix length %d\n",
                counts.max_forward_any, counts.max_backward_any,
                counts.prefix_length());

    const auto correspondence =
        fault::BuildCorrespondence(pair.build, pair.retiming, pair.applied);
    std::printf("fault sites in correspondence: %zu N1-keyed, %zu N2-keyed\n",
                correspondence.to_retimed.size(),
                correspondence.to_original.size());
    bool every_site_corresponds = !correspondence.to_original.empty();
    for (const auto& [site, originals] : correspondence.to_original) {
      every_site_corresponds &= !originals.empty();
    }
    agrees &= contains && n && *n <= counts.prefix_length() &&
              counts.max_forward_any == 1 && counts.max_backward_any == 0 &&
              counts.prefix_length() == 1 && every_site_corresponds;
  }
  if (!agrees) {
    std::printf("MISMATCH: the results above contradict the paper\n");
    return 1;
  }
  return 0;
}
