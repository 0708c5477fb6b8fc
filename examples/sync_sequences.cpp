// Structural versus functional synchronizing sequences and what
// retiming does to them (the paper's Section IV.A, on the Fig. 3
// circuits).
//
//   ./example_sync_sequences
//
// Exits 1 when a printed result contradicts the paper: <11> must
// synchronize L1 functionally but not L2, and every <p, 11> must
// synchronize L2 (Theorem 2).
#include <cstdio>

#include "core/syncseq.h"
#include "stg/containment.h"
#include "tests/paper_circuits.h"

int main() {
  using namespace retest;
  using sim::FromString;

  const auto l1 = retest::testing::MakeFig3L1();
  const auto pair = retest::testing::MakeFig3Pair();
  const auto& l2 = pair.applied.circuit;

  std::printf("L1: 1 DFF feeding a reconvergent fanout stem\n");
  std::printf("L2: the register moved forward onto the two branches\n\n");

  // Functional view (on the state transition graph).
  const stg::Stg stg1 = stg::Extract(l1);
  const stg::Stg stg2 = stg::Extract(l2);
  bool agrees = true;
  const bool syncs_l1 =
      stg::FunctionallySynchronizes(stg1, {0b11}).synchronizes;
  const bool syncs_l2 =
      stg::FunctionallySynchronizes(stg2, {0b11}).synchronizes;
  std::printf("functionally, <11> synchronizes L1: %s\n",
              syncs_l1 ? "yes" : "no");
  std::printf("functionally, <11> synchronizes L2: %s\n",
              syncs_l2 ? "yes" : "no");
  agrees &= syncs_l1 && !syncs_l2;

  // Structural view (3-valued simulation).
  std::printf("structurally, <11> synchronizes L1: %s\n",
              core::StructurallySynchronizes(l1, {FromString("11")})
                  ? "yes"
                  : "no");

  // The search helper finds structural sequences when they exist.
  const auto found = core::FindStructuralSyncSequence(l1);
  std::printf("structural sync search on L1: %s\n",
              found ? "found a sequence" : "none (reconvergence hides q)");

  // Theorem 2: one arbitrary vector in front repairs L2.
  for (int p = 0; p < 4; ++p) {
    const auto check = stg::FunctionallySynchronizes(stg2, {p, 0b11});
    std::printf("functionally, <%d%d, 11> synchronizes L2: %s\n",
                (p >> 1) & 1, p & 1, check.synchronizes ? "yes" : "no");
    agrees &= check.synchronizes;
  }
  if (!agrees) {
    std::printf("MISMATCH: the results above contradict the paper\n");
    return 1;
  }
  return 0;
}
