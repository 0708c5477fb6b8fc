// The paper's Fig. 6 technique, end to end, on a synthesized benchmark
// circuit: performance retiming makes the circuit hard for ATPG;
// retiming it back for minimum registers, running ATPG there, and
// mapping the tests with the prefix recovers coverage cheaply.
//
//   ./example_retime_for_test
//
// Exits 1 when a result contradicts the paper: both retimings (the
// performance one and the register-minimizing one the flow applies)
// must be certified, and the derived set must detect every fault of
// the product circuit whose corresponding faults of the easy circuit
// the ATPG tests detect (Theorem 4, applied to the inverse retiming).
#include <cstdio>
#include <map>

#include "analyze/certify.h"
#include "core/flow.h"
#include "fault/correspondence.h"
#include "fsm/benchmarks.h"
#include "netlist/bench_io.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/leiserson_saxe.h"
#include "retime/minreg.h"
#include "synth/synthesize.h"

int main() {
  using namespace retest;

  // Synthesize dk16 and retime it for performance (the "product").
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  synth::SynthesisOptions synthesis;
  synthesis.encoding = synth::EncodingStyle::kInputDominant;
  synthesis.explicit_reset = true;
  const auto original = synth::Synthesize(machine, synthesis);
  const auto build = retime::BuildGraph(original);
  const auto min_period = retime::MinimizePeriod(build.graph);
  const auto hard =
      retime::ApplyRetiming(original, build, min_period.retiming);
  std::printf("product circuit %s: %d gates, %d DFFs, period %d\n",
              hard.circuit.name().c_str(), hard.circuit.num_gates(),
              hard.circuit.num_dffs(), min_period.period);

  // The flow: register-minimize, ATPG on the easy version, map back.
  core::RetimeForTestOptions options;
  options.atpg.time_budget_ms = 10'000;
  const auto result = core::RetimeForTest(hard.circuit, options);

  std::printf("easy circuit: %d DFFs (was %d)\n", result.easy_dffs,
              result.hard_dffs);
  std::printf("ATPG on easy circuit: %.1f%% FC in %ld ms\n",
              result.atpg_result.FaultCoverage(),
              result.atpg_result.elapsed_ms);
  std::printf("prefix length for the mapping: %d\n", result.prefix_length);
  std::printf("derived test set: %d tests, %d vectors\n",
              result.derived.num_tests(), result.derived.total_vectors());
  std::printf("fault simulation on the product: %d/%d detected (%.1f%%) "
              "in %ld ms\n",
              result.hard_detected, result.hard_faults,
              result.HardCoverage(), result.fault_sim_ms);

  // Check the premises and the promise of Theorem 4.  The flow's
  // register-minimizing retiming is recomputed (it is deterministic)
  // for the fault correspondence between product and easy circuit.
  const bool product_certified =
      analyze::CertifyRetiming(original, hard.circuit).certified;
  const bool easy_certified =
      analyze::CertifyRetiming(hard.circuit, result.easy).certified;
  std::printf("retimings certified: original -> product %s, "
              "product -> easy %s\n",
              product_certified ? "yes" : "no",
              easy_certified ? "yes" : "no");
  const auto hard_build = retime::BuildGraph(hard.circuit);
  const auto minreg = retime::MinimizeRegisters(hard_build.graph);
  const auto easy = retime::ApplyRetiming(hard.circuit, hard_build,
                                          minreg.retiming,
                                          hard.circuit.name() + ".mintest");
  const bool same_easy = netlist::WriteBenchString(easy.circuit) ==
                         netlist::WriteBenchString(result.easy);
  const auto correspondence =
      fault::BuildCorrespondence(hard_build, minreg.retiming, easy);
  const auto easy_faults = fault::EnumerateFaults(result.easy);
  const auto easy_sim = faultsim::SimulateProofs(
      result.easy, easy_faults, result.atpg_result.ConcatenatedTests());
  std::map<fault::Fault, bool> detected_in_easy;
  for (size_t j = 0; j < easy_faults.size(); ++j) {
    detected_in_easy[easy_faults[j]] = easy_sim.detections[j].detected;
  }
  const auto hard_faults = fault::EnumerateFaults(hard.circuit);
  const auto hard_sim = faultsim::SimulateProofs(
      hard.circuit, hard_faults, result.derived.Concatenated());
  int preserved = 0;
  int missed = 0;
  for (size_t i = 0; i < hard_faults.size(); ++i) {
    bool all_detected = true;
    for (const fault::Site& site :
         correspondence.to_retimed.at(hard_faults[i].site)) {
      all_detected &= detected_in_easy[{site, hard_faults[i].stuck_at_1}];
    }
    if (!all_detected) continue;
    ++preserved;
    if (!hard_sim.detections[i].detected) ++missed;
  }
  std::printf("Theorem 4: %d product faults with detected easy-circuit "
              "faults, %d of them missed\n",
              preserved, missed);
  if (!product_certified || !easy_certified || !same_easy ||
      preserved == 0 || missed > 0) {
    std::printf("MISMATCH: the results above contradict the paper\n");
    return 1;
  }
  return 0;
}
