// Quickstart: build a small sequential circuit, retime it, generate a
// test set for the original, and map it to the retimed circuit with
// the Theorem-4 prefix.
//
//   ./example_quickstart
//
// Exits 1 when a result contradicts the paper: the retiming must be
// certified, and the derived set must detect every retimed fault whose
// corresponding original faults the original test set detects
// (Theorem 4).
#include <cstdio>
#include <map>

#include "analyze/certify.h"
#include "atpg/engine.h"
#include "core/preserve.h"
#include "core/testset.h"
#include "fault/collapse.h"
#include "fault/correspondence.h"
#include "faultsim/proofs.h"
#include "netlist/bench_io.h"
#include "netlist/builder.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/leiserson_saxe.h"

int main() {
  using namespace retest;

  // 1. Describe a circuit (or parse one with netlist::ReadBench).
  netlist::Builder builder("demo");
  builder.Input("a").Input("b").Input("c");
  builder.Dff("q0").Dff("q1");
  builder.And("g1", {"a", "q0"})
      .Or("g2", {"b", "q1"})
      .Xor("g3", {"g1", "g2"})
      .Nand("g4", {"g3", "c"})
      .Nor("g5", {"g3", "g1"})
      .SetDffInput("q0", "g4")
      .SetDffInput("q1", "g5")
      .Output("z0", "g3")
      .Output("z1", "g5");
  const netlist::Circuit circuit = builder.Build();
  std::printf("circuit:\n%s\n", netlist::WriteBenchString(circuit).c_str());

  // 2. Retime it for performance.
  const retime::BuildResult build = retime::BuildGraph(circuit);
  const auto min_period = retime::MinimizePeriod(build.graph);
  const auto applied =
      retime::ApplyRetiming(circuit, build, min_period.retiming);
  std::printf("clock period %d -> %d; DFFs %d -> %d\n\n",
              min_period.original_period, min_period.period,
              circuit.num_dffs(), applied.circuit.num_dffs());

  // 3. Generate a test set for the ORIGINAL circuit.
  atpg::AtpgOptions options;
  options.time_budget_ms = 5000;
  const auto atpg_result = atpg::RunAtpg(circuit, options);
  core::TestSet tests;
  tests.tests = atpg_result.tests;
  std::printf("ATPG on original: %.1f%% fault coverage, %d tests, %d vectors\n",
              atpg_result.FaultCoverage(), tests.num_tests(),
              tests.total_vectors());

  // 4. Map the test set to the retimed circuit: prepend the
  //    pre-determined number of arbitrary vectors (Theorem 4).
  const int prefix = core::PrefixLength(build.graph, min_period.retiming);
  const auto derived =
      core::DeriveRetimedTestSet(tests, prefix, circuit.num_inputs());
  std::printf("prefix length (max forward moves): %d\n", prefix);

  // 5. Fault simulate the derived set on the retimed circuit.
  const auto faults = fault::Collapse(applied.circuit);
  const auto sim_result = faultsim::SimulateProofs(
      applied.circuit, faults.representatives, derived.Concatenated());
  std::printf("derived set on retimed circuit: %d/%zu faults detected\n",
              sim_result.num_detected(), faults.representatives.size());

  // 6. Check the two premises and the promise of Theorem 4.
  const auto certified = analyze::CertifyRetiming(circuit, applied.circuit);
  std::printf("retiming certified: %s (prefix bound %d)\n",
              certified.certified ? "yes" : "no",
              certified.certificate.prefix_length);
  const auto correspondence =
      fault::BuildCorrespondence(build, min_period.retiming, applied);
  const auto original_faults = fault::EnumerateFaults(circuit);
  const auto original_sim = faultsim::SimulateProofs(
      circuit, original_faults, tests.Concatenated());
  std::map<fault::Fault, bool> detected_in_original;
  for (size_t j = 0; j < original_faults.size(); ++j) {
    detected_in_original[original_faults[j]] =
        original_sim.detections[j].detected;
  }
  const auto retimed_faults = fault::EnumerateFaults(applied.circuit);
  const auto retimed_sim = faultsim::SimulateProofs(
      applied.circuit, retimed_faults, derived.Concatenated());
  int preserved = 0;
  int missed = 0;
  for (size_t i = 0; i < retimed_faults.size(); ++i) {
    bool all_detected = true;
    for (const fault::Site& site :
         correspondence.to_original.at(retimed_faults[i].site)) {
      all_detected &=
          detected_in_original[{site, retimed_faults[i].stuck_at_1}];
    }
    if (!all_detected) continue;
    ++preserved;
    if (!retimed_sim.detections[i].detected) ++missed;
  }
  std::printf("Theorem 4: %d retimed faults with detected originals, "
              "%d of them missed\n",
              preserved, missed);
  if (!certified.certified || certified.certificate.prefix_length != prefix ||
      preserved == 0 || missed > 0) {
    std::printf("MISMATCH: the results above contradict the paper\n");
    return 1;
  }
  return 0;
}
