// Circuit pairs of the paper's Tables II/III, prepared with every
// library call wrapped in a layer span: synthesize the FSM, build the
// retiming graph, minimize the clock period (FEAS), minimize registers
// subject to that period, count atomic moves and apply the retiming.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "fsm/fsm.h"
#include "netlist/circuit.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/graph.h"
#include "retime/moves.h"
#include "sim/simulator.h"
#include "synth/synthesize.h"

namespace perfbench {

/// One Table II row: which FSM, encoding and script produced it.
struct Variant {
  const char* fsm;
  retest::synth::EncodingStyle encoding;
  retest::synth::ScriptStyle script;
};

/// The sixteen variants of Tables II/III, in paper order (the last two
/// are the scf pairs).
const std::vector<Variant>& AllVariants();
/// The fourteen variants other than scf.
std::vector<Variant> NonScfVariants();

/// Synthesis input of a variant, built during set-up.
struct PairInput {
  Variant variant;
  retest::fsm::Fsm machine;
  retest::synth::SynthesisOptions options;
};
PairInput MakePairInput(const Variant& variant);

/// An original circuit and its min-period, min-register retiming.
struct Pair {
  retest::netlist::Circuit original;
  retest::retime::BuildResult build;
  retest::retime::Retiming retiming;
  retest::retime::MoveCounts moves;
  /// applied.circuit is the retimed circuit; the segments feed
  /// fault::BuildCorrespondence.
  retest::retime::ApplyResult applied;

  const retest::netlist::Circuit& retimed() const { return applied.circuit; }
};

/// Synthesizes and retimes one pair; spans: synth, retime.graph,
/// retime.min_period, retime.min_reg, retime.moves, retime.apply.
Pair PreparePair(const PairInput& input, Tracer& tracer);

/// Seeded random fully specified (0/1) input sequence.
retest::sim::InputSequence RandomSequence(int num_inputs, int length,
                                          std::uint64_t seed);

/// Seeded deterministic permutation of [0, n).
std::vector<std::size_t> SeededOrder(std::size_t n, std::uint64_t seed);

/// Splitmix64 step: the benchmark's only source of randomness.
std::uint64_t Mix(std::uint64_t& state);

}  // namespace perfbench
