// End-to-end flows: FSM -> synthesis -> retiming -> ATPG -> test-set
// mapping -> fault simulation (the pipeline behind Tables II/III and
// the Fig. 6 technique).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "atpg/engine.h"
#include "core/flow.h"
#include "core/preserve.h"
#include "fault/collapse.h"
#include "faultsim/proofs.h"
#include "fsm/benchmarks.h"
#include "netlist/bench_io.h"
#include "netlist/check.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/leiserson_saxe.h"
#include "retime/minreg.h"
#include "synth/synthesize.h"

namespace retest {
namespace {

using netlist::Circuit;

/// Synthesize dk16 (small, fast) and min-period retime it, mirroring
/// the paper's circuit-preparation pipeline.
struct Prepared {
  Circuit original;
  retime::BuildResult build;
  retime::Retiming retiming;
  Circuit retimed;
};

Prepared PrepareDk16() {
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  synth::SynthesisOptions synthesis;
  synthesis.encoding = synth::EncodingStyle::kInputDominant;
  synthesis.script = synth::ScriptStyle::kDelay;
  synthesis.explicit_reset = true;
  Prepared prepared;
  prepared.original = synth::Synthesize(machine, synthesis);
  prepared.build = retime::BuildGraph(prepared.original);
  auto min_period = retime::MinimizePeriod(prepared.build.graph);
  // Register-minimization post-pass subject to the achieved period
  // (the paper's performance-retiming setup).
  auto minreg = retime::MinimizeRegisters(prepared.build.graph,
                                          min_period.period,
                                          &min_period.retiming);
  prepared.retiming = minreg.retiming;
  auto applied = retime::ApplyRetiming(prepared.original, prepared.build,
                                       prepared.retiming);
  prepared.retimed = std::move(applied.circuit);
  return prepared;
}

TEST(Integration, RetimingImprovesPeriodAndAddsDffs) {
  const Prepared prepared = PrepareDk16();
  EXPECT_TRUE(netlist::Check(prepared.retimed).ok());
  const auto original_period = prepared.build.graph.ClockPeriod();
  const auto new_period =
      prepared.build.graph.ClockPeriod(prepared.retiming.lags);
  EXPECT_LT(new_period, original_period);
  // The paper's Table II effect: min-period retiming inflates the
  // register count.
  EXPECT_GT(prepared.retimed.num_dffs(), prepared.original.num_dffs());
}

TEST(Integration, DerivedTestSetMatchesOriginalCoverage) {
  // Table III's procedure: ATPG on the original, map the test set with
  // the prefix, fault simulate both; coverage on the retimed circuit
  // must match (up to the split/merge counting effects, which only add
  // faults detected/undetected in tandem).
  const Prepared prepared = PrepareDk16();

  atpg::AtpgOptions options;
  options.seed = 11;
  options.time_budget_ms = 30'000;
  const auto atpg_result = atpg::RunAtpg(prepared.original, options);
  ASSERT_GT(atpg_result.FaultCoverage(), 80.0);

  core::TestSet test_set;
  test_set.tests = atpg_result.tests;
  const int prefix = core::PrefixLength(prepared.build.graph,
                                        prepared.retiming);
  const core::TestSet derived = core::DeriveRetimedTestSet(
      test_set, prefix, prepared.original.num_inputs());

  const auto original_faults = fault::Collapse(prepared.original);
  const auto retimed_faults = fault::Collapse(prepared.retimed);
  const auto original_sim = faultsim::SimulateProofs(
      prepared.original, original_faults.representatives,
      test_set.Concatenated());
  const auto retimed_sim = faultsim::SimulateProofs(
      prepared.retimed, retimed_faults.representatives,
      derived.Concatenated());

  const double original_coverage =
      100.0 * original_sim.num_detected() /
      static_cast<double>(original_faults.representatives.size());
  const double retimed_coverage =
      100.0 * retimed_sim.num_detected() /
      static_cast<double>(retimed_faults.representatives.size());
  // The paper's Table III: nearly identical undetected counts.  Allow
  // a small tolerance for the split/merge effect.
  EXPECT_NEAR(retimed_coverage, original_coverage, 3.0);
  EXPECT_GT(retimed_coverage, 80.0);
}

TEST(Integration, RetimeForTestFlowRecoversCoverage) {
  // Fig. 6: ATPG on the register-minimized version plus prefix mapping
  // achieves high coverage on the hard circuit.
  const Prepared prepared = PrepareDk16();
  core::RetimeForTestOptions options;
  options.atpg.seed = 17;
  options.atpg.time_budget_ms = 30'000;
  const auto result = core::RetimeForTest(prepared.retimed, options);
  EXPECT_LE(result.easy_dffs, result.hard_dffs);
  EXPECT_GE(result.HardCoverage(), 75.0);
  EXPECT_GE(result.prefix_length, 0);
  EXPECT_FALSE(result.derived.tests.empty());
}

/// The sixteen Table II circuit variants.
struct PaperVariant {
  const char* fsm;
  synth::EncodingStyle encoding;
  synth::ScriptStyle script;
};

constexpr PaperVariant kPaperVariants[] = {
    {"dk16", synth::EncodingStyle::kInputDominant, synth::ScriptStyle::kDelay},
    {"pma", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kDelay},
    {"s510", synth::EncodingStyle::kCombined, synth::ScriptStyle::kDelay},
    {"s510", synth::EncodingStyle::kCombined, synth::ScriptStyle::kRugged},
    {"s510", synth::EncodingStyle::kInputDominant, synth::ScriptStyle::kDelay},
    {"s510", synth::EncodingStyle::kInputDominant, synth::ScriptStyle::kRugged},
    {"s510", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kRugged},
    {"s820", synth::EncodingStyle::kCombined, synth::ScriptStyle::kDelay},
    {"s820", synth::EncodingStyle::kCombined, synth::ScriptStyle::kRugged},
    {"s820", synth::EncodingStyle::kInputDominant, synth::ScriptStyle::kRugged},
    {"s820", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kDelay},
    {"s820", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kRugged},
    {"s832", synth::EncodingStyle::kCombined, synth::ScriptStyle::kRugged},
    {"s832", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kRugged},
    {"scf", synth::EncodingStyle::kInputDominant, synth::ScriptStyle::kDelay},
    {"scf", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kDelay},
};

Circuit SynthesizeVariant(const PaperVariant& variant) {
  synth::SynthesisOptions options;
  options.encoding = variant.encoding;
  options.script = variant.script;
  for (const auto& info : fsm::PaperFsmTable()) {
    if (std::string(info.name) == variant.fsm) {
      options.explicit_reset = info.explicit_reset;
    }
  }
  return synth::Synthesize(fsm::MakeBenchmarkFsm(variant.fsm), options);
}

/// 64-bit FNV-1a, spelled out so the pinned values do not depend on
/// the standard library's std::hash.
std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(Integration, SixteenPaperCircuitsSynthesize) {
  // All Table II circuit variants synthesize and pass structural
  // checks; the heavier ones are only built, not simulated.
  for (const PaperVariant& variant : kPaperVariants) {
    const Circuit circuit = SynthesizeVariant(variant);
    EXPECT_TRUE(netlist::Check(circuit).ok()) << circuit.name();
    EXPECT_GT(circuit.num_gates(), 0) << circuit.name();
    // Retiming graph builds for all of them.
    EXPECT_NO_THROW(retime::BuildGraph(circuit)) << circuit.name();
  }
}

TEST(Integration, SixteenPaperCircuitsAreByteStable) {
  // Pins the .bench text of every variant, as synthesized and after
  // the min-period / min-register retiming the tables use.  Speed-ups
  // of synthesis and retiming must leave every byte unchanged.
  const struct {
    std::uint64_t original;
    std::uint64_t retimed;
  } expected[] = {
      {0x90a8822ba4e430d6ull, 0x3ae71c7f3aed14f1ull},  // dk16.ji.sd
      {0x7be10c94243c3893ull, 0x8f28f3bd7791e94aull},  // pma.jo.sd
      {0xcdb512c748036f96ull, 0xbbdd101fdc0b7793ull},  // s510.jc.sd
      {0x0166362ee31e884aull, 0x848273413abc2e29ull},  // s510.jc.sr
      {0x00f802f6dec36268ull, 0x7db7a611a6121cecull},  // s510.ji.sd
      {0xfd5f63e6d5e8abf5ull, 0xbe980720011d3b0dull},  // s510.ji.sr
      {0xb647368d01f0a3afull, 0xc82751638ac71619ull},  // s510.jo.sr
      {0x5c639669ddf0cd3full, 0x88e8995c9f7e7432ull},  // s820.jc.sd
      {0x69e4dc5970c531bbull, 0x73f6f8e80c673f32ull},  // s820.jc.sr
      {0x3d6966d6b5ed68e0ull, 0xec224b51f9e19294ull},  // s820.ji.sr
      {0x0afa3d997ab23fefull, 0x0a3f995d7c2d45c3ull},  // s820.jo.sd
      {0xc65d6e2fb5748eaeull, 0x6148458daf793b8cull},  // s820.jo.sr
      {0xa55f8401fd1b6602ull, 0x507323bcea7b594dull},  // s832.jc.sr
      {0xb63cc31b313f91acull, 0x03fa5ef8ce0a803eull},  // s832.jo.sr
      {0x110e0a1689a08cdbull, 0x61081c91464aaaf2ull},  // scf.ji.sd
      {0x9dcaea9bbeeed8b1ull, 0xeb37274b35cb4f2aull},  // scf.jo.sd
  };
  static_assert(std::size(expected) == std::size(kPaperVariants));
  for (std::size_t i = 0; i < std::size(kPaperVariants); ++i) {
    const Circuit circuit = SynthesizeVariant(kPaperVariants[i]);
    SCOPED_TRACE(circuit.name());
    const retime::BuildResult build = retime::BuildGraph(circuit);
    const auto min_period = retime::MinimizePeriod(build.graph);
    const auto min_reg = retime::MinimizeRegisters(
        build.graph, min_period.period, &min_period.retiming);
    const Circuit retimed =
        retime::ApplyRetiming(circuit, build, min_reg.retiming).circuit;
    EXPECT_EQ(Fnv1a(netlist::WriteBenchString(circuit)), expected[i].original);
    EXPECT_EQ(Fnv1a(netlist::WriteBenchString(retimed)), expected[i].retimed);
  }
}

/// Everything a justification-style ATPG run commits, as one string:
/// per-fault status, the concatenated test stream and the work count.
std::string AtpgFingerprint(const atpg::AtpgResult& result) {
  std::string text;
  for (const atpg::FaultStatus status : result.status) {
    text += static_cast<char>('0' + static_cast<int>(status));
  }
  text += '|';
  for (const auto& vector : result.ConcatenatedTests()) {
    text += sim::ToString(vector);
    text += ',';
  }
  text += '|';
  text += std::to_string(result.evaluations);
  return text;
}

TEST(Integration, JustificationAtpgIsByteStable) {
  // The Table II engine at the perfbench `justify` limits: HITEC-style
  // justification, no random phase, 8 PODEM / 48 justification
  // backtracks and no wall-clock limit, so every search ends on its
  // deterministic limits.  Speed-ups of PODEM or of the justification
  // frame solver must leave every status, test vector and charged
  // evaluation unchanged, at 1 and at 4 threads.
  atpg::AtpgOptions options;
  options.style = atpg::AtpgStyle::kJustification;
  options.random_rounds = 0;
  options.backtracks_per_fault = 8;
  options.justify_backtracks = 48;
  options.time_budget_ms = 24L * 3600 * 1000;

  const auto retimed_of = [](const Circuit& circuit) {
    const retime::BuildResult build = retime::BuildGraph(circuit);
    const auto min_period = retime::MinimizePeriod(build.graph);
    const auto min_reg = retime::MinimizeRegisters(
        build.graph, min_period.period, &min_period.retiming);
    return retime::ApplyRetiming(circuit, build, min_reg.retiming).circuit;
  };
  const Circuit dk16 = SynthesizeVariant(kPaperVariants[0]);
  const Circuit s820 = SynthesizeVariant(kPaperVariants[7]);  // s820.jc.sd
  const struct {
    Circuit circuit;
    std::uint64_t expected;
  } cases[] = {
      {dk16, 0x2eb855a946a9dfc9ull},
      {retimed_of(dk16), 0x0eebf445bdd93179ull},
      {retimed_of(s820), 0x45cb87f00c94f377ull},
  };
  for (const auto& entry : cases) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(entry.circuit.name() + " threads=" +
                   std::to_string(threads));
      options.num_threads = threads;
      const atpg::AtpgResult result = atpg::RunAtpg(entry.circuit, options);
      EXPECT_FALSE(result.preempted);
      EXPECT_EQ(Fnv1a(AtpgFingerprint(result)), entry.expected)
          << std::hex << Fnv1a(AtpgFingerprint(result));
    }
  }
}

}  // namespace
}  // namespace retest
