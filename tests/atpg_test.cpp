#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "atpg/justify.h"
#include "atpg/podem.h"
#include "atpg/unrolled.h"
#include "fault/collapse.h"
#include "faultsim/serial.h"
#include "fsm/benchmarks.h"
#include "netlist/builder.h"
#include "sim/levelizer.h"
#include "synth/synthesize.h"
#include "tests/paper_circuits.h"
#include "tests/random_circuits.h"

namespace retest::atpg {
namespace {

using netlist::Builder;
using netlist::Circuit;
using sim::FromString;
using sim::V3;

TEST(V5Values, Predicates) {
  EXPECT_TRUE(V5::D().IsFaultEffect());
  EXPECT_TRUE(V5::Dbar().IsFaultEffect());
  EXPECT_FALSE(V5::One().IsFaultEffect());
  EXPECT_TRUE(V5::One().IsBinary());
  EXPECT_FALSE(V5::X().IsBinary());
  EXPECT_TRUE(V5::X().HasUnknown());
  EXPECT_FALSE(V5::D().HasUnknown());
}

Circuit CombAnd() {
  Builder builder("comb");
  builder.Input("a").Input("b");
  builder.And("g", {"a", "b"});
  builder.Output("z", "g");
  return builder.Build();
}

TEST(Unrolled, CombinationalFaultEffect) {
  const Circuit circuit = CombAnd();
  const fault::Fault fault{{circuit.Find("g"), -1}, false};
  UnrolledModel model(circuit, fault, 1);
  model.AssignPi({0, 0}, V3::k1);
  model.AssignPi({0, 1}, V3::k1);
  model.Evaluate();
  EXPECT_TRUE(model.FaultExcited());
  EXPECT_TRUE(model.FaultObserved());
  EXPECT_EQ(model.value({0, circuit.Find("g")}), V5::D());
}

TEST(Unrolled, UnknownInitialStateIsPinned) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, true};
  UnrolledModel model(circuit, fault, 2);
  model.Evaluate();
  // Frame-0 DFF outputs are X and not controllable.
  EXPECT_FALSE(model.Controllable({0, circuit.Find("q1")}));
  EXPECT_TRUE(model.Controllable({1, circuit.Find("q1")}));
}

TEST(Unrolled, FreeStateIsControllable) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, true};
  UnrolledModel model(circuit, fault, 1, /*free_state=*/true);
  EXPECT_TRUE(model.Controllable({0, circuit.Find("q1")}));
  model.AssignState(0, V3::k1);
  model.Evaluate();
  EXPECT_EQ(model.value({0, circuit.Find("q1")}).good, V3::k1);
}

TEST(Podem, FindsCombinationalTest) {
  const Circuit circuit = CombAnd();
  const fault::Fault fault{{circuit.Find("g"), -1}, false};
  UnrolledModel model(circuit, fault, 1);
  const PodemResult result = RunPodem(model);
  ASSERT_EQ(result.status, PodemStatus::kFound);
  const auto test = model.InputSequence();
  EXPECT_EQ(test[0][0], V3::k1);
  EXPECT_EQ(test[0][1], V3::k1);
}

TEST(Podem, ProvesCombinationalRedundancy) {
  // z = OR(a, AND(a, b)): the AND is functionally absorbed; its
  // s-a-0 output fault is undetectable.
  Builder builder("red");
  builder.Input("a").Input("b");
  builder.And("g", {"a", "b"}).Or("z1", {"a", "g"});
  builder.Output("z", "z1");
  const Circuit circuit = builder.Build();
  const fault::Fault fault{{circuit.Find("g"), -1}, false};
  UnrolledModel model(circuit, fault, 1, /*free_state=*/true,
                      /*observe_state=*/true);
  const PodemResult result = RunPodem(model);
  EXPECT_EQ(result.status, PodemStatus::kExhausted);
}

TEST(Podem, SequentialFaultNeedsTwoFrames) {
  // Fig. 5's N1: a fault on g1 needs one frame to set up q1/q2 and a
  // second to propagate (plus one more for the output register).
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, false};
  {
    UnrolledModel model(circuit, fault, 1);
    EXPECT_NE(RunPodem(model).status, PodemStatus::kFound);
  }
  UnrolledModel model(circuit, fault, 4);
  const PodemResult result = RunPodem(model);
  ASSERT_EQ(result.status, PodemStatus::kFound);
  // Cross-check with the independent serial fault simulator.
  auto test = model.InputSequence();
  for (auto& vector : test) {
    for (auto& v : vector) {
      if (v == V3::kX) v = V3::k0;
    }
  }
  const auto detections =
      faultsim::SimulateSerial(circuit, std::span(&fault, 1), test);
  EXPECT_TRUE(detections[0].detected);
}

TEST(Podem, RespectsBacktrackLimit) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, false};
  UnrolledModel model(circuit, fault, 4);
  PodemOptions options;
  options.max_evaluations = 10;  // absurdly small
  const PodemResult result = RunPodem(model, options);
  EXPECT_EQ(result.status, PodemStatus::kAborted);
}

TEST(Engine, FullCoverageOnSmallCircuit) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  AtpgOptions options;
  options.seed = 3;
  const AtpgResult result = RunAtpg(circuit, options);
  EXPECT_EQ(result.Count(FaultStatus::kUntried), 0);
  EXPECT_GE(result.FaultCoverage(), 99.0);
  EXPECT_GE(result.FaultEfficiency(), result.FaultCoverage());
  EXPECT_FALSE(result.tests.empty());
}

TEST(Engine, GeneratedTestsActuallyDetect) {
  // Every fault the engine reports detected must be detected by the
  // concatenated test stream under independent fault simulation.
  const Circuit circuit = retest::testing::MakeFig3L1();
  AtpgOptions options;
  options.seed = 5;
  const AtpgResult result = RunAtpg(circuit, options);
  const auto stream = result.ConcatenatedTests();
  const auto detections =
      faultsim::SimulateSerial(circuit, result.faults, stream);
  for (size_t i = 0; i < result.faults.size(); ++i) {
    if (result.status[i] == FaultStatus::kDetected) {
      EXPECT_TRUE(detections[i].detected)
          << fault::ToString(circuit, result.faults[i]);
    }
  }
}

TEST(Engine, FindsRedundantFault) {
  Builder builder("red_seq");
  builder.Input("a").Input("b");
  builder.And("g", {"a", "b"}).Or("h", {"a", "g"});
  builder.Dff("q", "h").Output("z", "q");
  const Circuit circuit = builder.Build();
  const AtpgResult result = RunAtpg(circuit);
  EXPECT_GT(result.Count(FaultStatus::kRedundant), 0);
  EXPECT_DOUBLE_EQ(result.FaultEfficiency(), 100.0);
}

TEST(Engine, HonoursTimeBudget) {
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  synth::SynthesisOptions synthesis;
  const Circuit circuit = Synthesize(machine, synthesis);
  AtpgOptions options;
  options.time_budget_ms = 1;  // essentially no time
  options.random_rounds = 0;
  const AtpgResult result = RunAtpg(circuit, options);
  EXPECT_GT(result.Count(FaultStatus::kUntried), 0);
}

TEST(Unrolled, IncrementalMatchesFullEvaluation) {
  // Random assignment/unassignment sequences: the event-driven values
  // must equal a from-scratch evaluation at every step.
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, false};
  UnrolledModel incremental(circuit, fault, 4);
  UnrolledModel reference(circuit, fault, 4);
  std::uint64_t state = 99;
  auto next = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int step = 0; step < 200; ++step) {
    const FramePi pi{static_cast<int>(next() % 4),
                     static_cast<int>(next() % 3)};
    const V3 value = static_cast<V3>(next() % 3);
    incremental.AssignPi(pi, value);
    reference.AssignPi(pi, value);
    reference.Evaluate();
    for (int t = 0; t < 4; ++t) {
      for (netlist::NodeId id = 0; id < circuit.size(); ++id) {
        ASSERT_EQ(incremental.value({t, id}), reference.value({t, id}))
            << "step " << step << " frame " << t << " node "
            << circuit.node(id).name;
      }
    }
    ASSERT_EQ(incremental.FaultObserved(), reference.FaultObserved());
    ASSERT_EQ(incremental.FaultExcited(), reference.FaultExcited());
  }
}

TEST(Unrolled, SetFaultMatchesFreshConstruction) {
  // A model re-armed with SetFault must be indistinguishable from a
  // freshly constructed one, fault after fault, including under
  // incremental assignments.
  const Circuit circuit = retest::testing::MakeFig5N1();
  const auto faults = fault::Collapse(circuit).representatives;
  ASSERT_GT(faults.size(), 2u);
  UnrolledModel reused(circuit, faults[0], 4);
  std::uint64_t state = 17;
  auto next = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (const fault::Fault& fault : faults) {
    reused.SetFault(fault);
    UnrolledModel fresh(circuit, fault, 4);
    for (int step = 0; step < 30; ++step) {
      const FramePi pi{static_cast<int>(next() % 4),
                       static_cast<int>(next() % 3)};
      const V3 value = static_cast<V3>(next() % 3);
      reused.AssignPi(pi, value);
      fresh.AssignPi(pi, value);
    }
    for (int t = 0; t < 4; ++t) {
      for (netlist::NodeId id = 0; id < circuit.size(); ++id) {
        ASSERT_EQ(reused.value({t, id}), fresh.value({t, id}))
            << fault::ToString(circuit, fault) << " frame " << t << " node "
            << circuit.node(id).name;
      }
    }
    ASSERT_EQ(reused.FaultObserved(), fresh.FaultObserved());
    ASSERT_EQ(reused.FaultExcited(), fresh.FaultExcited());
    ASSERT_EQ(reused.InputSequence(), fresh.InputSequence());
  }
}

TEST(Unrolled, GrowFramesMatchesFreshConstruction) {
  // Depth doubling on one reusable model (including shrinking back for
  // the next fault) must match construction at the target depth.
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, false};
  UnrolledModel grown(circuit, fault, 1);
  std::uint64_t state = 23;
  auto next = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int frames : {2, 4, 8, 1, 4}) {  // grow, shrink, regrow
    grown.GrowFrames(frames);
    UnrolledModel fresh(circuit, fault, frames);
    for (int step = 0; step < 25; ++step) {
      const FramePi pi{static_cast<int>(next() % frames),
                       static_cast<int>(next() % 3)};
      const V3 value = static_cast<V3>(next() % 3);
      grown.AssignPi(pi, value);
      fresh.AssignPi(pi, value);
    }
    ASSERT_EQ(grown.frames(), frames);
    ASSERT_EQ(grown.InputSequence().size(), static_cast<size_t>(frames));
    for (int t = 0; t < frames; ++t) {
      for (netlist::NodeId id = 0; id < circuit.size(); ++id) {
        ASSERT_EQ(grown.value({t, id}), fresh.value({t, id}))
            << frames << " frames, frame " << t << " node "
            << circuit.node(id).name;
      }
    }
    ASSERT_EQ(grown.FaultObserved(), fresh.FaultObserved());
    ASSERT_EQ(grown.FaultExcited(), fresh.FaultExcited());
  }
}

TEST(Unrolled, SetFaultMatchesFreshFreeObservedModel) {
  // The redundancy-proof configuration (free + observed state) must
  // also be reusable: PODEM verdicts agree with fresh models.
  const Circuit circuit = retest::testing::MakeFig5N1();
  const auto faults = fault::Collapse(circuit).representatives;
  UnrolledModel reused(circuit, faults[0], 1, /*free_state=*/true,
                       /*observe_state=*/true);
  for (const fault::Fault& fault : faults) {
    reused.SetFault(fault);
    UnrolledModel fresh(circuit, fault, 1, /*free_state=*/true,
                        /*observe_state=*/true);
    const PodemResult a = RunPodem(reused);
    const PodemResult b = RunPodem(fresh);
    ASSERT_EQ(a.status, b.status) << fault::ToString(circuit, fault);
    ASSERT_EQ(a.backtracks, b.backtracks);
    ASSERT_EQ(reused.InputSequence(), fresh.InputSequence());
  }
}

TEST(Justify, TrivialTargetNeedsNothing) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  const std::vector<V3> target(3, V3::kX);
  const auto result = JustifyState(circuit, target);
  EXPECT_EQ(result.status, JustifyStatus::kJustified);
  EXPECT_TRUE(result.sequence.empty());
}

TEST(Justify, ReachableStateIsJustified) {
  // N1's state is (q1, q2, q3) = (i1, i2, OR(AND(q1,q2), i3)) one cycle
  // later: any binary state is reachable in two frames.
  const Circuit circuit = retest::testing::MakeFig5N1();
  for (int code = 0; code < 8; ++code) {
    std::vector<V3> target(3);
    for (int b = 0; b < 3; ++b) {
      target[static_cast<size_t>(b)] = (code >> b) & 1 ? V3::k1 : V3::k0;
    }
    const auto result = JustifyState(circuit, target);
    ASSERT_EQ(result.status, JustifyStatus::kJustified) << code;
    // Verify by forward simulation: every non-X target bit must hold.
    sim::Simulator simulator(circuit);
    simulator.Reset();
    for (const auto& vector : result.sequence) simulator.Step(vector);
    const auto state = simulator.State();
    for (int b = 0; b < 3; ++b) {
      EXPECT_EQ(state[static_cast<size_t>(b)], target[static_cast<size_t>(b)])
          << "code " << code << " bit " << b;
    }
  }
}

TEST(Justify, UnreachableStateFails) {
  // A toggle register q = DFF(NOT q) observed via AND; its companion
  // register q2 = DFF(q) always holds the *opposite* of q one cycle
  // later... construct directly: q2 = DFF(q): (q, q2) = (v, v) is
  // unreachable after the first frame since q2(t+1) = q(t) = NOT
  // q(t+1).
  Builder builder("unreach");
  builder.Input("x").Dff("q").Dff("q2", "q");
  builder.Not("d", "q").SetDffInput("q", "d");
  builder.And("z1", {"x", "q2"}).Output("z", "z1");
  const Circuit circuit = builder.Build();
  atpg::JustifyOptions options;
  options.max_depth = 8;
  const auto result =
      JustifyState(circuit, {V3::k1, V3::k1}, options);  // q == q2 == 1
  EXPECT_NE(result.status, JustifyStatus::kJustified);
}

TEST(Justify, CompositeJustificationSyncsFaultyMachine) {
  // With the fault g1 s-a-1 injected, justifying q3=0 must fail in N1:
  // the faulty machine's q3 is forced to OR(1, i3) = 1 every cycle.
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, true};
  const auto result =
      JustifyState(circuit, {V3::kX, V3::kX, V3::k0}, {}, fault);
  EXPECT_NE(result.status, JustifyStatus::kJustified);
  // The good machine alone could do it.
  const auto good = JustifyState(circuit, {V3::kX, V3::kX, V3::k0});
  EXPECT_EQ(good.status, JustifyStatus::kJustified);
}

// ---------------------------------------------------------------------
// Reference justification: the full-evaluation frame solver, which
// re-evaluates every node of the composite frame on every step.  Kept
// verbatim (minus the learned-result cache) as the oracle for the
// incremental, next-state-cone solver in atpg/justify.cpp.
namespace reference {

using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;

struct Budget {
  long backtracks = 0;
  long evaluations = 0;
  const JustifyOptions* options;
  bool Exhausted() const {
    return backtracks > options->max_backtracks ||
           evaluations > options->max_evaluations ||
           (options->stop != nullptr &&
            options->stop->load(std::memory_order_relaxed));
  }
};

class FrameSolver {
 public:
  FrameSolver(const Circuit& circuit, const sim::Levelization& levels,
              const std::vector<char>& pi_reachable,
              const std::vector<V3>& target,
              const std::optional<fault::Fault>& fault, Budget& budget)
      : circuit_(circuit),
        levels_(levels),
        pi_reachable_(pi_reachable),
        target_(target),
        fault_(fault),
        budget_(budget),
        values_(static_cast<size_t>(circuit.size()), V5::X()),
        pi_(static_cast<size_t>(circuit.num_inputs()), V3::kX),
        ppi_(static_cast<size_t>(circuit.num_dffs()), V3::kX) {}

  bool Next() {
    if (done_) return false;
    if (yielded_) {
      if (!Backtrack()) {
        done_ = true;
        return false;
      }
    }
    while (true) {
      if (budget_.Exhausted()) {
        done_ = true;
        return false;
      }
      Evaluate();
      const int verdict = CheckTargets();
      if (verdict == kSatisfied) {
        yielded_ = true;
        return true;
      }
      std::optional<Decision> decision;
      if (verdict >= 0) decision = Backtrace(verdict);
      if (decision) {
        Apply(*decision);
        stack_.push_back(*decision);
        continue;
      }
      ++budget_.backtracks;
      if (!Backtrack()) {
        done_ = true;
        return false;
      }
    }
  }

  const std::vector<V3>& inputs() const { return pi_; }
  const std::vector<V3>& predecessor() const { return ppi_; }

 private:
  static constexpr int kSatisfied = -1;
  static constexpr int kConflict = -2;

  struct Decision {
    int pi = -1;
    int ppi = -1;
    V3 value = V3::kX;
    bool flipped = false;
  };

  bool HasFaultAt(NodeId id, int pin) const {
    return fault_ && fault_->site.node == id && fault_->site.pin == pin;
  }
  V3 Forced() const { return fault_->stuck_at_1 ? V3::k1 : V3::k0; }

  void Evaluate() {
    const auto& pis = circuit_.inputs();
    for (size_t i = 0; i < pis.size(); ++i) {
      V5 v = Both(pi_[i]);
      if (HasFaultAt(pis[i], -1)) v.faulty = Forced();
      values_[static_cast<size_t>(pis[i])] = v;
    }
    const auto& dffs = circuit_.dffs();
    for (size_t i = 0; i < dffs.size(); ++i) {
      V5 v = Both(ppi_[i]);
      if (HasFaultAt(dffs[i], -1)) v.faulty = Forced();
      values_[static_cast<size_t>(dffs[i])] = v;
    }
    for (NodeId id : levels_.order) {
      const Node& node = circuit_.node(id);
      if (node.kind == NodeKind::kInput || node.kind == NodeKind::kDff) {
        continue;
      }
      ++budget_.evaluations;
      V5 out;
      auto fold = [&](V3 unit, auto&& op, bool invert) {
        out = Both(unit);
        for (size_t pin = 0; pin < node.fanin.size(); ++pin) {
          V5 in = values_[static_cast<size_t>(node.fanin[pin])];
          if (HasFaultAt(id, static_cast<int>(pin))) in.faulty = Forced();
          out.good = op(out.good, in.good);
          out.faulty = op(out.faulty, in.faulty);
        }
        if (invert) {
          out.good = sim::Not3(out.good);
          out.faulty = sim::Not3(out.faulty);
        }
      };
      switch (node.kind) {
        case NodeKind::kConst0: out = Both(V3::k0); break;
        case NodeKind::kConst1: out = Both(V3::k1); break;
        case NodeKind::kOutput:
        case NodeKind::kBuf:
        case NodeKind::kNot:
          out = values_[static_cast<size_t>(node.fanin[0])];
          if (HasFaultAt(id, 0)) out.faulty = Forced();
          if (node.kind == NodeKind::kNot) {
            out.good = sim::Not3(out.good);
            out.faulty = sim::Not3(out.faulty);
          }
          break;
        case NodeKind::kAnd: fold(V3::k1, sim::And3, false); break;
        case NodeKind::kNand: fold(V3::k1, sim::And3, true); break;
        case NodeKind::kOr: fold(V3::k0, sim::Or3, false); break;
        case NodeKind::kNor: fold(V3::k0, sim::Or3, true); break;
        case NodeKind::kXor: fold(V3::k0, sim::Xor3, false); break;
        case NodeKind::kXnor: fold(V3::k0, sim::Xor3, true); break;
        default: out = V5::X(); break;
      }
      if (HasFaultAt(id, -1)) out.faulty = Forced();
      values_[static_cast<size_t>(id)] = out;
    }
  }

  V5 Latched(size_t b) const {
    const NodeId dff = circuit_.dffs()[b];
    V5 v = values_[static_cast<size_t>(circuit_.node(dff).fanin[0])];
    if (HasFaultAt(dff, 0)) v.faulty = Forced();
    return v;
  }

  int CheckTargets() {
    int unsatisfied = kSatisfied;
    for (size_t b = 0; b < target_.size(); ++b) {
      if (target_[b] == V3::kX) continue;
      const V5 value = Latched(b);
      if ((value.good != V3::kX && value.good != target_[b]) ||
          (value.faulty != V3::kX && value.faulty != target_[b])) {
        return kConflict;
      }
      if (value.good == V3::kX || value.faulty == V3::kX) {
        if (unsatisfied == kSatisfied) unsatisfied = static_cast<int>(b);
      }
    }
    return unsatisfied;
  }

  std::optional<Decision> Backtrace(int target_bit) {
    NodeId where = circuit_.node(circuit_.dffs()[static_cast<size_t>(
        target_bit)]).fanin[0];
    V3 value = target_[static_cast<size_t>(target_bit)];
    for (int guard = 0; guard < 1'000'000; ++guard) {
      const Node& node = circuit_.node(where);
      switch (node.kind) {
        case NodeKind::kInput: {
          int pi_index = 0;
          for (NodeId pi : circuit_.inputs()) {
            if (pi == where) break;
            ++pi_index;
          }
          if (pi_[static_cast<size_t>(pi_index)] != V3::kX) {
            return std::nullopt;
          }
          Decision decision;
          decision.pi = pi_index;
          decision.value = value;
          return decision;
        }
        case NodeKind::kDff: {
          int ppi_index = 0;
          for (NodeId dff : circuit_.dffs()) {
            if (dff == where) break;
            ++ppi_index;
          }
          if (ppi_[static_cast<size_t>(ppi_index)] != V3::kX) {
            return std::nullopt;
          }
          Decision decision;
          decision.ppi = ppi_index;
          decision.value = value;
          return decision;
        }
        case NodeKind::kNot:
          value = sim::Not3(value);
          [[fallthrough]];
        case NodeKind::kBuf:
        case NodeKind::kOutput:
          where = node.fanin[0];
          break;
        case NodeKind::kNand:
        case NodeKind::kNor:
          value = sim::Not3(value);
          [[fallthrough]];
        case NodeKind::kAnd:
        case NodeKind::kOr:
        case NodeKind::kXor:
        case NodeKind::kXnor: {
          NodeId chosen = netlist::kNoNode;
          for (int pass = 0; pass < 2 && chosen == netlist::kNoNode; ++pass) {
            for (NodeId driver : node.fanin) {
              const V5& v = values_[static_cast<size_t>(driver)];
              if (v.good != V3::kX && v.faulty != V3::kX) continue;
              if (pass == 0 && !pi_reachable_[static_cast<size_t>(driver)]) {
                continue;
              }
              chosen = driver;
              break;
            }
          }
          if (chosen == netlist::kNoNode) return std::nullopt;
          where = chosen;
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;
  }

  void Apply(const Decision& decision) {
    if (decision.pi >= 0) {
      pi_[static_cast<size_t>(decision.pi)] = decision.value;
    } else {
      ppi_[static_cast<size_t>(decision.ppi)] = decision.value;
    }
  }

  bool Backtrack() {
    while (!stack_.empty()) {
      Decision& top = stack_.back();
      if (!top.flipped) {
        top.flipped = true;
        top.value = sim::Not3(top.value);
        Apply(top);
        return true;
      }
      if (top.pi >= 0) {
        pi_[static_cast<size_t>(top.pi)] = V3::kX;
      } else {
        ppi_[static_cast<size_t>(top.ppi)] = V3::kX;
      }
      stack_.pop_back();
    }
    return false;
  }

  const Circuit& circuit_;
  const sim::Levelization& levels_;
  const std::vector<char>& pi_reachable_;
  const std::vector<V3>& target_;
  const std::optional<fault::Fault>& fault_;
  Budget& budget_;
  std::vector<V5> values_;
  std::vector<V3> pi_;
  std::vector<V3> ppi_;
  std::vector<Decision> stack_;
  bool yielded_ = false;
  bool done_ = false;
};

class Justifier {
 public:
  Justifier(const Circuit& circuit, const JustifyOptions& options,
            const std::optional<fault::Fault>& fault)
      : circuit_(circuit),
        options_(options),
        fault_(fault),
        levels_(sim::Levelize(circuit)) {
    budget_.options = &options_;
    pi_reachable_.assign(static_cast<size_t>(circuit.size()), 0);
    for (NodeId id : levels_.order) {
      const Node& node = circuit.node(id);
      if (node.kind == NodeKind::kInput) {
        pi_reachable_[static_cast<size_t>(id)] = 1;
      } else if (node.kind == NodeKind::kDff) {
        pi_reachable_[static_cast<size_t>(id)] = 0;
      } else {
        char value = 0;
        for (NodeId driver : node.fanin) {
          value |= pi_reachable_[static_cast<size_t>(driver)];
        }
        pi_reachable_[static_cast<size_t>(id)] = value;
      }
    }
  }

  JustifyResult Run(const std::vector<V3>& target) {
    JustifyResult result;
    sim::InputSequence sequence;
    const bool ok = Recurse(target, 0, sequence);
    result.backtracks = budget_.backtracks;
    result.evaluations = budget_.evaluations;
    if (ok) {
      result.status = JustifyStatus::kJustified;
      result.sequence = std::move(sequence);
    } else {
      result.status = budget_.Exhausted() ? JustifyStatus::kAborted
                                          : JustifyStatus::kFailed;
    }
    return result;
  }

 private:
  bool Recurse(const std::vector<V3>& target, int depth,
               sim::InputSequence& sequence) {
    bool trivial = true;
    for (V3 v : target) trivial &= (v == V3::kX);
    if (trivial) return true;
    if (depth >= options_.max_depth || budget_.Exhausted()) return false;
    FrameSolver solver(circuit_, levels_, pi_reachable_, target, fault_,
                       budget_);
    while (solver.Next()) {
      if (Recurse(solver.predecessor(), depth + 1, sequence)) {
        std::vector<V3> vector = solver.inputs();
        for (V3& v : vector) {
          if (v == V3::kX) v = V3::k0;
        }
        sequence.push_back(std::move(vector));
        return true;
      }
    }
    return false;
  }

  const Circuit& circuit_;
  JustifyOptions options_;
  std::optional<fault::Fault> fault_;
  sim::Levelization levels_;
  std::vector<char> pi_reachable_;
  Budget budget_;
};

JustifyResult JustifyState(const Circuit& circuit,
                           const std::vector<V3>& target,
                           const JustifyOptions& options,
                           const std::optional<fault::Fault>& fault) {
  Justifier justifier(circuit, options, fault);
  return justifier.Run(target);
}

}  // namespace reference

/// Faults exercising every injection point of the composite frame:
/// stems (PIs, DFF outputs, gates), fanout-branch pins and DFF data
/// pins, both polarities.
std::vector<std::optional<fault::Fault>> JustifyFaults(const Circuit& circuit) {
  std::vector<std::optional<fault::Fault>> faults{std::nullopt};
  for (const fault::Fault& f : fault::EnumerateFaults(circuit)) {
    faults.push_back(f);
  }
  for (const netlist::NodeId dff : circuit.dffs()) {
    faults.push_back(fault::Fault{{dff, 0}, false});
    faults.push_back(fault::Fault{{dff, 0}, true});
  }
  return faults;
}

TEST(Justify, IncrementalSolverMatchesFullEvaluation) {
  // The event-driven, next-state-cone frame solver must make the very
  // same decisions as a full re-evaluation of the frame on every step:
  // equal status, sequence, backtracks and charged evaluations, for
  // random targets with and without stem, pin and DFF-data-pin faults,
  // fresh per call or reused across faults (one Justifier per circuit,
  // as each ATPG worker keeps one).
  std::vector<Circuit> circuits;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    circuits.push_back(retest::testing::MakeRandomCircuit(seed));
  }
  retest::testing::RandomCircuitOptions larger;
  larger.num_inputs = 5;
  larger.num_dffs = 7;
  larger.num_gates = 45;
  for (std::uint64_t seed = 101; seed <= 106; ++seed) {
    circuits.push_back(retest::testing::MakeRandomCircuit(seed, larger));
  }
  circuits.push_back(retest::testing::MakeFig5N1());
  circuits.push_back(retest::testing::MakeFig5Pair().applied.circuit);

  retest::testing::TestRng rng{2024};
  long compared = 0;
  long justified = 0;
  long aborted = 0;
  for (const Circuit& circuit : circuits) {
    SCOPED_TRACE(circuit.name());
    Justifier reused(circuit);
    for (const std::optional<fault::Fault>& fault : JustifyFaults(circuit)) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<V3> target(static_cast<size_t>(circuit.num_dffs()));
        for (V3& v : target) {
          const int draw = rng.Below(3);
          v = draw == 0 ? V3::k0 : draw == 1 ? V3::k1 : V3::kX;
        }
        JustifyOptions options;
        options.max_depth = 1 + rng.Below(6);
        options.max_backtracks = 1 + rng.Below(60);
        // Sometimes make the evaluation limit the one that binds.
        if (rng.Below(4) == 0) {
          options.max_evaluations = 1 + rng.Below(40 * circuit.size());
        }
        const JustifyResult expected =
            reference::JustifyState(circuit, target, options, fault);
        const JustifyResult fresh =
            JustifyState(circuit, target, options, fault);
        const JustifyResult again = reused.Run(target, options, fault);
        const std::string where =
            (fault ? fault::ToString(circuit, *fault) : "fault-free") +
            " target " + sim::ToString(target);
        for (const JustifyResult* actual : {&fresh, &again}) {
          ASSERT_EQ(actual->status, expected.status) << where;
          ASSERT_EQ(actual->sequence, expected.sequence) << where;
          ASSERT_EQ(actual->backtracks, expected.backtracks) << where;
          ASSERT_EQ(actual->evaluations, expected.evaluations) << where;
        }
        // The reused justifier only skips the fault's baseline frame.
        ASSERT_LE(again.gate_evals, fresh.gate_evals) << where;
        ++compared;
        justified += expected.status == JustifyStatus::kJustified ? 1 : 0;
        aborted += expected.status == JustifyStatus::kAborted ? 1 : 0;
      }
    }
  }
  // Not vacuous: every outcome occurs.
  EXPECT_GT(compared, 1000);
  EXPECT_GT(justified, 0);
  EXPECT_GT(aborted, 0);
  EXPECT_GT(compared - justified - aborted, 0);
}

TEST(Engine, JustificationStyleDetectsAndVerifies) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  AtpgOptions options;
  options.style = AtpgStyle::kJustification;
  options.random_rounds = 0;
  const AtpgResult result = RunAtpg(circuit, options);
  EXPECT_GE(result.FaultCoverage(), 90.0);
  // Every claimed detection holds under independent fault simulation.
  const auto stream = result.ConcatenatedTests();
  const auto detections =
      faultsim::SimulateSerial(circuit, result.faults, stream);
  for (size_t i = 0; i < result.faults.size(); ++i) {
    if (result.status[i] == FaultStatus::kDetected) {
      EXPECT_TRUE(detections[i].detected)
          << fault::ToString(circuit, result.faults[i]);
    }
  }
}

TEST(Engine, CoverageOnSynthesizedFsm) {
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  synth::SynthesisOptions synthesis;
  synthesis.explicit_reset = true;
  const Circuit circuit = Synthesize(machine, synthesis);
  AtpgOptions options;
  options.time_budget_ms = 20'000;
  const AtpgResult result = RunAtpg(circuit, options);
  EXPECT_GE(result.FaultCoverage(), 90.0);
}

}  // namespace
}  // namespace retest::atpg
