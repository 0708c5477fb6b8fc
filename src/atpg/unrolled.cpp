#include "atpg/unrolled.h"

#include <algorithm>
#include <stdexcept>

#include "core/metrics.h"

namespace retest::atpg {

using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;
using sim::V3;

UnrolledModel::UnrolledModel(const netlist::Circuit& circuit,
                             const fault::Fault& fault, int frames,
                             bool free_state, bool observe_state)
    : circuit_(&circuit),
      fault_(fault),
      frames_(frames),
      free_state_(free_state),
      observe_state_(observe_state),
      levels_(sim::Levelize(circuit)) {
  if (frames <= 0) throw std::invalid_argument("UnrolledModel: frames <= 0");
  observe_node_ = ObserveNodeFor(fault_);
  state_assignments_.assign(static_cast<size_t>(circuit.num_dffs()), V3::kX);
  EnsureCapacity(frames);
  Reset();
}

netlist::NodeId UnrolledModel::ObserveNodeFor(const fault::Fault& fault) const {
  return fault.site.pin < 0
             ? fault.site.node
             : circuit_->node(fault.site.node)
                   .fanin[static_cast<size_t>(fault.site.pin)];
}

void UnrolledModel::EnsureCapacity(int frames) {
  if (frames <= frames_built_) return;
  const netlist::Circuit& circuit = *circuit_;
  const size_t total =
      static_cast<size_t>(frames) * static_cast<size_t>(circuit.size());
  assignments_.resize(
      static_cast<size_t>(frames),
      std::vector<V3>(static_cast<size_t>(circuit.num_inputs()), V3::kX));
  values_.resize(total, V5::X());
  queued_.resize(total, 0);
  buckets_.resize(static_cast<size_t>(frames) *
                  static_cast<size_t>(levels_.depth + 2));
  latched_effect_.resize(
      static_cast<size_t>(frames) * static_cast<size_t>(circuit.num_dffs()),
      0);
  excited_.resize(static_cast<size_t>(frames), 0);

  // Static controllability: a decision input lies in the cone.  The
  // per-frame recurrence only looks at frame t-1, so new frames extend
  // the existing tables.
  controllable_.resize(total, 0);
  for (int t = frames_built_; t < frames; ++t) {
    for (NodeId id : levels_.order) {
      const Node& node = circuit.node(id);
      char value = 0;
      switch (node.kind) {
        case NodeKind::kInput:
          value = 1;
          break;
        case NodeKind::kDff:
          value = t == 0 ? (free_state_ ? 1 : 0)
                         : controllable_[index(t - 1, node.fanin[0])];
          break;
        case NodeKind::kConst0:
        case NodeKind::kConst1:
          value = 0;
          break;
        default:
          for (NodeId driver : node.fanin) {
            value |= controllable_[index(t, driver)];
          }
          break;
      }
      controllable_[index(t, id)] = value;
    }
  }
  // Real-PI reachability (state bits excluded even in free_state).
  pi_reachable_.resize(total, 0);
  for (int t = frames_built_; t < frames; ++t) {
    for (NodeId id : levels_.order) {
      const Node& node = circuit.node(id);
      char value = 0;
      switch (node.kind) {
        case NodeKind::kInput:
          value = 1;
          break;
        case NodeKind::kDff:
          value = t == 0 ? 0 : pi_reachable_[index(t - 1, node.fanin[0])];
          break;
        case NodeKind::kConst0:
        case NodeKind::kConst1:
          break;
        default:
          for (NodeId driver : node.fanin) {
            value |= pi_reachable_[index(t, driver)];
          }
          break;
      }
      pi_reachable_[index(t, id)] = value;
    }
  }
  // Fault-free all-X baseline (the Reset restore image).  Frame t only
  // reads frame t-1, so new frames extend the existing image.
  baseline_.resize(total, V5::X());
  for (int t = frames_built_; t < frames; ++t) {
    for (NodeId id : levels_.order) {
      baseline_[index(t, id)] = Both(BaselineGood(t, id));
    }
  }
  frames_built_ = frames;
}

V3 UnrolledModel::BaselineGood(int t, NodeId id) const {
  const Node& node = circuit_->node(id);
  switch (node.kind) {
    case NodeKind::kInput:
      return V3::kX;  // all-X assignment by definition
    case NodeKind::kDff:
      // Frame 0 carries the unknown (or unassigned free) state.
      return t == 0 ? V3::kX : baseline_[index(t - 1, node.fanin[0])].good;
    case NodeKind::kConst0:
      return V3::k0;
    case NodeKind::kConst1:
      return V3::k1;
    case NodeKind::kOutput:
    case NodeKind::kBuf:
      return baseline_[index(t, node.fanin[0])].good;
    case NodeKind::kNot:
      return sim::Not3(baseline_[index(t, node.fanin[0])].good);
    case NodeKind::kAnd:
    case NodeKind::kNand: {
      V3 out = V3::k1;
      for (NodeId driver : node.fanin) {
        out = sim::And3(out, baseline_[index(t, driver)].good);
      }
      return node.kind == NodeKind::kNand ? sim::Not3(out) : out;
    }
    case NodeKind::kOr:
    case NodeKind::kNor: {
      V3 out = V3::k0;
      for (NodeId driver : node.fanin) {
        out = sim::Or3(out, baseline_[index(t, driver)].good);
      }
      return node.kind == NodeKind::kNor ? sim::Not3(out) : out;
    }
    case NodeKind::kXor:
    case NodeKind::kXnor: {
      V3 out = V3::k0;
      for (NodeId driver : node.fanin) {
        out = sim::Xor3(out, baseline_[index(t, driver)].good);
      }
      return node.kind == NodeKind::kXnor ? sim::Not3(out) : out;
    }
  }
  return V3::kX;
}

void UnrolledModel::Reset() {
  RETEST_COUNTER_ADD("atpg.model.resets", "resets", "atpg",
                     "UnrolledModel baseline restores", 1);
  for (auto& vector : assignments_) {
    std::fill(vector.begin(), vector.end(), V3::kX);
  }
  std::fill(state_assignments_.begin(), state_assignments_.end(), V3::kX);
  // Restore the fault-free all-X baseline over the logical frames.
  // Frames beyond frames_ may hold stale values from an earlier,
  // deeper search, but nothing reads them before a later Reset (via
  // GrowFrames/SetFault) restores that range too.
  const size_t active =
      static_cast<size_t>(frames_) * static_cast<size_t>(circuit_->size());
  std::copy(baseline_.begin(), baseline_.begin() + static_cast<long>(active),
            values_.begin());
  std::fill(latched_effect_.begin(), latched_effect_.end(), 0);
  effect_nodes_.clear();
  observed_count_ = 0;
  // Excitation bookkeeping against the restored values: the good value
  // at the observe node is the baseline one (fault injection only
  // changes faulty components, and only downstream).
  const V3 stuck = fault_.stuck_at_1 ? V3::k1 : V3::k0;
  std::fill(excited_.begin(), excited_.end(), 0);
  excited_count_ = 0;
  for (int t = 0; t < frames_; ++t) {
    const V3 good = values_[index(t, observe_node_)].good;
    if (good != V3::kX && good != stuck) {
      excited_[static_cast<size_t>(t)] = 1;
      ++excited_count_;
    }
  }
  // Pseudo-PO observations of the restored image.  A fault on a DFF
  // data pin shows as a latched effect even where the values match the
  // baseline (LatchedValue applies the pin fault itself), so this must
  // be re-derived rather than zeroed.
  if (observe_state_) {
    for (int t = 0; t < frames_; ++t) {
      for (int i = 0; i < circuit_->num_dffs(); ++i) {
        UpdateLatchedObservation(t, i);
      }
    }
  }
  // Re-inject the fault: only its downstream cone can differ from the
  // fault-free baseline.
  for (int t = 0; t < frames_; ++t) Touch(t, fault_.site.node);
  Propagate();
}

void UnrolledModel::SetFault(const fault::Fault& fault, int frames) {
  RETEST_COUNTER_ADD("atpg.model.set_fault", "re-arms", "atpg",
                     "UnrolledModel re-arms for another fault", 1);
  fault_ = fault;
  observe_node_ = ObserveNodeFor(fault_);
  if (frames > 0) {
    EnsureCapacity(frames);
    frames_ = frames;
  }
  Reset();
}

void UnrolledModel::GrowFrames(int frames) {
  if (frames <= 0) throw std::invalid_argument("GrowFrames: frames <= 0");
  RETEST_COUNTER_ADD("atpg.model.grow_frames", "re-arms", "atpg",
                     "UnrolledModel unroll-depth changes", 1);
  RETEST_DIST_RECORD("atpg.model.frames", "frames", "atpg",
                     "unroll depth requested via GrowFrames", frames);
  EnsureCapacity(frames);
  frames_ = frames;
  Reset();
}

V5 UnrolledModel::Compute(int t, NodeId id) const {
  const netlist::Circuit& circuit = *circuit_;
  const Node& node = circuit.node(id);
  const V3 forced = fault_.stuck_at_1 ? V3::k1 : V3::k0;
  const bool branch_fault = fault_.site.node == id && fault_.site.pin >= 0;
  const bool stem_fault = fault_.site.node == id && fault_.site.pin < 0;

  V5 out;
  switch (node.kind) {
    case NodeKind::kInput: {
      int pi_index = 0;
      for (NodeId pi : circuit.inputs()) {
        if (pi == id) break;
        ++pi_index;
      }
      out = Both(assignments_[static_cast<size_t>(t)]
                             [static_cast<size_t>(pi_index)]);
      break;
    }
    case NodeKind::kDff: {
      if (t == 0) {
        if (free_state_) {
          size_t dff_index = 0;
          for (NodeId dff : circuit.dffs()) {
            if (dff == id) break;
            ++dff_index;
          }
          out = Both(state_assignments_[dff_index]);
        } else {
          out = V5::X();
        }
      } else {
        out = values_[index(t - 1, node.fanin[0])];
        if (branch_fault) out.faulty = forced;  // data-pin fault
      }
      break;
    }
    case NodeKind::kConst0:
      out = Both(V3::k0);
      break;
    case NodeKind::kConst1:
      out = Both(V3::k1);
      break;
    case NodeKind::kOutput:
    case NodeKind::kBuf:
    case NodeKind::kNot: {
      out = values_[index(t, node.fanin[0])];
      if (branch_fault) out.faulty = forced;
      if (node.kind == NodeKind::kNot) {
        out.good = sim::Not3(out.good);
        out.faulty = sim::Not3(out.faulty);
      }
      break;
    }
    case NodeKind::kAnd:
    case NodeKind::kNand: {
      out = Both(V3::k1);
      for (size_t pin = 0; pin < node.fanin.size(); ++pin) {
        V5 in = values_[index(t, node.fanin[pin])];
        if (branch_fault && static_cast<int>(pin) == fault_.site.pin) {
          in.faulty = forced;
        }
        out.good = sim::And3(out.good, in.good);
        out.faulty = sim::And3(out.faulty, in.faulty);
      }
      if (node.kind == NodeKind::kNand) {
        out.good = sim::Not3(out.good);
        out.faulty = sim::Not3(out.faulty);
      }
      break;
    }
    case NodeKind::kOr:
    case NodeKind::kNor: {
      out = Both(V3::k0);
      for (size_t pin = 0; pin < node.fanin.size(); ++pin) {
        V5 in = values_[index(t, node.fanin[pin])];
        if (branch_fault && static_cast<int>(pin) == fault_.site.pin) {
          in.faulty = forced;
        }
        out.good = sim::Or3(out.good, in.good);
        out.faulty = sim::Or3(out.faulty, in.faulty);
      }
      if (node.kind == NodeKind::kNor) {
        out.good = sim::Not3(out.good);
        out.faulty = sim::Not3(out.faulty);
      }
      break;
    }
    case NodeKind::kXor:
    case NodeKind::kXnor: {
      out = Both(V3::k0);
      for (size_t pin = 0; pin < node.fanin.size(); ++pin) {
        V5 in = values_[index(t, node.fanin[pin])];
        if (branch_fault && static_cast<int>(pin) == fault_.site.pin) {
          in.faulty = forced;
        }
        out.good = sim::Xor3(out.good, in.good);
        out.faulty = sim::Xor3(out.faulty, in.faulty);
      }
      if (node.kind == NodeKind::kXnor) {
        out.good = sim::Not3(out.good);
        out.faulty = sim::Not3(out.faulty);
      }
      break;
    }
  }
  if (stem_fault) out.faulty = forced;
  return out;
}

void UnrolledModel::UpdateLatchedObservation(int t, int dff_index) {
  const size_t slot = static_cast<size_t>(t) *
                          static_cast<size_t>(circuit_->num_dffs()) +
                      static_cast<size_t>(dff_index);
  const char now = LatchedValue(t, dff_index).IsFaultEffect() ? 1 : 0;
  if (now != latched_effect_[slot]) {
    latched_effect_[slot] = now;
    observed_count_ += now ? 1 : -1;
  }
}

bool UnrolledModel::Install(int t, NodeId id, const V5& value) {
  V5& slot = values_[index(t, id)];
  if (slot == value) return false;
  const bool was_effect = slot.IsFaultEffect();
  const bool is_effect = value.IsFaultEffect();
  const bool was_po_effect =
      circuit_->node(id).kind == NodeKind::kOutput && was_effect;
  const bool is_po_effect =
      circuit_->node(id).kind == NodeKind::kOutput && is_effect;
  slot = value;
  if (was_effect != is_effect) {
    if (is_effect) {
      effect_nodes_.insert({t, id});
    } else {
      effect_nodes_.erase({t, id});
    }
  }
  if (was_po_effect != is_po_effect) {
    observed_count_ += is_po_effect ? 1 : -1;
  }
  if (id == observe_node_) {
    const V3 stuck = fault_.stuck_at_1 ? V3::k1 : V3::k0;
    const char now =
        (value.good != V3::kX && value.good != stuck) ? 1 : 0;
    if (now != excited_[static_cast<size_t>(t)]) {
      excited_[static_cast<size_t>(t)] = now;
      excited_count_ += now ? 1 : -1;
    }
  }
  return true;
}

void UnrolledModel::Touch(int t, NodeId id) {
  if (t >= frames_) return;
  const size_t slot = index(t, id);
  if (queued_[slot]) return;
  queued_[slot] = 1;
  const size_t key =
      static_cast<size_t>(t) * static_cast<size_t>(levels_.depth + 2) +
      static_cast<size_t>(levels_.level[static_cast<size_t>(id)]);
  buckets_[key].push_back(id);
  if (queue_pending_ == 0 || key < queue_cursor_) queue_cursor_ = key;
  ++queue_pending_;
}

void UnrolledModel::Propagate() {
  while (queue_pending_ > 0) {
    auto& bucket = buckets_[queue_cursor_];
    if (bucket.empty()) {
      ++queue_cursor_;
      continue;
    }
    const NodeId id = bucket.back();
    bucket.pop_back();
    --queue_pending_;
    const int t = static_cast<int>(queue_cursor_ /
                                   static_cast<size_t>(levels_.depth + 2));
    queued_[index(t, id)] = 0;
    ++evaluations_;
    const V5 value = Compute(t, id);
    if (!Install(t, id, value)) continue;
    const Node& node = circuit_->node(id);
    // Same-frame consumers; DFF consumers observe in the next frame.
    for (NodeId sink : node.fanout) {
      if (circuit_->node(sink).kind == NodeKind::kDff) {
        Touch(t + 1, sink);
        if (observe_state_) {
          int dff_index = 0;
          for (NodeId dff : circuit_->dffs()) {
            if (dff == sink) break;
            ++dff_index;
          }
          UpdateLatchedObservation(t, dff_index);
        }
      } else {
        Touch(t, sink);
      }
    }
  }
}

void UnrolledModel::AssignPi(const FramePi& pi, V3 value) {
  auto& slot =
      assignments_[static_cast<size_t>(pi.frame)][static_cast<size_t>(pi.pi)];
  if (slot == value) return;
  slot = value;
  Touch(pi.frame, circuit_->inputs()[static_cast<size_t>(pi.pi)]);
  Propagate();
}

V3 UnrolledModel::PiValue(const FramePi& pi) const {
  return assignments_[static_cast<size_t>(pi.frame)]
                     [static_cast<size_t>(pi.pi)];
}

void UnrolledModel::AssignState(int dff_index, V3 value) {
  if (!free_state_) {
    throw std::logic_error("AssignState requires free_state mode");
  }
  auto& slot = state_assignments_[static_cast<size_t>(dff_index)];
  if (slot == value) return;
  slot = value;
  Touch(0, circuit_->dffs()[static_cast<size_t>(dff_index)]);
  Propagate();
}

V5 UnrolledModel::LatchedValue(int t, int dff_index) const {
  const NodeId dff = circuit_->dffs()[static_cast<size_t>(dff_index)];
  V5 value = values_[index(t, circuit_->node(dff).fanin[0])];
  if (fault_.site.node == dff && fault_.site.pin == 0) {
    value.faulty = fault_.stuck_at_1 ? V3::k1 : V3::k0;
  }
  return value;
}

std::vector<int> UnrolledModel::ActivationFrames() const {
  std::vector<int> frames;
  for (int t = 0; t < frames_; ++t) {
    if (values_[index(t, observe_node_)].good == V3::kX) frames.push_back(t);
  }
  return frames;
}

std::vector<FrameNode> UnrolledModel::DFrontier() const {
  // Fault effects drive the frontier: any consumer with an unknown
  // output is a propagation opportunity.
  std::vector<FrameNode> frontier;
  for (const FrameNode& effect : effect_nodes_) {
    for (NodeId sink : circuit_->node(effect.node).fanout) {
      const Node& gate = circuit_->node(sink);
      if (gate.kind == NodeKind::kDff) continue;  // handled next frame
      if (!netlist::IsGate(gate.kind)) continue;
      const FrameNode candidate{effect.frame, sink};
      if (!values_[index(candidate.frame, candidate.node)].HasUnknown()) {
        continue;
      }
      frontier.push_back(candidate);
    }
  }
  return frontier;
}

long UnrolledModel::Evaluate() {
  // Full recomputation in topological order; bookkeeping goes through
  // Install so counters stay exact.
  long count = 0;
  for (int t = 0; t < frames_; ++t) {
    for (NodeId id : levels_.order) {
      Install(t, id, Compute(t, id));
      ++count;
    }
  }
  if (observe_state_) {
    for (int t = 0; t < frames_; ++t) {
      for (int i = 0; i < circuit_->num_dffs(); ++i) {
        UpdateLatchedObservation(t, i);
      }
    }
  }
  evaluations_ += count;
  return count;
}

}  // namespace retest::atpg
