#include "atpg/justify.h"

#include <utility>

#include "sim/logic3.h"

namespace retest::atpg {

using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;
using sim::V3;

namespace {

/// Shared search budget.
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

}  // namespace

/// Enumerates (input vector, predecessor state cube) pairs whose
/// next-state function covers the target cube in BOTH the good and the
/// faulty machine, via PODEM over one composite combinational frame
/// with PIs and pseudo-PIs assignable.  `values` starts as the fault's
/// all-X baseline and is kept consistent with the assignments by the
/// owner's event-driven propagation.
class Justifier::FrameSolver {
 public:
  FrameSolver(Justifier& owner, std::vector<V5>& values,
              const std::vector<V3>& target, Budget& budget)
      : owner_(owner),
        circuit_(owner.circuit_),
        values_(values),
        target_(target),
        budget_(budget),
        pi_(static_cast<size_t>(circuit_.num_inputs()), V3::kX),
        ppi_(static_cast<size_t>(circuit_.num_dffs()), V3::kX) {}

  /// Updates still queued when the search leaves this frame (budget
  /// exhausted after a decision, or the last undo) are moot: the frame
  /// is discarded.  Dropping them keeps the shared queue empty between
  /// frames and between calls.
  ~FrameSolver() { owner_.ClearQueue(); }

  FrameSolver(const FrameSolver&) = delete;
  FrameSolver& operator=(const FrameSolver&) = delete;

  /// Finds the next satisfying assignment; returns false when the
  /// space (or budget) is exhausted.  After a `true` return, read the
  /// solution via inputs()/predecessor() and call Next() again for an
  /// alternative.
  bool Next() {
    if (done_) return false;
    if (yielded_) {
      // Resume: treat the previous solution as a dead end.
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
      // One step: charged as a full frame evaluation, performed as an
      // incremental update of the assignments changed since the last.
      budget_.evaluations += owner_.frame_charge_;
      owner_.Propagate(values_);
      const int verdict = CheckTargets();
      if (verdict == kSatisfied) {
        yielded_ = true;
        return true;
      }
      std::optional<Decision> decision;
      if (verdict >= 0) {
        decision = Backtrace(verdict);
      }
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
    int pi = -1;   ///< Index into pi_, or -1.
    int ppi = -1;  ///< Index into ppi_, or -1.
    V3 value = V3::kX;
    bool flipped = false;
  };

  /// The value latched by DFF index b (with a data-pin fault applied).
  V5 Latched(size_t b) const {
    V5 v = values_[static_cast<size_t>(owner_.dff_data_[b])];
    if (owner_.HasFaultAt(circuit_.dffs()[b], 0)) v.faulty = owner_.Forced();
    return v;
  }

  /// Returns kSatisfied, kConflict, or the index of an unsatisfied
  /// target bit (one whose latched value still has an unknown side).
  int CheckTargets() const {
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

  std::optional<Decision> Backtrace(int target_bit) const {
    NodeId where = owner_.dff_data_[static_cast<size_t>(target_bit)];
    V3 value = target_[static_cast<size_t>(target_bit)];
    for (int guard = 0; guard < 1'000'000; ++guard) {
      const Node& node = circuit_.node(where);
      switch (node.kind) {
        case NodeKind::kInput: {
          const int pi_index = owner_.pi_index_[static_cast<size_t>(where)];
          if (pi_[static_cast<size_t>(pi_index)] != V3::kX) {
            return std::nullopt;  // already assigned; nothing to decide
          }
          Decision decision;
          decision.pi = pi_index;
          decision.value = value;
          return decision;
        }
        case NodeKind::kDff: {
          const int ppi_index = owner_.dff_index_[static_cast<size_t>(where)];
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
          // Prefer inputs whose cone reaches a real PI: assignments
          // there relax the predecessor cube faster.
          NodeId chosen = netlist::kNoNode;
          for (int pass = 0; pass < 2 && chosen == netlist::kNoNode; ++pass) {
            for (NodeId driver : node.fanin) {
              const V5& v = values_[static_cast<size_t>(driver)];
              if (v.good != V3::kX && v.faulty != V3::kX) continue;
              if (pass == 0 &&
                  !owner_.pi_reachable_[static_cast<size_t>(driver)]) {
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
          return std::nullopt;  // constants
      }
    }
    return std::nullopt;
  }

  /// Assigns PI `pi`, or pseudo-PI `ppi` when pi < 0 (X unassigns),
  /// and schedules the change; the next step's Propagate settles the
  /// frame.
  void Assign(int pi, int ppi, V3 value) {
    if (pi >= 0) {
      pi_[static_cast<size_t>(pi)] = value;
      owner_.SetSource(values_, circuit_.inputs()[static_cast<size_t>(pi)],
                       value);
    } else {
      ppi_[static_cast<size_t>(ppi)] = value;
      owner_.SetSource(values_, circuit_.dffs()[static_cast<size_t>(ppi)],
                       value);
    }
  }

  void Apply(const Decision& decision) {
    Assign(decision.pi, decision.ppi, decision.value);
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
      Assign(top.pi, top.ppi, V3::kX);  // unassign
      stack_.pop_back();
    }
    return false;
  }

  Justifier& owner_;
  const netlist::Circuit& circuit_;
  std::vector<V5>& values_;
  const std::vector<V3>& target_;
  Budget& budget_;
  std::vector<V3> pi_;
  std::vector<V3> ppi_;
  std::vector<Decision> stack_;
  bool yielded_ = false;
  bool done_ = false;
};

/// One justification call: the backward recursion over frame solvers
/// under a shared budget.
class Justifier::Search {
 public:
  Search(Justifier& owner, const JustifyOptions& options,
         const std::optional<fault::Fault>& fault)
      : owner_(owner), options_(options), fault_(fault) {
    budget_.options = &options_;
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
    if (trivial) return true;  // any state will do
    if (depth >= options_.max_depth || budget_.Exhausted()) return false;

    owner_.PrepareBaseline(fault_);
    std::vector<V5>& values = owner_.frames_[static_cast<size_t>(depth)];
    values = owner_.baseline_;
    FrameSolver solver(owner_, values, target, budget_);
    while (solver.Next()) {
      if (Recurse(solver.predecessor(), depth + 1, sequence)) {
        // Prefix found for the predecessor; append this frame's
        // inputs (X's are free -- fill with 0).
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

  Justifier& owner_;
  const JustifyOptions& options_;
  const std::optional<fault::Fault>& fault_;
  Budget budget_;
};

Justifier::Justifier(const netlist::Circuit& circuit)
    : circuit_(circuit), levels_(sim::Levelize(circuit)) {
  const size_t n = static_cast<size_t>(circuit.size());
  pi_index_.assign(n, -1);
  dff_index_.assign(n, -1);
  for (size_t i = 0; i < circuit.inputs().size(); ++i) {
    pi_index_[static_cast<size_t>(circuit.inputs()[i])] = static_cast<int>(i);
  }
  for (size_t i = 0; i < circuit.dffs().size(); ++i) {
    const NodeId dff = circuit.dffs()[i];
    dff_index_[static_cast<size_t>(dff)] = static_cast<int>(i);
    dff_data_.push_back(circuit.node(dff).fanin[0]);
  }

  kind_.reserve(n);
  fanin_begin_.reserve(n + 1);
  for (size_t id = 0; id < n; ++id) {
    const Node& node = circuit.node(static_cast<NodeId>(id));
    kind_.push_back(node.kind);
    fanin_begin_.push_back(static_cast<int>(fanin_.size()));
    fanin_.insert(fanin_.end(), node.fanin.begin(), node.fanin.end());
  }
  fanin_begin_.push_back(static_cast<int>(fanin_.size()));

  // Static reachability of a real PI per node, and the full-frame
  // charge (every node a from-scratch evaluation would compute).
  pi_reachable_.assign(n, 0);
  for (NodeId id : levels_.order) {
    const Node& node = circuit.node(id);
    if (node.kind == NodeKind::kInput) {
      pi_reachable_[static_cast<size_t>(id)] = 1;
    } else if (node.kind != NodeKind::kDff) {
      ++frame_charge_;
      char value = 0;
      for (NodeId driver : node.fanin) {
        value |= pi_reachable_[static_cast<size_t>(driver)];
      }
      pi_reachable_[static_cast<size_t>(id)] = value;
    }
  }

  // The next-state cone: the combinational fanin of every DFF data
  // pin, closed in reverse topological order (a DFF output is a source
  // of this frame; its own fanin belongs to the previous one).
  std::vector<char> in_cone(n, 0);
  for (NodeId data : dff_data_) in_cone[static_cast<size_t>(data)] = 1;
  for (auto it = levels_.order.rbegin(); it != levels_.order.rend(); ++it) {
    const Node& node = circuit.node(*it);
    if (!in_cone[static_cast<size_t>(*it)] || node.kind == NodeKind::kDff) {
      continue;
    }
    for (NodeId driver : node.fanin) in_cone[static_cast<size_t>(driver)] = 1;
  }
  for (NodeId id : levels_.order) {
    if (in_cone[static_cast<size_t>(id)]) cone_order_.push_back(id);
  }
  cone_fanout_begin_.assign(n + 1, 0);
  for (size_t id = 0; id < n; ++id) {
    cone_fanout_begin_[id] = static_cast<int>(cone_fanout_.size());
    if (!in_cone[id]) continue;
    for (NodeId sink : circuit.node(static_cast<NodeId>(id)).fanout) {
      if (in_cone[static_cast<size_t>(sink)] &&
          circuit.node(sink).kind != NodeKind::kDff) {
        cone_fanout_.push_back(sink);
      }
    }
  }
  cone_fanout_begin_[n] = static_cast<int>(cone_fanout_.size());

  buckets_.resize(static_cast<size_t>(levels_.depth) + 1);
  queued_.assign(n, 0);
}

JustifyResult Justifier::Run(const std::vector<V3>& target,
                             const JustifyOptions& options,
                             const std::optional<fault::Fault>& fault) {
  gate_evals_ = 0;
  if (frames_.size() < static_cast<size_t>(options.max_depth)) {
    // Sized up front: a solver holds a reference to its depth's frame
    // while deeper ones are in use.
    frames_.resize(static_cast<size_t>(options.max_depth));
  }
  Search search(*this, options, fault);
  JustifyResult result = search.Run(target);
  result.gate_evals = gate_evals_;
  return result;
}

void Justifier::PrepareBaseline(const std::optional<fault::Fault>& fault) {
  if (baseline_ready_ && fault_ == fault) return;
  fault_ = fault;
  baseline_ready_ = true;
  baseline_.assign(static_cast<size_t>(circuit_.size()), V5::X());
  for (NodeId id : cone_order_) {
    const NodeKind kind = kind_[static_cast<size_t>(id)];
    V5& slot = baseline_[static_cast<size_t>(id)];
    if (kind == NodeKind::kInput || kind == NodeKind::kDff) {
      if (HasFaultAt(id, -1)) slot.faulty = Forced();
    } else {
      slot = ComputeGate(baseline_.data(), id);
      ++gate_evals_;
    }
  }
}

V5 Justifier::ComputeGate(const V5* values, NodeId id) const {
  const size_t at = static_cast<size_t>(id);
  const NodeId* fanin = fanin_.data() + fanin_begin_[at];
  const int count = fanin_begin_[at + 1] - fanin_begin_[at];
  const int fault_pin =
      fault_ && fault_->site.node == id ? fault_->site.pin : -1;
  auto input = [&](int pin) {
    V5 in = values[static_cast<size_t>(fanin[pin])];
    if (pin == fault_pin) in.faulty = Forced();
    return in;
  };
  V5 out;
  auto fold = [&](V3 unit, auto&& op, bool invert) {
    out = Both(unit);
    for (int pin = 0; pin < count; ++pin) {
      const V5 in = input(pin);
      out.good = op(out.good, in.good);
      out.faulty = op(out.faulty, in.faulty);
    }
    if (invert) {
      out.good = sim::Not3(out.good);
      out.faulty = sim::Not3(out.faulty);
    }
  };
  switch (kind_[at]) {
    case NodeKind::kConst0: out = Both(V3::k0); break;
    case NodeKind::kConst1: out = Both(V3::k1); break;
    case NodeKind::kOutput:
    case NodeKind::kBuf:
      out = input(0);
      break;
    case NodeKind::kNot:
      out = input(0);
      out.good = sim::Not3(out.good);
      out.faulty = sim::Not3(out.faulty);
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
  return out;
}

void Justifier::Touch(NodeId id) {
  char& queued = queued_[static_cast<size_t>(id)];
  if (queued) return;
  queued = 1;
  const int level = levels_.level[static_cast<size_t>(id)];
  buckets_[static_cast<size_t>(level)].push_back(id);
  if (queue_pending_ == 0 || level < queue_min_level_) {
    queue_min_level_ = level;
  }
  ++queue_pending_;
}

void Justifier::SetSource(std::vector<V5>& values, NodeId id, V3 value) {
  V5 next = Both(value);
  if (HasFaultAt(id, -1)) next.faulty = Forced();
  V5& slot = values[static_cast<size_t>(id)];
  if (slot == next) return;
  slot = next;
  for (int k = cone_fanout_begin_[static_cast<size_t>(id)];
       k < cone_fanout_begin_[static_cast<size_t>(id) + 1]; ++k) {
    Touch(cone_fanout_[static_cast<size_t>(k)]);
  }
}

void Justifier::Propagate(std::vector<V5>& values) {
  if (queue_pending_ == 0) return;
  // A node's consumers sit on strictly higher levels, so each bucket
  // is complete when the sweep reaches it and scheduling never lowers
  // the sweep's level.  The hot loop works on locals: the dedup bitmap
  // is char data, which may alias any member.
  V5* const frame = values.data();
  char* const queued = queued_.data();
  const int* const fanout_begin = cone_fanout_begin_.data();
  const NodeId* const fanout = cone_fanout_.data();
  const int* const level_of = levels_.level.data();
  long pending = queue_pending_;
  long evaluated = 0;
  for (size_t level = static_cast<size_t>(queue_min_level_); pending > 0;
       ++level) {
    std::vector<NodeId>& bucket = buckets_[level];
    for (size_t i = 0; i < bucket.size(); ++i) {
      const NodeId id = bucket[i];
      queued[id] = 0;
      --pending;
      ++evaluated;
      const V5 next = ComputeGate(frame, id);
      if (frame[id] == next) continue;
      frame[id] = next;
      for (int k = fanout_begin[id]; k < fanout_begin[id + 1]; ++k) {
        const NodeId sink = fanout[k];
        if (queued[sink]) continue;
        queued[sink] = 1;
        buckets_[static_cast<size_t>(level_of[sink])].push_back(sink);
        ++pending;
      }
    }
    bucket.clear();
  }
  queue_pending_ = 0;
  gate_evals_ += evaluated;
}

void Justifier::ClearQueue() {
  for (size_t level = static_cast<size_t>(queue_min_level_);
       queue_pending_ > 0; ++level) {
    std::vector<NodeId>& bucket = buckets_[level];
    for (const NodeId id : bucket) queued_[static_cast<size_t>(id)] = 0;
    queue_pending_ -= static_cast<long>(bucket.size());
    bucket.clear();
  }
}

JustifyResult JustifyState(const netlist::Circuit& circuit,
                           const std::vector<V3>& target,
                           const JustifyOptions& options,
                           const std::optional<fault::Fault>& fault) {
  Justifier justifier(circuit);
  return justifier.Run(target, options, fault);
}

}  // namespace retest::atpg
