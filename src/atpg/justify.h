// HITEC-style backward state justification.
//
// Given a required state cube (per-DFF values, X = don't care), search
// for an input sequence that drives the machine from the completely
// unknown state into a state compatible with the cube.  The search
// proceeds one time frame at a time: a frame solver enumerates
// (input vector, predecessor state cube) pairs whose next-state
// function covers the target, and the driver recurses on the
// predecessor cube until it relaxes to all-X (reachable from anywhere).
//
// This is the paper's pain point: a retimed circuit's registers can
// hold combinations "inconsistent with the values produced by the
// logical structure" (Section III), so justification on retimed
// circuits fails late and explosively -- which is what Table II's CPU
// ratios measure.
//
// The frame solver is incremental, like UnrolledModel's propagation.
// A decision, flip or undo changes one PI or pseudo-PI (present-state
// DFF output); only the fanout whose value actually changes is
// re-evaluated, in level order from a bucket queue.  Propagation is
// confined to the next-state cone -- the static transitive fanin of
// the DFF data inputs -- because the solver reads nothing else: the
// target check reads the latched data-pin values and the backtrace
// walks fanin from them.  Gates that feed only primary outputs are
// never evaluated.  Each solver starts from a copy of the fault's
// all-X baseline frame, computed once per fault.
#pragma once

#include <atomic>
#include <optional>
#include <vector>

#include "atpg/val5.h"
#include "fault/fault.h"
#include "netlist/circuit.h"
#include "sim/levelizer.h"
#include "sim/simulator.h"

namespace retest::atpg {

/// Limits for a justification search.  `budget` members are shared
/// across the whole recursion.
struct JustifyOptions {
  int max_depth = 24;          ///< Frames of backward recursion.
  long max_backtracks = 4000;  ///< Total decision flips across the search.
  /// Work limit in full-frame units: every solver step (one decision,
  /// flip or undo followed by the target check) charges the number of
  /// non-source nodes of the circuit -- what one from-scratch
  /// evaluation of the composite frame costs -- however few gates the
  /// incremental update actually re-evaluates.  The limit therefore
  /// binds at a point that depends only on the search, not on how the
  /// frame is evaluated.
  long max_evaluations = 20'000'000;
  /// Cooperative preemption: when set and it becomes true, the search
  /// aborts at the next budget check (watchdog / deadline stops).
  const std::atomic<bool>* stop = nullptr;
};

enum class JustifyStatus {
  kJustified,
  kFailed,   ///< Search space exhausted within depth: no sequence.
  kAborted,  ///< Limits hit.
};

struct JustifyResult {
  JustifyStatus status = JustifyStatus::kAborted;
  /// On success: applying this sequence from the all-X state leaves
  /// every non-X target bit at its required value.
  sim::InputSequence sequence;
  long backtracks = 0;
  /// Charged work in the unit of JustifyOptions::max_evaluations.
  long evaluations = 0;
  /// Gates actually computed: incremental re-evaluations plus, when
  /// this call built it, the fault's baseline frame.  Diagnostic only;
  /// no limit reads it.
  long gate_evals = 0;
};

/// Backward justification over one circuit, reusable across targets
/// and faults.  Construction builds the static tables once per
/// circuit: levelization, node -> PI / DFF index maps, real-PI
/// reachability, the next-state cone and its fanout lists.  Run keeps
/// the all-X, fault-injected baseline frame of the last fault it saw,
/// so consecutive calls for one fault share it.
///
/// A Justifier is mutable scratch state and is not thread-safe: the
/// ATPG gives each deterministic-phase worker its own (next to that
/// worker's unrolled models) and never shares it.  Results are
/// identical to a fresh Justifier's for every call sequence.
class Justifier {
 public:
  explicit Justifier(const netlist::Circuit& circuit);

  /// Runs the backward justification for `target` (size = num_dffs).
  /// When `fault` is given, justification runs on the composite
  /// good/faulty machine (the fault injected in every frame): every
  /// assigned target bit must be reached in BOTH machines, which is
  /// what test generation needs (Lemmas 4/5: the faulty machine must
  /// be synchronized too).  Without a fault, only the good machine is
  /// constrained.
  JustifyResult Run(const std::vector<sim::V3>& target,
                    const JustifyOptions& options = {},
                    const std::optional<fault::Fault>& fault = std::nullopt);

 private:
  class FrameSolver;
  class Search;

  /// Recomputes the all-X frame under `fault` when it differs from the
  /// cached one.
  void PrepareBaseline(const std::optional<fault::Fault>& fault);

  /// The composite value of gate `id` from its fanins in `values`,
  /// with the current fault's pin and stem injections.
  V5 ComputeGate(const V5* values, netlist::NodeId id) const;

  /// Schedules cone node `id` for re-evaluation.
  void Touch(netlist::NodeId id);

  /// Re-evaluates every scheduled node in level order, scheduling the
  /// cone fanout of each node whose value changed.
  void Propagate(std::vector<V5>& values);

  /// Drops every scheduled update without evaluating it.
  void ClearQueue();

  /// Sets a source (PI or present-state DFF) to `value` in both
  /// machines (stem fault applied) and schedules its cone fanout when
  /// the composite value changed.
  void SetSource(std::vector<V5>& values, netlist::NodeId id, sim::V3 value);

  bool HasFaultAt(netlist::NodeId id, int pin) const {
    return fault_ && fault_->site.node == id && fault_->site.pin == pin;
  }
  sim::V3 Forced() const {
    return fault_->stuck_at_1 ? sim::V3::k1 : sim::V3::k0;
  }

  const netlist::Circuit& circuit_;
  sim::Levelization levels_;
  /// Nodes of the next-state cone in topological order, sources
  /// (PIs, DFF outputs) and constants included.
  std::vector<netlist::NodeId> cone_order_;
  /// Per node: index into Circuit::inputs() / Circuit::dffs(), or -1.
  std::vector<int> pi_index_;
  std::vector<int> dff_index_;
  /// Per node, flattened for the evaluation loop: kind and CSR fanin.
  std::vector<netlist::NodeKind> kind_;
  std::vector<int> fanin_begin_;
  std::vector<netlist::NodeId> fanin_;
  /// Per node: a real PI lies in its combinational fanin.
  std::vector<char> pi_reachable_;
  /// Per DFF index: the node driving its data pin.
  std::vector<netlist::NodeId> dff_data_;
  /// CSR fanout restricted to combinational sinks inside the cone.
  std::vector<int> cone_fanout_begin_;
  std::vector<netlist::NodeId> cone_fanout_;
  /// Non-source nodes of the whole circuit: the per-step charge.
  long frame_charge_ = 0;

  /// The fault the baseline was built for (nullopt = fault-free).
  std::optional<fault::Fault> fault_;
  bool baseline_ready_ = false;
  std::vector<V5> baseline_;
  /// One value frame per recursion depth, reused across calls.
  std::vector<std::vector<V5>> frames_;
  /// Gates computed by the current Run (JustifyResult::gate_evals).
  long gate_evals_ = 0;

  // Event queue: one bucket per level with a dedup bitmap.  Always
  // drained before a solver reads values, so the nested solvers of one
  // recursion share it.
  std::vector<std::vector<netlist::NodeId>> buckets_;
  std::vector<char> queued_;
  int queue_min_level_ = 0;
  long queue_pending_ = 0;
};

/// One-shot wrapper: builds a Justifier for `circuit` and runs it.
JustifyResult JustifyState(const netlist::Circuit& circuit,
                           const std::vector<sim::V3>& target,
                           const JustifyOptions& options = {},
                           const std::optional<fault::Fault>& fault =
                               std::nullopt);

}  // namespace retest::atpg
