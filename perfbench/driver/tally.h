// Per-layer counters summed over the engine calls of one pass, read
// from the result structs the library returns.
#pragma once

#include <algorithm>

#include "atpg/engine.h"
#include "bench.h"
#include "faultsim/proofs.h"

namespace perfbench {

struct AtpgTally {
  long evaluations = 0;
  long faults = 0, detected = 0, redundant = 0, aborted = 0, untried = 0;
  long tests = 0, vectors = 0;
  int threads_used = 0;

  void Add(const retest::atpg::AtpgResult& result) {
    using retest::atpg::FaultStatus;
    evaluations += result.evaluations;
    faults += static_cast<long>(result.faults.size());
    detected += result.Count(FaultStatus::kDetected);
    redundant += result.Count(FaultStatus::kRedundant);
    aborted += result.Count(FaultStatus::kAborted);
    untried += result.Count(FaultStatus::kUntried);
    tests += static_cast<long>(result.tests.size());
    for (const auto& test : result.tests) {
      vectors += static_cast<long>(test.size());
    }
    threads_used = std::max(threads_used, result.threads_used);
  }

  double CoveragePct() const {
    return faults == 0 ? 0 : 100.0 * static_cast<double>(detected) /
                                 static_cast<double>(faults);
  }

  /// (detected + redundant) / total, in percent.
  double EfficiencyPct() const {
    return faults == 0 ? 0 : 100.0 * static_cast<double>(detected + redundant) /
                                 static_cast<double>(faults);
  }

  void Report(Metrics& out) const {
    out["atpg.evaluations"] = {static_cast<double>(evaluations), "count"};
    out["atpg.detected"] = {static_cast<double>(detected), "count"};
    out["atpg.redundant"] = {static_cast<double>(redundant), "count"};
    out["atpg.aborted"] = {static_cast<double>(aborted), "count"};
    out["atpg.untried"] = {static_cast<double>(untried), "count"};
    out["atpg.useful_ratio"] = {EfficiencyPct() / 100.0, "ratio"};
    out["atpg.tests"] = {static_cast<double>(tests), "count"};
    out["atpg.vectors"] = {static_cast<double>(vectors), "count"};
    out["atpg.threads_used"] = {static_cast<double>(threads_used), "count"};
  }
};

struct FaultsimTally {
  long frames = 0, gate_evals = 0, faults = 0, detected = 0;
  int lanes = 0, threads_used = 0;
  /// faultsim.live_lane_ratio: frames that carried a live fault over
  /// frames evaluated times lanes.
  double live_frames = 0, lane_frames = 0;

  void Add(const retest::faultsim::ProofsResult& result,
           std::size_t sequence_length) {
    frames += result.frames_evaluated;
    gate_evals += result.gate_evals;
    faults += static_cast<long>(result.detections.size());
    detected += result.num_detected();
    lanes = std::max(lanes, result.lanes);
    threads_used = std::max(threads_used, result.threads_used);
    for (const auto& d : result.detections) {
      live_frames += d.detected ? d.time + 1
                                : static_cast<double>(sequence_length);
    }
    lane_frames += static_cast<double>(result.frames_evaluated) * result.lanes;
  }

  double CoveragePct() const {
    return faults == 0 ? 0 : 100.0 * static_cast<double>(detected) /
                                 static_cast<double>(faults);
  }

  void Report(Metrics& out) const {
    out["faultsim.frames"] = {static_cast<double>(frames), "count"};
    out["faultsim.gate_evals"] = {static_cast<double>(gate_evals), "count"};
    out["faultsim.lanes"] = {static_cast<double>(lanes), "count"};
    out["faultsim.threads_used"] = {static_cast<double>(threads_used),
                                    "count"};
    out["faultsim.detected"] = {static_cast<double>(detected), "count"};
    out["faultsim.live_lane_ratio"] = {
        lane_frames == 0 ? 0 : live_frames / lane_frames, "ratio"};
  }
};

}  // namespace perfbench
