// Leiserson-Saxe minimum-period retiming.
#pragma once

#include <optional>

#include "retime/graph.h"

namespace retest::retime {

/// Result of min-period retiming.
struct MinPeriodResult {
  Retiming retiming;      ///< Legal lags achieving `period`.
  int period = 0;         ///< Achieved clock period.
  int original_period = 0;
};

/// Tests whether clock period `phi` is achievable by retiming (with
/// pinned lags at 0) using the FEAS relaxation.  Returns the lags on
/// success.  Each probe costs O(|V| + |E|) per relaxation pass; it
/// stops as soon as an edge into a pinned vertex goes negative (the
/// usual way a too-small `phi` shows, typically within a few passes)
/// and otherwise runs up to |V| - 1 passes.
std::optional<Retiming> Feasible(const Graph& graph, int phi);

/// Finds the minimum achievable clock period by binary search over
/// integer periods, and returns a retiming realizing it.  The returned
/// lags are the FEAS fixed point: all lags are >= 0 (backward moves
/// only).
MinPeriodResult MinimizePeriod(const Graph& graph);

}  // namespace retest::retime
