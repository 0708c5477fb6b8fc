#include "retime/leiserson_saxe.h"

#include <algorithm>
#include <stdexcept>

namespace retest::retime {

std::optional<Retiming> Feasible(const Graph& graph, int phi) {
  std::vector<int> lags(graph.vertices.size(), 0);
  std::vector<int> arrival;
  std::vector<VertexId> raised;
  // FEAS: |V| - 1 relaxation passes.  A pinned vertex is never
  // incremented: a path ending there that is too long can only be
  // shortened by retiming its predecessors on later passes.
  for (int pass = 0; pass < graph.num_vertices() - 1; ++pass) {
    if (!graph.Arrival(lags, arrival)) return std::nullopt;
    raised.clear();
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (arrival[static_cast<size_t>(v)] > phi && !graph.IsPinned(v)) {
        ++lags[static_cast<size_t>(v)];
        raised.push_back(v);
      }
    }
    if (raised.empty()) break;
    // Lags only grow and a pinned lag stays 0, so an edge into a pinned
    // vertex that went negative never recovers: IsLegal below would
    // refuse the lags whatever the remaining passes do.  Only the
    // out-edges of the vertices just raised lost weight.
    for (VertexId v : raised) {
      for (int e : graph.out_edges[static_cast<size_t>(v)]) {
        if (graph.IsPinned(graph.edges[static_cast<size_t>(e)].to) &&
            graph.RetimedWeight(e, lags) < 0) {
          return std::nullopt;
        }
      }
    }
  }
  if (!graph.Arrival(lags, arrival)) return std::nullopt;
  for (int delay : arrival) {
    if (delay > phi) return std::nullopt;
  }
  if (!graph.IsLegal(lags)) return std::nullopt;
  return Retiming{std::move(lags)};
}

MinPeriodResult MinimizePeriod(const Graph& graph) {
  MinPeriodResult result;
  result.original_period = graph.ClockPeriod();

  int lo = 0;
  for (const Vertex& vertex : graph.vertices) lo = std::max(lo, vertex.delay);
  int hi = result.original_period;
  std::optional<Retiming> best = Feasible(graph, hi);
  if (!best) {
    // The as-built weights achieve `hi`, so this cannot happen.
    throw std::runtime_error("MinimizePeriod: original period infeasible");
  }
  int best_phi = hi;
  while (lo < best_phi) {
    const int mid = lo + (best_phi - lo) / 2;
    if (auto r = Feasible(graph, mid)) {
      best = std::move(r);
      best_phi = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.retiming = std::move(*best);
  result.period = graph.ClockPeriod(result.retiming.lags);
  return result;
}

}  // namespace retest::retime
