#include "retime/minreg.h"

#include <stdexcept>

namespace retest::retime {
namespace {

class Descent {
 public:
  Descent(const Graph& graph, std::optional<int> max_period,
          std::vector<int> lags)
      : graph_(graph), max_period_(max_period), lags_(std::move(lags)) {}

  /// Register-count change of r(v) += direction; +1 sentinel-free:
  /// returns std::nullopt when the move is illegal.
  std::optional<long> MoveDelta(VertexId v, int direction) const {
    if (graph_.IsPinned(v)) return std::nullopt;
    const auto& incoming = graph_.in_edges[static_cast<size_t>(v)];
    const auto& outgoing = graph_.out_edges[static_cast<size_t>(v)];
    const auto& donors = direction > 0 ? outgoing : incoming;
    for (int e : donors) {
      if (graph_.RetimedWeight(e, lags_) < 1) return std::nullopt;
    }
    const long in = static_cast<long>(incoming.size());
    const long out = static_cast<long>(outgoing.size());
    return direction > 0 ? in - out : out - in;
  }

  /// Applies the move if it is legal, register-delta <= `max_delta`,
  /// and the period bound still holds.  Returns true on success.
  bool TryMove(VertexId v, int direction, long max_delta) {
    const auto delta = MoveDelta(v, direction);
    if (!delta || *delta > max_delta) return false;
    lags_[static_cast<size_t>(v)] += direction;
    if (max_period_ && graph_.ClockPeriod(lags_) > *max_period_) {
      lags_[static_cast<size_t>(v)] -= direction;
      return false;
    }
    return true;
  }

  /// Strictly-improving moves until fixpoint.
  void Strict() {
    bool improved = true;
    while (improved) {
      improved = false;
      for (int v = 0; v < graph_.num_vertices(); ++v) {
        while (TryMove(v, +1, -1) || TryMove(v, -1, -1)) improved = true;
      }
    }
  }

  /// One pass of zero-cost drift in a fixed direction.  Drifting lets
  /// registers cross gain-0 vertices (1-in/1-out gates) so that later
  /// Strict() passes can merge them at stems.  Returns true if any
  /// move was applied.
  bool Drift(int direction) {
    bool moved = false;
    for (int v = 0; v < graph_.num_vertices(); ++v) {
      if (TryMove(v, direction, 0)) moved = true;
    }
    return moved;
  }

  const std::vector<int>& lags() const { return lags_; }
  long registers() const { return graph_.TotalRegisters(lags_); }

 private:
  const Graph& graph_;
  std::optional<int> max_period_;
  std::vector<int> lags_;
};

/// Runs strict descent interleaved with drift passes in one direction.
std::vector<int> Anneal(const Graph& graph, std::optional<int> max_period,
                        const std::vector<int>& start, int drift_direction) {
  Descent descent(graph, max_period, start);
  descent.Strict();
  std::vector<int> best = descent.lags();
  long best_count = descent.registers();
  // Each drift pass can only move every vertex once; the improvement
  // loop is bounded to keep worst-case run time linear-ish.
  const int max_rounds = 2 * graph.num_vertices() + 16;
  for (int round = 0; round < max_rounds; ++round) {
    if (!descent.Drift(drift_direction)) break;
    descent.Strict();
    const long count = descent.registers();
    if (count < best_count) {
      best_count = count;
      best = descent.lags();
    }
  }
  return best;
}

}  // namespace

MinRegResult MinimizeRegisters(const Graph& graph,
                               std::optional<int> max_period,
                               const Retiming* start) {
  const size_t n = graph.vertices.size();
  std::vector<int> lags(n, 0);
  if (start != nullptr) {
    if (!graph.IsLegal(start->lags)) {
      throw std::invalid_argument("MinimizeRegisters: illegal start lags");
    }
    lags = start->lags;
  }

  MinRegResult result;
  result.original_registers = graph.TotalRegisters(lags);

  const std::vector<int> backward = Anneal(graph, max_period, lags, +1);
  const std::vector<int> forward = Anneal(graph, max_period, lags, -1);
  // Ties go to the forward-drift solution: register-minimal retimings
  // are not unique, and the forward-most representative is the one
  // that exercises the paper's prefix machinery (nonzero forward move
  // counts), as some of the paper's own circuits did.
  result.retiming.lags =
      graph.TotalRegisters(backward) < graph.TotalRegisters(forward)
          ? backward
          : forward;
  result.registers = graph.TotalRegisters(result.retiming.lags);
  result.period = graph.ClockPeriod(result.retiming.lags);
  return result;
}

}  // namespace retest::retime
