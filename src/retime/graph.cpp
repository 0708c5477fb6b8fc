#include "retime/graph.h"

#include <algorithm>
#include <stdexcept>

namespace retest::retime {

VertexId Graph::AddVertex(Vertex vertex) {
  const VertexId id = static_cast<VertexId>(vertices.size());
  vertices.push_back(std::move(vertex));
  out_edges.emplace_back();
  in_edges.emplace_back();
  return id;
}

int Graph::AddEdge(Edge edge) {
  const int index = static_cast<int>(edges.size());
  out_edges[static_cast<size_t>(edge.from)].push_back(index);
  in_edges[static_cast<size_t>(edge.to)].push_back(index);
  edges.push_back(std::move(edge));
  return index;
}

long Graph::TotalRegisters(const std::vector<int>& lags) const {
  long total = 0;
  for (int e = 0; e < num_edges(); ++e) total += RetimedWeight(e, lags);
  return total;
}

int Graph::RetimedWeight(int index, const std::vector<int>& lags) const {
  const Edge& edge = edges[static_cast<size_t>(index)];
  if (lags.empty()) return edge.weight;
  return edge.weight + lags[static_cast<size_t>(edge.to)] -
         lags[static_cast<size_t>(edge.from)];
}

bool Graph::IsPinned(VertexId v) const {
  const auto index = static_cast<size_t>(v);
  const VertexKind kind = vertices[index].kind;
  return kind == VertexKind::kPi || kind == VertexKind::kPo ||
         out_edges[index].empty() || in_edges[index].empty();
}

bool Graph::IsLegal(const std::vector<int>& lags) const {
  if (lags.size() != vertices.size()) return false;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    if (lags[static_cast<size_t>(v)] != 0 && IsPinned(v)) return false;
  }
  for (int e = 0; e < num_edges(); ++e) {
    if (RetimedWeight(e, lags) < 0) return false;
  }
  return true;
}

bool Graph::Arrival(const std::vector<int>& lags,
                    std::vector<int>& arrival) const {
  // Longest-path DP over the zero-weight subgraph (acyclic in a legal
  // synchronous circuit: every cycle carries a register).
  arrival.assign(vertices.size(), 0);
  std::vector<int> pending(vertices.size(), 0);
  for (int e = 0; e < num_edges(); ++e) {
    if (RetimedWeight(e, lags) == 0) {
      ++pending[static_cast<size_t>(edges[static_cast<size_t>(e)].to)];
    }
  }
  std::vector<VertexId> ready;
  for (size_t v = 0; v < vertices.size(); ++v) {
    if (pending[v] == 0) {
      ready.push_back(static_cast<VertexId>(v));
      arrival[v] = vertices[v].delay;
    }
  }
  size_t processed = 0;
  while (!ready.empty()) {
    const VertexId v = ready.back();
    ready.pop_back();
    ++processed;
    for (int e : out_edges[static_cast<size_t>(v)]) {
      if (RetimedWeight(e, lags) != 0) continue;
      const VertexId to = edges[static_cast<size_t>(e)].to;
      arrival[static_cast<size_t>(to)] =
          std::max(arrival[static_cast<size_t>(to)],
                   arrival[static_cast<size_t>(v)] +
                       vertices[static_cast<size_t>(to)].delay);
      if (--pending[static_cast<size_t>(to)] == 0) ready.push_back(to);
    }
  }
  return processed == vertices.size();
}

int Graph::ClockPeriod(const std::vector<int>& lags) const {
  std::vector<int> arrival;
  if (!Arrival(lags, arrival)) {
    throw std::runtime_error(
        "ClockPeriod: zero-weight cycle (illegal synchronous circuit)");
  }
  int period = 0;
  for (int delay : arrival) period = std::max(period, delay);
  return period;
}

}  // namespace retest::retime
