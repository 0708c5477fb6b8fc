// Shared pieces of perfbench_driver, the end-to-end benchmark: run
// configuration, the in-memory span tracer, metric collection and the
// Workload interface the four workloads implement.
//
// The benchmark measures each layer from outside: every call it makes into
// synth, retime, analyze, fault, atpg, core/preserve, faultsim, sim and
// core/server is wrapped in a Span named after the layer.  Spans are
// recorded only in traced passes; untraced passes pay one branch per
// call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Command-line configuration of one benchmark run.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs, every workload and check, for the benchmark's tests.
  bool smoke = false;
  /// Thread count passed to every engine call: min(nproc, 4).
  int threads = 1;
  /// Where a traced run writes its spans ("" = not written).
  std::string spans_path;
};

/// One recorded span.  Times are milliseconds since the tracer's epoch.
struct SpanRecord {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;  ///< Index of the enclosing span, -1 at top level.
  long op = -1;     ///< Operation (pair / run / circuit / job) id.
  int pass = -1;    ///< Timed pass index, -1 for set-up and probes.
};

/// Collects spans in memory.  Disabled tracers record nothing.
///
/// The library's own recorder, core/trace, does not fit here for two
/// reasons.  It has one process-wide switch, and switching it on also
/// records the library's internal spans, one per fault search in ATPG.
/// The traced passes would then carry that recording cost in atpg.ms and
/// trace.overhead_pct, while this tracer adds only the benchmark's few
/// spans per call.  It also records neither an operation nor a pass:
/// the per-pass medians and the per-pair attribution check need both.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Pass index stamped on spans opened from now on.
  void set_pass(int pass) { pass_ = pass; }

  /// Opens a span under the calling thread's innermost open span;
  /// `op` < 0 inherits the parent's operation id.  Returns its index.
  int Open(const char* name, long op);
  void Close(int index);

  /// Snapshot of every span recorded so far.
  std::vector<SpanRecord> spans() const;

 private:
  const Clock::time_point epoch_;
  bool enabled_ = false;
  int pass_ = -1;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // Guarded by mutex_.
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(Tracer& tracer, const char* name, long op = -1)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.Open(name, op) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  const int index_;
};

/// Metric name -> (value, unit), printed in name order.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one timed pass produced besides its outputs: the latency of
/// every operation, keyed by an id that names the same operation (the
/// same pair, run or circuit) in every pass.  An operation repeated in
/// several passes enters the latency percentiles once, with its median.
struct PassStats {
  std::map<long, double> op_ms;
};

/// One benchmark workload.  The runner calls Setup() several times
/// (the last call's state is used), then alternates RunPass() and
/// CheckPass() until the run's measuring time is spent.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input the timed passes need.
  virtual void Setup(Tracer& tracer) = 0;
  /// The timed work.  Records one latency per operation and keeps the
  /// outputs for CheckPass.
  virtual void RunPass(Tracer& tracer, PassStats& stats) = 0;
  /// Correctness gates on the last pass's outputs, outside the timed
  /// window.  `full` runs the expensive gates (first pass only);
  /// otherwise only the determinism gate.  Returns the number of
  /// operations of the pass that failed a gate; prints each finding.
  /// May also prepare state for the next pass (serve: a fresh server).
  virtual int CheckPass(bool full) = 0;
  /// Traced runs only, outside the timed window: extra calls whose
  /// only purpose is to time a layer the timed pass reaches indirectly.
  virtual void Probe(Tracer&) {}
  /// Workload-level results of the last pass: coverage_pct and
  /// efficiency_pct.
  virtual void EndToEnd(Metrics& out) const = 0;
  /// Deterministic counts of the last pass (result structs); the
  /// runner requires them to repeat exactly on every pass.
  virtual void Counts(Metrics& out) const = 0;
  /// Per-layer timings the workload measures itself (serve: the
  /// server's queue and run times), over all passes.
  virtual void LayerTimings(Metrics&) const {}
  /// Lines of the run record (host, config), as JSON members.
  virtual std::string Describe() const { return ""; }
};

std::unique_ptr<Workload> MakePreserve(const Config& config);
std::unique_ptr<Workload> MakeJustify(const Config& config);
std::unique_ptr<Workload> MakeGrade(const Config& config);
std::unique_ptr<Workload> MakeServe(const Config& config);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace perfbench
