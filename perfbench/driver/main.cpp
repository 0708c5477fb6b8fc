// perfbench_driver, the end-to-end benchmark: runs one workload for a
// fixed measuring time, checks its outputs and prints every metric by
// name.
//
//   perfbench_driver --workload preserve|justify|grade|serve --seed N
//                    --seconds S --trace 0|1 [--smoke] [--spans FILE]
//                    [--commit SHA] [--build-type TYPE]
//
// A run builds its inputs several times (set-up, median reported as
// setup_s), then repeats the workload's fixed unit of work ("pass")
// while the next pass is expected to end within S seconds of pass
// time, checking each pass outside the timed window.  --trace 0 reports the end-to-end metrics; --trace 1
// alternates untraced and traced passes and reports the per-layer
// metrics from the traced ones plus the tracing overhead.
//
// Output: one `{"record": ...}` line (host and configuration), then as
// the last line `{"correct", "attempted", "failed", "metrics"}`.
// Exit code 0 when the run completed (even with failed operations),
// 2 on a usage error or a refused environment.
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "bench.h"
#include "core/server/protocol.h"
#include "sim/simd.h"

extern char** environ;

namespace perfbench {
namespace {

/// Every per-layer metric, reported by every traced run (0 where the
/// workload does not reach the layer).
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"synth.ms", "ms"},
      {"retime.graph_ms", "ms"},
      {"retime.min_period_ms", "ms"},
      {"retime.min_reg_ms", "ms"},
      {"retime.apply_ms", "ms"},
      {"retime.moves_ms", "ms"},
      {"analyze.certify_ms", "ms"},
      {"fault.collapse_ms", "ms"},
      {"fault.faults", "count"},
      {"fault.collapse_ratio", "ratio"},
      {"atpg.ms", "ms"},
      {"atpg.evaluations", "count"},
      {"atpg.evals_per_s", "1/s"},
      {"atpg.detected", "count"},
      {"atpg.redundant", "count"},
      {"atpg.aborted", "count"},
      {"atpg.untried", "count"},
      {"atpg.useful_ratio", "ratio"},
      {"atpg.tests", "count"},
      {"atpg.vectors", "count"},
      {"atpg.threads_used", "count"},
      {"preserve.derive_ms", "ms"},
      {"preserve.prefix_len", "count"},
      {"faultsim.ms", "ms"},
      {"faultsim.frames", "count"},
      {"faultsim.gate_evals", "count"},
      {"faultsim.lanes", "count"},
      {"faultsim.threads_used", "count"},
      {"faultsim.detected", "count"},
      {"faultsim.live_lane_ratio", "ratio"},
      {"sim.compile_ms", "ms"},
      {"sim.good_trace_ms", "ms"},
      {"server.queue_ms_p50", "ms"},
      {"server.run_ms_p50", "ms"},
      {"server.overhead_ms_p50", "ms"},
      {"server.rejected", "count"},
      {"server.failed", "count"},
      {"op.self_ms", "ms"},
      {"trace.attribution_min_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

/// Environment variables that change results or stop ATPG on a clock.
const char* const kRefusedEnv[] = {"REPRO_ATPG_BUDGET_MS", "REPRO_DEADLINE_MS",
                                   "REPRO_FAULT_TIMEOUT_MS", "REPRO_FULL",
                                   "REPRO_CHAOS"};

/// Preserve pairs whose stage spans cover less than this share of the
/// pair's wall time fail the attribution check.
constexpr double kMinAttributionPct = 95.0;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "preserve|justify|grade|serve --seed N --seconds S --trace 0|1 "
               "[--smoke] [--spans FILE] [--commit SHA] [--build-type TYPE]\n",
               why);
  return 2;
}

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char text[49] = {};
  std::memcpy(text, regs, 48);
  std::string model(text);
  model.erase(model.find_last_not_of(' ') + 1);
  model.erase(0, model.find_first_not_of(' '));
  return model;
#else
  return "unknown";
#endif
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  out += retest::core::server::JsonEscape(text);
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    out += (out.size() > 1 ? ", " : "") + JsonNumber(v);
  }
  return out + "]";
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

/// Metric name of a layer span: "synth" -> "synth.ms",
/// "retime.apply" -> "retime.apply_ms".
std::string LayerMetricName(const std::string& span) {
  return span.find('.') == std::string::npos ? span + ".ms" : span + "_ms";
}

bool IsOpSpan(const std::string& name) { return name.rfind("op.", 0) == 0; }

/// Samples the process's resident set every few milliseconds from
/// construction to destruction; PeakMb() is the largest sample.  Used
/// per timed pass, so peak_rss_mb is the median over passes of each
/// pass's peak, which concurrent serve jobs make far steadier than the
/// process-lifetime high-water mark.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double PeakMb() {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<double>(peak_pages_) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  }

 private:
  static long ResidentPages() {
    long size = 0, resident = 0;
    std::ifstream statm("/proc/self/statm");
    statm >> size >> resident;
    return resident;
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    do {
      peak_pages_ = std::max(peak_pages_, ResidentPages());
    } while (!wake_.wait_for(lock, std::chrono::milliseconds(5),
                             [this] { return stop_; }));
    peak_pages_ = std::max(peak_pages_, ResidentPages());
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;     // Guarded by mutex_.
  long peak_pages_ = 0;   // Guarded by mutex_.
  std::thread thread_;    // Last: starts after the members it uses.
};

struct Args {
  Config config;
  std::string commit = "unknown";
  std::string build_type = "unknown";
};

std::unique_ptr<Workload> MakeWorkload(const Config& config) {
  if (config.workload == "preserve") return MakePreserve(config);
  if (config.workload == "justify") return MakeJustify(config);
  if (config.workload == "grade") return MakeGrade(config);
  if (config.workload == "serve") return MakeServe(config);
  return nullptr;
}

/// Per-layer span times of one run: layer times summed per traced
/// pass (median over passes) plus the set-up and probe spans, op self
/// time, and the preserve attribution check.
struct SpanSummary {
  Metrics layers;
  /// Smallest share of an operation's time its stage spans cover (0
  /// when no operation has stage spans).
  double min_attribution_pct = 0;
  int attribution_failures = 0;
  std::map<std::string, double> self_ms;  ///< Per span name, whole run.
};

SpanSummary Summarize(const std::vector<SpanRecord>& spans) {
  SpanSummary summary;
  // Parents precede their children, so one forward sweep finds every
  // span's child time and top-level ancestor.
  std::vector<double> child_ms(spans.size(), 0);
  std::vector<size_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    root[i] = i;
    if (s.parent >= 0) {
      const auto parent = static_cast<size_t>(s.parent);
      child_ms[parent] += s.end_ms - s.start_ms;
      root[i] = root[parent];
    }
  }
  std::map<std::string, std::map<int, double>> per_pass;  // name -> pass -> ms
  std::map<std::string, double> outside;                  // set-up, probes
  std::set<int> passes;
  std::map<int, double> op_self;
  bool attributed = false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double ms = s.end_ms - s.start_ms;
    summary.self_ms[s.name] += ms - child_ms[i];
    if (s.pass >= 0) passes.insert(s.pass);
    // Warm-up calls are set-up cost, not layer work.
    if (spans[root[i]].name == "setup.warmup") continue;
    if (IsOpSpan(s.name)) {
      // Serve jobs run on server threads: no stage spans to attribute.
      if (s.pass < 0 || child_ms[i] == 0) continue;
      op_self[s.pass] += ms - child_ms[i];
      const double pct = ms > 0 ? 100.0 * child_ms[i] / ms : 100;
      summary.min_attribution_pct =
          attributed ? std::min(summary.min_attribution_pct, pct) : pct;
      attributed = true;
      if (s.name == "op.pair" && pct < kMinAttributionPct) {
        std::fprintf(stderr,
                     "FAIL attribution: pair %ld stages cover %.1f%% of "
                     "%.1f ms\n",
                     s.op, pct, ms);
        ++summary.attribution_failures;
      }
      continue;
    }
    if (s.pass >= 0) {
      per_pass[s.name][s.pass] += ms;
    } else {
      outside[s.name] += ms;
    }
  }
  std::set<std::string> names;
  for (const auto& [name, ms] : per_pass) names.insert(name);
  for (const auto& [name, ms] : outside) names.insert(name);
  for (const std::string& name : names) {
    std::vector<double> values;
    for (const int pass : passes) {
      const auto it = per_pass.find(name);
      values.push_back(it == per_pass.end() ? 0 : it->second[pass]);
    }
    summary.layers[LayerMetricName(name)] = {
        Median(values) + outside[name], "ms"};
  }
  std::vector<double> self;
  for (const int pass : passes) self.push_back(op_self[pass]);
  summary.layers["op.self_ms"] = {Median(self), "ms"};
  return summary;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                const SpanSummary& summary) {
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "  {\"name\": " << JsonString(s.name)
        << ", \"start_ms\": " << JsonNumber(s.start_ms)
        << ", \"end_ms\": " << JsonNumber(s.end_ms)
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op
        << ", \"pass\": " << s.pass << "}" << (i + 1 < spans.size() ? "," : "")
        << "\n";
  }
  out << "], \"self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : summary.self_ms) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(ms);
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out.flush());
}

int Run(const Args& args) {
  const Config& config = args.config;
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  if (!workload) return Usage("unknown workload");
  Tracer tracer;

  // Set-up, several times; the last one's inputs are used.  A traced
  // run sets up once, traced, for the set-up layers' spans.
  const int setup_reps = config.trace ? 1 : 3;
  std::vector<double> setup_ms;
  tracer.set_enabled(config.trace);
  for (int rep = 0; rep < setup_reps; ++rep) {
    const Clock::time_point start = Clock::now();
    workload->Setup(tracer);
    setup_ms.push_back(MsSince(start));
  }
  tracer.set_enabled(false);

  // Timed passes while the next one is expected to end within the
  // measuring time, so a slow host makes fewer passes, not longer runs.
  // An untraced run makes at least 3 passes for its medians, or 2 when
  // those already outlast the measuring time.  A traced run makes at
  // least 2, one untraced and one traced.
  const double window_ms = config.seconds * 1000;
  const int min_passes = config.trace ? 2 : 3;
  std::vector<double> untraced_ms, traced_ms, pass_rss_mb;
  std::map<long, std::vector<double>> op_samples;  // Untraced passes.
  long untraced_ops = 0;
  Metrics first_counts;
  long attempted = 0, failed = 0;
  double spent_ms = 0, pass_ms = 0;
  for (int pass = 0; pass < 2 ||
                     (pass < min_passes && spent_ms < window_ms) ||
                     spent_ms + pass_ms <= window_ms;
       ++pass) {
    const bool traced = config.trace && pass % 2 == 1;
    tracer.set_pass(pass);
    tracer.set_enabled(traced);
    PassStats stats;
    {
      std::optional<RssSampler> rss;
      if (!traced) {
#if defined(__GLIBC__)
        // Return to the OS the heap that earlier passes and their checks
        // freed, so a pass's peak counts the memory of that pass.
        malloc_trim(0);
#endif
        rss.emplace();
      }
      const Clock::time_point start = Clock::now();
      workload->RunPass(tracer, stats);
      pass_ms = MsSince(start);
      if (rss) pass_rss_mb.push_back(rss->PeakMb());
    }
    tracer.set_enabled(false);
    tracer.set_pass(-1);
    spent_ms += pass_ms;
    (traced ? traced_ms : untraced_ms).push_back(pass_ms);
    if (!traced) {
      for (const auto& [id, ms] : stats.op_ms) op_samples[id].push_back(ms);
      untraced_ops += static_cast<long>(stats.op_ms.size());
    }

    const auto ops = static_cast<long>(stats.op_ms.size());
    attempted += ops;
    long pass_failed = workload->CheckPass(pass == 0);
    Metrics counts;
    workload->Counts(counts);
    if (pass == 0) {
      first_counts = counts;
    } else {
      for (const auto& [name, metric] : counts) {
        if (metric.value != first_counts[name].value) {
          std::fprintf(stderr, "FAIL determinism: %s = %.17g on pass %d, "
                       "%.17g on pass 0\n", name.c_str(), metric.value, pass,
                       first_counts[name].value);
          pass_failed = ops;
        }
      }
    }
    failed += std::min(ops, pass_failed);
  }

  std::vector<double> op_ms;
  for (const auto& [id, samples] : op_samples) op_ms.push_back(Median(samples));

  Metrics metrics;
  if (config.trace) {
    tracer.set_enabled(true);
    workload->Probe(tracer);
    tracer.set_enabled(false);
    const std::vector<SpanRecord> spans = tracer.spans();
    const SpanSummary summary = Summarize(spans);
    if (config.workload == "preserve") {
      failed += summary.attribution_failures;
    }
    for (const auto& [name, unit] : PerLayerMetrics()) {
      metrics[name] = {0, unit};
    }
    for (const auto& [name, metric] : summary.layers) {
      if (metrics.count(name) != 0) metrics[name].value = metric.value;
    }
    workload->Counts(metrics);
    workload->LayerTimings(metrics);
    const double atpg_s = metrics["atpg.ms"].value / 1000;
    metrics["atpg.evals_per_s"].value =
        atpg_s > 0 ? metrics["atpg.evaluations"].value / atpg_s : 0;
    metrics["trace.attribution_min_pct"].value = summary.min_attribution_pct;
    metrics["trace.overhead_pct"].value =
        100.0 * (Median(traced_ms) / Median(untraced_ms) - 1);
    if (!config.spans_path.empty() &&
        !WriteSpans(config.spans_path, spans, summary)) {
      std::fprintf(stderr, "cannot write %s\n", config.spans_path.c_str());
      return 2;
    }
  } else {
    double untraced_total_ms = 0;
    for (const double ms : untraced_ms) untraced_total_ms += ms;
    workload->EndToEnd(metrics);
    metrics["wall_s"] = {Median(untraced_ms) / 1000, "s"};
    metrics["setup_s"] = {Median(setup_ms) / 1000, "s"};
    metrics["peak_rss_mb"] = {Median(pass_rss_mb), "MB"};
    metrics["job_p50_ms"] = {Quantile(op_ms, 0.5), "ms"};
    metrics["job_p90_ms"] = {Quantile(op_ms, 0.9), "ms"};
    metrics["jobs_per_s"] = {
        static_cast<double>(untraced_ops) / (untraced_total_ms / 1000), "1/s"};
    metrics["ops_ok_pct"] = {
        100.0 * static_cast<double>(attempted - failed) /
            static_cast<double>(std::max(1L, attempted)),
        "%"};
  }

  // The run record: host, configuration and sample counts.
  std::string env = "{";
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("REPRO_", 0) != 0) continue;
    const size_t eq = entry.find('=');
    if (env.size() > 1) env += ", ";
    env += JsonString(entry.substr(0, eq)) + ": " +
           JsonString(eq == std::string::npos ? "" : entry.substr(eq + 1));
  }
  env += "}";
  const int lane_words = retest::sim::ResolveLaneWords(0);
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"smoke\": %s, \"cpus\": %d, \"cpu_model\": %s, "
      "\"avx2\": %s, \"avx512\": %s, \"lanes\": %d, \"lanes_desc\": %s, "
      "\"threads\": %d, \"build_type\": %s, \"commit\": %s, \"env\": %s, "
      "\"setup_reps\": %d, \"untraced_passes\": %zu, \"traced_passes\": %zu, "
      "\"job_samples\": %zu, \"untraced_pass_ms\": %s, "
      "\"traced_pass_ms\": %s, \"pass_rss_mb\": %s%s}}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      JsonNumber(config.seconds).c_str(), config.trace ? 1 : 0,
      config.smoke ? "true" : "false", Nproc(), JsonString(CpuModel()).c_str(),
      retest::sim::CpuHasAvx2() ? "true" : "false",
      retest::sim::CpuHasAvx512() ? "true" : "false", 64 * lane_words,
      JsonString(retest::sim::DescribeLaneWords(lane_words)).c_str(),
      config.threads, JsonString(args.build_type).c_str(),
      JsonString(args.commit).c_str(), env.c_str(), setup_reps,
      untraced_ms.size(), traced_ms.size(), op_ms.size(),
      JsonArray(untraced_ms).c_str(), JsonArray(traced_ms).c_str(),
      JsonArray(pass_rss_mb).c_str(), workload->Describe().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": "
      "%s}\n",
      failed == 0 ? "true" : "false", attempted, failed,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  perfbench::Args args;
  perfbench::Config& config = args.config;
  config.threads = std::min(perfbench::Nproc(), 4);
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && config.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--build-type") {
      args.build_type = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  for (const char* name : perfbench::kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "perfbench_driver: refusing to run with %s set "
                   "(it changes results or stops ATPG on a clock)\n", name);
      return 2;
    }
  }
  if (const char* threads = std::getenv("REPRO_THREADS")) {
    if (std::atoi(threads) > perfbench::Nproc()) {
      std::fprintf(stderr, "perfbench_driver: refusing REPRO_THREADS=%s above "
                   "nproc %d\n", threads, perfbench::Nproc());
      return 2;
    }
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
