// The serve workload: a closed loop of four client connections against
// an in-process core/server Server on loopback TCP.  Each client sends
// its next SUBMIT only after the result of its previous one arrived.
// The job mix is short kFaultSim jobs, quick kAtpg jobs and longer
// kPreserve jobs on the small circuits; its order comes from the seed.
// The mix is synthetic: no recorded client traffic exists to take it
// from.  Only the quick ATPG job's limits come from elsewhere (the job of
// bench/bench_serve_perf); the proportions and the other job sizes were
// chosen so that the median latency falls among the ATPG jobs and p90
// among the preserve jobs.
//
// The service gets half the benchmark's threads as fleet workers and
// each job the other half as its engine thread budget, so four clients
// against fewer workers queue short jobs behind long ones.
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <map>
#include <thread>

#include "analyze/certify.h"
#include "atpg/engine.h"
#include "core/crc32.h"
#include "core/preserve.h"
#include "core/server/framing.h"
#include "core/server/protocol.h"
#include "core/server/server.h"
#include "core/testset.h"
#include "fault/collapse.h"
#include "faultsim/proofs.h"
#include "netlist/bench_io.h"
#include "pairs.h"

namespace perfbench {

namespace {

namespace server = retest::core::server;
using Fields = std::map<std::string, std::string>;

constexpr int kClients = 4;
constexpr long kNoWallClockLimitMs = 24L * 3600 * 1000;

// ---- A flat reader for the result frames: "a.b" -> scalar text. ----

void SkipSpace(const std::string& s, size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

/// Raw contents of the string literal at s[i] (escapes kept as-is).
std::string ReadString(const std::string& s, size_t& i) {
  const size_t start = ++i;
  while (i < s.size() && s[i] != '"') i += s[i] == '\\' ? 2 : 1;
  return s.substr(start, std::min(i++, s.size()) - start);
}

void ReadValue(const std::string& s, size_t& i, const std::string& path,
               Fields& out) {
  SkipSpace(s, i);
  if (i >= s.size()) return;
  if (s[i] == '{' || s[i] == '[') {
    const char close = s[i] == '{' ? '}' : ']';
    ++i;
    for (SkipSpace(s, i); i < s.size() && s[i] != close; SkipSpace(s, i)) {
      std::string key = "[]";
      if (close == '}') {
        key = ReadString(s, i);
        SkipSpace(s, i);
        ++i;  // ':'
      }
      ReadValue(s, i, path.empty() ? key : path + "." + key, out);
      SkipSpace(s, i);
      if (i < s.size() && s[i] == ',') ++i;
    }
    ++i;
  } else if (s[i] == '"') {
    out[path] = ReadString(s, i);
  } else {
    const size_t start = i;
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
           !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    out[path] = s.substr(start, i - start);
  }
}

Fields ParseFields(const std::string& json) {
  Fields out;
  size_t i = 0;
  ReadValue(json, i, "", out);
  return out;
}

// ---- Expected result fields from direct library calls. ----

void ExpectAtpg(const retest::atpg::AtpgResult& r, Fields& out) {
  using retest::atpg::FaultStatus;
  retest::core::TestSet set;
  set.tests = r.tests;
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", retest::core::Crc32(set.ToText()));
  out["preempted"] = r.preempted ? "true" : "false";
  out["atpg.faults"] = std::to_string(r.faults.size());
  out["atpg.detected"] = std::to_string(r.Count(FaultStatus::kDetected));
  out["atpg.redundant"] = std::to_string(r.Count(FaultStatus::kRedundant));
  out["atpg.aborted"] = std::to_string(r.Count(FaultStatus::kAborted));
  out["atpg.untried"] = std::to_string(r.Count(FaultStatus::kUntried));
  out["atpg.evaluations"] = std::to_string(r.evaluations);
  out["atpg.num_tests"] = std::to_string(r.tests.size());
  out["atpg.total_vectors"] = std::to_string(set.total_vectors());
  out["atpg.tests_crc32"] = crc;
}

void ExpectProofs(const retest::faultsim::ProofsResult& r,
                  const std::string& prefix, Fields& out) {
  out[prefix + ".faults"] = std::to_string(r.detections.size());
  out[prefix + ".detected"] = std::to_string(r.num_detected());
  out[prefix + ".frames_evaluated"] = std::to_string(r.frames_evaluated);
  out[prefix + ".gate_evals"] = std::to_string(r.gate_evals);
}

retest::netlist::Circuit Parse(const std::string& text,
                               const std::string& name) {
  auto parsed = retest::netlist::ParseBenchString(text, name, "netlist");
  if (!parsed.ok()) throw std::runtime_error("unparsable netlist " + name);
  return std::move(*parsed.circuit);
}

/// The result fields the service must reproduce for `spec`, computed
/// by calling the library directly with the job's thread budget.
Fields Expected(const server::JobSpec& spec, int threads) {
  namespace atpg = retest::atpg;
  namespace faultsim = retest::faultsim;
  Fields out;
  out["status"] = "ok";
  out["kind"] = std::string(server::ToString(spec.kind));
  const auto circuit = Parse(spec.netlist, spec.name);
  atpg::AtpgOptions options = spec.atpg;
  options.num_threads = threads;
  faultsim::ProofsOptions proofs;
  proofs.num_threads = threads;
  switch (spec.kind) {
    case server::JobKind::kAtpg:
      ExpectAtpg(atpg::RunAtpg(circuit, options), out);
      break;
    case server::JobKind::kFaultSim: {
      const auto faults = retest::fault::Collapse(circuit);
      ExpectProofs(faultsim::SimulateProofs(
                       circuit, faults.representatives,
                       retest::core::TestSet::FromText(spec.tests)
                           .Concatenated(),
                       proofs),
                   "faultsim", out);
      break;
    }
    case server::JobKind::kPreserve: {
      const auto retimed = Parse(spec.retimed, spec.name + ".retimed");
      const auto cert = retest::analyze::CertifyRetiming(circuit, retimed);
      const auto result = atpg::RunAtpg(circuit, options);
      retest::core::TestSet set;
      set.tests = result.tests;
      const auto derived = retest::core::DeriveRetimedTestSet(
          set, cert.certificate.prefix_length, retimed.num_inputs());
      const auto faults = retest::fault::Collapse(retimed);
      out["certified"] = cert.certified ? "true" : "false";
      out["prefix_length"] = std::to_string(cert.certificate.prefix_length);
      out["original_dffs"] = std::to_string(circuit.num_dffs());
      out["retimed_dffs"] = std::to_string(retimed.num_dffs());
      ExpectAtpg(result, out);
      ExpectProofs(faultsim::SimulateProofs(retimed, faults.representatives,
                                            derived.Concatenated(), proofs),
                   "mapped", out);
      break;
    }
  }
  return out;
}

/// One job as a client saw it.
struct JobOutcome {
  size_t spec = 0;
  std::uint64_t id = 0;
  bool accepted = false;
  double latency_ms = 0;
  std::string result;
};

/// Owns the server, its accept thread and the client connections.
class Harness {
 public:
  Harness(int workers, size_t max_queue)
      : server_(Options(workers, max_queue)) {
    retest::core::DiagnosticList diags;
    if (!server_.Start(diags)) {
      throw std::runtime_error("server start failed: " + diags.ToString());
    }
    run_thread_ = std::thread([this] { server_.Run(); });
    try {
      for (int c = 0; c < kClients; ++c) {
        std::string error;
        const int fd = server::ConnectTcp(server_.port(), error);
        if (fd < 0) throw std::runtime_error("connect failed: " + error);
        clients_.push_back(Client{fd, server::FrameDecoder()});
        std::string hello;
        if (!Read(clients_.back(), hello)) {
          throw std::runtime_error("no hello frame");
        }
      }
    } catch (...) {
      Stop();
      throw;
    }
  }
  ~Harness() { Stop(); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  server::Service& service() { return server_.service(); }

  /// Closed loop: each client takes the next job of `order` once its
  /// previous one returned.
  void RunJobs(const std::vector<std::string>& payloads,
               const std::vector<size_t>& order, Tracer& tracer,
               std::vector<JobOutcome>& outcomes) {
    outcomes.assign(order.size(), JobOutcome{});
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (Client& client : clients_) {
      threads.emplace_back([&, c = &client] {
        for (size_t j = next++; j < order.size(); j = next++) {
          Span op(tracer, "op.job", static_cast<long>(j));
          outcomes[j].spec = order[j];
          Submit(*c, payloads[order[j]], outcomes[j]);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

 private:
  struct Client {
    int fd;
    server::FrameDecoder decoder;
  };

  static server::ServerOptions Options(int workers, size_t max_queue) {
    server::ServerOptions options;
    options.tcp_port = 0;
    options.service.num_workers = workers;
    options.service.max_queue = max_queue;
    return options;
  }

  static bool Read(Client& client, std::string& payload) {
    std::string error;
    return server::ReadFrame(client.fd, client.decoder, payload, error) ==
           server::FrameDecoder::Next::kFrame;
  }

  static void Submit(Client& client, const std::string& payload,
                     JobOutcome& outcome) {
    const Clock::time_point start = Clock::now();
    if (!server::WriteFrame(client.fd, payload)) return;
    std::string frame;
    while (Read(client, frame)) {
      const Fields fields = ParseFields(frame);
      const std::string type = fields.count("type") ? fields.at("type") : "";
      if (type == "accepted") {
        outcome.accepted = true;
        outcome.id = std::stoull(fields.at("id"));
      } else if (type == "result") {
        outcome.latency_ms = MsSince(start);
        outcome.result = frame;
        return;
      } else if (type != "progress") {
        outcome.result = frame;  // rejected or error: the job failed.
        return;
      }
    }
  }

  void Stop() {
    for (Client& client : clients_) close(client.fd);
    clients_.clear();
    if (run_thread_.joinable()) {
      server_.Shutdown();
      run_thread_.join();
    }
  }

  server::Server server_;
  std::thread run_thread_;
  std::vector<Client> clients_;
};

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const Config& config)
      : config_(config),
        workers_(std::max(1, config.threads / 2)),
        job_threads_(std::max(1, config.threads / workers_)),
        jobs_per_pass_(config.smoke ? 8 : 48) {
    const auto& all = AllVariants();
    variants_.assign(all.begin(), all.begin() + (config.smoke ? 1 : 3));
  }

  void Setup(Tracer& tracer) override {
    harness_.reset();
    specs_.clear();
    payloads_.clear();
    // The job set is fixed; only the job order comes from the seed.
    std::uint64_t tests_state = 1;
    for (const Variant& v : variants_) {
      const Pair pair = PreparePair(MakePairInput(v), tracer);
      const std::string name = pair.original.name();
      const std::string original = retest::netlist::WriteBenchString(
          pair.original);
      server::JobSpec spec;
      spec.threads = job_threads_;
      spec.netlist = original;
      spec.atpg.time_budget_ms = kNoWallClockLimitMs;

      // Short: PROOFS of a seeded random test set.
      server::JobSpec fs = spec;
      fs.name = "faultsim:" + name;
      fs.kind = server::JobKind::kFaultSim;
      retest::core::TestSet tests;
      for (int t = 0; t < 4; ++t) {
        tests.tests.push_back(
            RandomSequence(pair.original.num_inputs(), 32, Mix(tests_state)));
      }
      fs.tests = tests.ToText();

      // Quick: forward ILA ATPG with tight deterministic limits.
      server::JobSpec quick = spec;
      quick.name = "atpg:" + name;
      quick.kind = server::JobKind::kAtpg;
      quick.atpg.random_rounds = 0;
      quick.atpg.backtracks_per_fault = 2;
      quick.atpg.max_frames = 16;
      quick.atpg.redundancy_check = false;

      // Longer: the certified pair flow.
      server::JobSpec flow = spec;
      flow.name = "preserve:" + name;
      flow.kind = server::JobKind::kPreserve;
      flow.retimed = retest::netlist::WriteBenchString(pair.retimed());
      flow.atpg.random_rounds = 16;
      flow.atpg.backtracks_per_fault = 20;

      for (server::JobSpec* s : {&fs, &quick, &flow}) specs_.push_back(*s);
    }
    for (const auto& s : specs_) payloads_.push_back(BuildSubmitPayload(s));

    // Every pass runs the same mix -- per circuit 6 faultsim, 7 atpg
    // and 3 preserve jobs, so the median falls among the atpg jobs and
    // p90 among the preserve jobs -- each pass in its own order drawn
    // from the seed, so a run averages over several orders.
    mix_.clear();
    const size_t per_kind[] = {6, 7, 3};
    for (size_t repeat = 0; mix_.size() < jobs_per_pass_; ++repeat) {
      for (size_t spec = 0; spec < specs_.size(); ++spec) {
        if (repeat < per_kind[spec % 3]) mix_.push_back(spec);
      }
    }
    mix_.resize(jobs_per_pass_);
    order_state_ = config_.seed;
    FreshServer();
    {
      // Warm-up: every distinct job once.
      Span span(tracer, "setup.warmup");
      std::vector<size_t> each(specs_.size());
      for (size_t i = 0; i < each.size(); ++i) each[i] = i;
      std::vector<JobOutcome> warm;
      Tracer off;
      harness_->RunJobs(payloads_, each, off, warm);
    }
    FreshServer();
  }

  void RunPass(Tracer& tracer, PassStats& stats) override {
    std::vector<size_t> order;
    for (const size_t i : SeededOrder(mix_.size(), Mix(order_state_))) {
      order.push_back(mix_[i]);
    }
    harness_->RunJobs(payloads_, order, tracer, outcomes_);
    // Every job submission is its own operation.
    for (const JobOutcome& o : outcomes_) {
      stats.op_ms[static_cast<long>(jobs_sent_++)] = o.latency_ms;
    }
  }

  int CheckPass(bool full) override {
    if (full || expected_.empty()) {
      expected_.clear();
      for (const auto& spec : specs_) {
        expected_.push_back(Expected(spec, job_threads_));
      }
    }
    int failed = 0;
    rejected_ = failed_ = 0;
    results_.clear();
    for (const JobOutcome& o : outcomes_) {
      const Fields got = ParseFields(o.result);
      results_.push_back(got);
      if (!o.accepted) ++rejected_;
      bool ok = o.accepted && got.count("status") != 0 &&
                got.at("status") == "ok";
      if (o.accepted && !ok) ++failed_;
      for (const auto& [key, value] : expected_[o.spec]) {
        const auto it = got.find(key);
        if (it == got.end() || it->second != value) {
          std::fprintf(stderr, "FAIL job %s: %s = %s, direct call gives %s\n",
                       specs_[o.spec].name.c_str(), key.c_str(),
                       it == got.end() ? "(missing)" : it->second.c_str(),
                       value.c_str());
          ok = false;
          break;
        }
      }
      if (const auto record = harness_->service().Query(o.id)) {
        queue_ms_.push_back(record->queued_ms);
        run_ms_.push_back(record->run_ms);
        overhead_ms_.push_back(o.latency_ms - record->queued_ms -
                               record->run_ms);
      }
      if (!ok) ++failed;
    }
    FreshServer();
    return failed;
  }

  void EndToEnd(Metrics& out) const override {
    double detected = 0, faults = 0, classified = 0, targeted = 0;
    for (const Fields& f : results_) {
      for (const char* part : {"atpg", "faultsim", "mapped"}) {
        if (f.count(std::string(part) + ".faults") == 0) continue;
        const double n = std::stod(f.at(std::string(part) + ".faults"));
        const double d = std::stod(f.at(std::string(part) + ".detected"));
        if (std::string(part) == "atpg") {
          targeted += n;
          classified += d + std::stod(f.at("atpg.redundant"));
          // A preserve job's coverage is that of its mapped set.
          if (f.count("mapped.faults") != 0) continue;
        }
        faults += n;
        detected += d;
      }
    }
    out["coverage_pct"] = {faults > 0 ? 100 * detected / faults : 0, "%"};
    out["efficiency_pct"] = {targeted > 0 ? 100 * classified / targeted : 0,
                             "%"};
  }

  void Counts(Metrics& out) const override {
    out["server.rejected"] = {static_cast<double>(rejected_), "count"};
    out["server.failed"] = {static_cast<double>(failed_), "count"};
  }

  void LayerTimings(Metrics& out) const override {
    out["server.queue_ms_p50"] = {Median(queue_ms_), "ms"};
    out["server.run_ms_p50"] = {Median(run_ms_), "ms"};
    out["server.overhead_ms_p50"] = {Median(overhead_ms_), "ms"};
  }

  std::string Describe() const override {
    return ", \"serve\": {\"clients\": " + std::to_string(kClients) +
           ", \"service_workers\": " + std::to_string(workers_) +
           ", \"job_threads\": " + std::to_string(job_threads_) +
           ", \"jobs_per_pass\": " + std::to_string(jobs_per_pass_) + "}";
  }

 private:
  /// Replaces the server by a new one with an empty job registry.  The
  /// service keeps every job it served, so on one long-lived server
  /// resident memory would grow with each pass, and peak_rss_mb would
  /// depend on how many passes a run makes.  Every timed pass therefore
  /// starts on a fresh server, built outside the timed window.
  void FreshServer() {
    harness_.reset();
    harness_ = std::make_unique<Harness>(workers_, jobs_per_pass_ + 8);
  }

  const Config config_;
  const int workers_;
  const int job_threads_;
  const size_t jobs_per_pass_;
  std::vector<Variant> variants_;
  std::vector<server::JobSpec> specs_;
  std::vector<std::string> payloads_;
  std::vector<size_t> mix_;  ///< The jobs of one pass, unordered.
  std::uint64_t order_state_ = 0;
  std::size_t jobs_sent_ = 0;
  std::unique_ptr<Harness> harness_;
  std::vector<JobOutcome> outcomes_;
  std::vector<Fields> expected_;
  std::vector<Fields> results_;
  long rejected_ = 0, failed_ = 0;
  std::vector<double> queue_ms_, run_ms_, overhead_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeServe(const Config& config) {
  return std::make_unique<ServeWorkload>(config);
}

}  // namespace perfbench
