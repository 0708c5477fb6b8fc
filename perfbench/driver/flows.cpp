// The three library-call workloads: preserve (the Table III / Fig. 6
// pair flow), justify (the Table II engine) and grade (PROOFS only).
#include <algorithm>
#include <cstdio>
#include <map>

#include "analyze/certify.h"
#include "atpg/engine.h"
#include "core/preserve.h"
#include "core/testset.h"
#include "fault/collapse.h"
#include "fault/correspondence.h"
#include "faultsim/proofs.h"
#include "faultsim/serial.h"
#include "pairs.h"
#include "sim/compiled.h"
#include "tally.h"

namespace perfbench {

namespace {

using retest::atpg::AtpgOptions;
using retest::atpg::AtpgResult;
using retest::atpg::FaultStatus;
using retest::fault::CollapsedFaults;
using retest::fault::Fault;
using retest::faultsim::ProofsResult;

/// Far above any run length: no ATPG call may be stopped by a clock.
constexpr long kNoWallClockLimitMs = 24L * 3600 * 1000;

/// Removes every wall-clock stop, leaving only the deterministic
/// per-fault limits, and pins the thread count.
AtpgOptions Deterministic(AtpgOptions options, int threads) {
  options.time_budget_ms = kNoWallClockLimitMs;
  options.deadline_ms = 0;
  options.fault_timeout_ms = 0;
  options.num_threads = threads;
  return options;
}

retest::faultsim::ProofsOptions Proofs(int threads) {
  retest::faultsim::ProofsOptions options;
  options.num_threads = threads;
  return options;
}

/// Index of `fault` in a sorted fault list, or -1.
long Find(const std::vector<Fault>& sorted, const Fault& fault) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), fault);
  return it != sorted.end() && *it == fault ? it - sorted.begin() : -1;
}

/// Gate: the run finished every fault within its deterministic limits.
bool AtpgFinished(const AtpgResult& result, const std::string& what) {
  if (!result.preempted && result.Count(FaultStatus::kUntried) == 0) {
    return true;
  }
  std::fprintf(stderr, "FAIL %s: ATPG preempted=%d untried=%d\n",
               what.c_str(), result.preempted ? 1 : 0,
               result.Count(FaultStatus::kUntried));
  return false;
}

/// Gate: every ATPG-detected fault is detected by `proofs`, which
/// simulated `proofs_faults` (sorted) over the concatenated tests.
bool AtpgDetectionsConfirmed(const AtpgResult& result,
                             const std::vector<Fault>& proofs_faults,
                             const ProofsResult& proofs,
                             const std::string& what) {
  int missing = 0;
  for (size_t i = 0; i < result.faults.size(); ++i) {
    if (result.status[i] != FaultStatus::kDetected) continue;
    const long at = Find(proofs_faults, result.faults[i]);
    if (at < 0 || !proofs.detections[static_cast<size_t>(at)].detected) {
      ++missing;
    }
  }
  if (missing == 0) return true;
  std::fprintf(stderr,
               "FAIL %s: %d ATPG-detected faults not detected by PROOFS on "
               "the concatenated tests\n",
               what.c_str(), missing);
  return false;
}

// ---------------------------------------------------------------- preserve

class PreserveWorkload : public Workload {
 public:
  explicit PreserveWorkload(const Config& config) : config_(config) {
    variants_ = NonScfVariants();
    if (config.smoke) variants_.resize(2);
    atpg_.style = retest::atpg::AtpgStyle::kForwardIla;
    atpg_.random_rounds = config.smoke ? 8 : 96;
    atpg_.backtracks_per_fault = config.smoke ? 20 : 100;
    atpg_ = Deterministic(atpg_, config.threads);
  }

  void Setup(Tracer& tracer) override {
    inputs_.clear();
    for (const Variant& v : variants_) inputs_.push_back(MakePairInput(v));
    order_ = SeededOrder(inputs_.size(), config_.seed);
    // Warm-up: one flow on the smallest pair (thread pools, allocator).
    Span span(tracer, "setup.warmup");
    Outcome warm;
    RunPair(inputs_.front(), 0, tracer, warm);
  }

  void RunPass(Tracer& tracer, PassStats& stats) override {
    outcomes_.assign(inputs_.size(), Outcome{});
    for (const size_t i : order_) {
      const Clock::time_point start = Clock::now();
      {
        Span op(tracer, "op.pair", static_cast<long>(i));
        RunPair(inputs_[i], i, tracer, outcomes_[i]);
      }
      stats.op_ms[static_cast<long>(i)] = MsSince(start);
    }
  }

  int CheckPass(bool full) override {
    int failed = 0;
    for (const Outcome& o : outcomes_) {
      if (!Check(o, full)) ++failed;
    }
    return failed;
  }

  void EndToEnd(Metrics& out) const override {
    FaultsimTally retimed;
    AtpgTally atpg;
    for (const Outcome& o : outcomes_) {
      retimed.Add(o.retimed_sim, o.derived_length);
      atpg.Add(o.atpg);
    }
    out["coverage_pct"] = {retimed.CoveragePct(), "%"};
    out["efficiency_pct"] = {atpg.EfficiencyPct(), "%"};
  }

  void Counts(Metrics& out) const override {
    AtpgTally atpg;
    FaultsimTally sim;
    long representatives = 0, universe = 0;
    int prefix = 0;
    for (const Outcome& o : outcomes_) {
      atpg.Add(o.atpg);
      sim.Add(o.original_sim, o.original_length);
      sim.Add(o.retimed_sim, o.derived_length);
      for (const CollapsedFaults* c : {&o.original_faults, &o.retimed_faults}) {
        representatives += static_cast<long>(c->representatives.size());
        universe += static_cast<long>(c->all.size());
      }
      prefix = std::max(prefix, o.prefix);
    }
    atpg.Report(out);
    sim.Report(out);
    out["fault.faults"] = {static_cast<double>(representatives), "count"};
    out["fault.collapse_ratio"] = {
        universe == 0 ? 0 : static_cast<double>(representatives) / universe,
        "ratio"};
    out["preserve.prefix_len"] = {static_cast<double>(prefix), "count"};
  }

 private:
  struct Outcome {
    std::string name;
    Pair pair;
    retest::analyze::CertifyResult cert;
    CollapsedFaults original_faults, retimed_faults;
    AtpgResult atpg;
    int prefix = 0;
    ProofsResult original_sim, retimed_sim;
    size_t original_length = 0, derived_length = 0;
  };

  void RunPair(const PairInput& input, size_t index, Tracer& tracer,
               Outcome& o) const {
    o.pair = PreparePair(input, tracer);
    o.name = o.pair.original.name();
    {
      Span span(tracer, "analyze.certify");
      o.cert = retest::analyze::CertifyRetiming(o.pair.original,
                                                o.pair.retimed());
    }
    {
      Span span(tracer, "fault.collapse");
      o.original_faults = retest::fault::Collapse(o.pair.original);
      o.retimed_faults = retest::fault::Collapse(o.pair.retimed());
    }
    {
      Span span(tracer, "atpg");
      o.atpg = retest::atpg::RunAtpg(o.pair.original, atpg_);
    }
    retest::core::TestSet original_set, derived;
    {
      Span span(tracer, "preserve.derive");
      original_set.tests = o.atpg.tests;
      o.prefix = retest::core::PrefixLength(o.pair.build.graph,
                                            o.pair.retiming);
      // Theorem 4 allows any prefix vectors; they come from the seed.
      derived = retest::core::DeriveRetimedTestSet(
          original_set, o.prefix, o.pair.retimed().num_inputs(),
          retest::core::PrefixStyle::kRandom, false, config_.seed + index);
    }
    Span span(tracer, "faultsim");
    const auto original_stream = original_set.Concatenated();
    const auto derived_stream = derived.Concatenated();
    o.original_length = original_stream.size();
    o.derived_length = derived_stream.size();
    o.original_sim = retest::faultsim::SimulateProofs(
        o.pair.original, o.original_faults.representatives, original_stream,
        Proofs(config_.threads));
    o.retimed_sim = retest::faultsim::SimulateProofs(
        o.pair.retimed(), o.retimed_faults.representatives, derived_stream,
        Proofs(config_.threads));
  }

  bool Check(const Outcome& o, bool full) const {
    bool ok = AtpgFinished(o.atpg, o.name);
    if (!o.cert.certified) {
      std::fprintf(stderr, "FAIL %s: retiming not certified\n",
                   o.name.c_str());
      ok = false;
    } else if (o.cert.certificate.prefix_length != o.prefix) {
      std::fprintf(stderr,
                   "FAIL %s: certificate prefix %d != PrefixLength %d\n",
                   o.name.c_str(), o.cert.certificate.prefix_length, o.prefix);
      ok = false;
    }
    ok = AtpgDetectionsConfirmed(o.atpg, o.original_faults.representatives,
                                 o.original_sim, o.name) &&
         ok;
    if (full) ok = Theorem4Audit(o) && ok;
    return ok;
  }

  /// Per-fault Theorem 4: every retimed fault whose corresponding
  /// original faults were all detected by the test set is detected by
  /// the derived set.  Equivalent faults share their representative's
  /// detection, so the whole retimed universe is audited.
  static bool Theorem4Audit(const Outcome& o) {
    const auto correspondence = retest::fault::BuildCorrespondence(
        o.pair.build, o.pair.retiming, o.pair.applied);
    const auto detected = [](const CollapsedFaults& faults,
                             const ProofsResult& sim, size_t universe_index) {
      const Fault& rep = faults.all[static_cast<size_t>(
          faults.class_of[universe_index])];
      const long at = Find(faults.representatives, rep);
      return at >= 0 && sim.detections[static_cast<size_t>(at)].detected;
    };
    std::map<Fault, size_t> original_index;
    for (size_t i = 0; i < o.original_faults.all.size(); ++i) {
      original_index.emplace(o.original_faults.all[i], i);
    }
    int violations = 0, audited = 0;
    for (size_t j = 0; j < o.retimed_faults.all.size(); ++j) {
      const Fault& fault = o.retimed_faults.all[j];
      const auto it = correspondence.to_original.find(fault.site);
      bool all_detected = it != correspondence.to_original.end();
      if (all_detected) {
        for (const auto& site : it->second) {
          const auto found = original_index.find({site, fault.stuck_at_1});
          if (found == original_index.end() ||
              !detected(o.original_faults, o.original_sim, found->second)) {
            all_detected = false;
            break;
          }
        }
      }
      if (!all_detected) continue;
      ++audited;
      if (!detected(o.retimed_faults, o.retimed_sim, j)) ++violations;
    }
    if (violations == 0 && audited > 0) return true;
    std::fprintf(stderr, "FAIL %s: Theorem-4 audit: %d violations of %d\n",
                 o.name.c_str(), violations, audited);
    return false;
  }

  const Config config_;
  std::vector<Variant> variants_;
  AtpgOptions atpg_;
  std::vector<PairInput> inputs_;
  std::vector<size_t> order_;
  std::vector<Outcome> outcomes_;
};

// ----------------------------------------------------------------- justify

class JustifyWorkload : public Workload {
 public:
  explicit JustifyWorkload(const Config& config) : config_(config) {
    // One pair per FSM, plus a second s820 script: all fourteen pairs
    // take about 20 s per pass even at these limits.
    for (const size_t i : {0, 1, 2, 7, 9, 12}) {
      variants_.push_back(AllVariants()[i]);
    }
    if (config.smoke) variants_.resize(1);
    atpg_.style = retest::atpg::AtpgStyle::kJustification;
    atpg_.random_rounds = 0;
    atpg_.backtracks_per_fault = config.smoke ? 4 : 8;
    atpg_.justify_backtracks = config.smoke ? 20 : 48;
    atpg_ = Deterministic(atpg_, config.threads);
  }

  void Setup(Tracer& tracer) override {
    circuits_.clear();
    for (const Variant& v : variants_) {
      Pair pair = PreparePair(MakePairInput(v), tracer);
      circuits_.push_back(pair.original);
      circuits_.push_back(pair.retimed());
    }
    order_ = SeededOrder(circuits_.size(), config_.seed);
    // Warm-up: the smallest original (thread pools, allocator).
    AtpgOptions warm = atpg_;
    warm.backtracks_per_fault = 1;
    warm.justify_backtracks = 1;
    Span span(tracer, "setup.warmup");
    retest::atpg::RunAtpg(circuits_.front(), warm);
  }

  void RunPass(Tracer& tracer, PassStats& stats) override {
    results_.assign(circuits_.size(), AtpgResult{});
    for (const size_t i : order_) {
      const Clock::time_point start = Clock::now();
      {
        Span op(tracer, "op.run", static_cast<long>(i));
        Span span(tracer, "atpg");
        results_[i] = retest::atpg::RunAtpg(circuits_[i], atpg_);
      }
      stats.op_ms[static_cast<long>(i)] = MsSince(start);
    }
  }

  int CheckPass(bool full) override {
    int failed = 0;
    for (size_t i = 0; i < circuits_.size(); ++i) {
      const AtpgResult& result = results_[i];
      const std::string& name = circuits_[i].name();
      bool ok = AtpgFinished(result, name);
      if (full) {
        const auto proofs = retest::faultsim::SimulateProofs(
            circuits_[i], result.faults, result.ConcatenatedTests(),
            Proofs(config_.threads));
        ok = AtpgDetectionsConfirmed(result, result.faults, proofs, name) && ok;
      }
      if (!ok) ++failed;
    }
    return failed;
  }

  void EndToEnd(Metrics& out) const override {
    AtpgTally tally;
    for (const AtpgResult& r : results_) tally.Add(r);
    out["coverage_pct"] = {tally.CoveragePct(), "%"};
    out["efficiency_pct"] = {tally.EfficiencyPct(), "%"};
  }

  void Counts(Metrics& out) const override {
    AtpgTally tally;
    for (const AtpgResult& r : results_) tally.Add(r);
    tally.Report(out);
  }

 private:
  const Config config_;
  std::vector<Variant> variants_;
  AtpgOptions atpg_;
  std::vector<retest::netlist::Circuit> circuits_;
  std::vector<size_t> order_;
  std::vector<AtpgResult> results_;
};

// ------------------------------------------------------------------- grade

class GradeWorkload : public Workload {
 public:
  explicit GradeWorkload(const Config& config) : config_(config) {
    variants_ = AllVariants();
    if (config.smoke) variants_.resize(2);
    length_ = config.smoke ? 64 : 1024;
  }

  void Setup(Tracer& tracer) override {
    circuits_.clear();
    faults_.clear();
    sequences_.clear();
    universe_ = 0;
    for (const Variant& v : variants_) {
      Pair pair = PreparePair(MakePairInput(v), tracer);
      circuits_.push_back(pair.original);
      circuits_.push_back(pair.retimed());
    }
    std::uint64_t state = config_.seed;
    for (const auto& circuit : circuits_) {
      {
        Span span(tracer, "fault.collapse");
        auto collapsed = retest::fault::Collapse(circuit);
        universe_ += static_cast<long>(collapsed.all.size());
        faults_.push_back(std::move(collapsed.representatives));
      }
      sequences_.push_back(
          RandomSequence(circuit.num_inputs(), length_, Mix(state)));
    }
    order_ = SeededOrder(circuits_.size(), config_.seed);
    // Warm-up: PROOFS on the first circuit (thread pools, allocator).
    Span span(tracer, "setup.warmup");
    retest::faultsim::SimulateProofs(circuits_.front(), faults_.front(),
                                     sequences_.front(),
                                     Proofs(config_.threads));
  }

  void RunPass(Tracer& tracer, PassStats& stats) override {
    results_.assign(circuits_.size(), ProofsResult{});
    for (const size_t i : order_) {
      const Clock::time_point start = Clock::now();
      {
        Span op(tracer, "op.circuit", static_cast<long>(i));
        Span span(tracer, "faultsim");
        results_[i] = retest::faultsim::SimulateProofs(
            circuits_[i], faults_[i], sequences_[i], Proofs(config_.threads));
      }
      stats.op_ms[static_cast<long>(i)] = MsSince(start);
    }
  }

  int CheckPass(bool full) override {
    if (!full) return 0;
    // PROOFS equals the serial reference on a fixed, evenly spread
    // sample of each circuit's faults.
    constexpr size_t kSample = 16;
    int failed = 0;
    for (size_t i = 0; i < circuits_.size(); ++i) {
      std::vector<Fault> sample;
      std::vector<size_t> at;
      const size_t n = faults_[i].size();
      for (size_t k = 0; k < std::min(kSample, n); ++k) {
        at.push_back(k * n / std::min(kSample, n));
        sample.push_back(faults_[i][at.back()]);
      }
      const auto serial = retest::faultsim::SimulateSerial(circuits_[i],
                                                           sample,
                                                           sequences_[i]);
      int mismatches = 0;
      for (size_t k = 0; k < sample.size(); ++k) {
        if (!(serial[k] == results_[i].detections[at[k]])) ++mismatches;
      }
      if (mismatches > 0) {
        std::fprintf(stderr, "FAIL %s: PROOFS != serial on %d of %zu faults\n",
                     circuits_[i].name().c_str(), mismatches, sample.size());
        ++failed;
      }
    }
    return failed;
  }

  void Probe(Tracer& tracer) override {
    // The sim layer, each call timed on its own: the compiled image
    // PROOFS builds and the good-machine trace on the same sequence.
    for (size_t i = 0; i < circuits_.size(); ++i) {
      Span op(tracer, "probe.circuit", static_cast<long>(i));
      {
        Span span(tracer, "sim.compile");
        retest::sim::CompiledNetlist compiled(circuits_[i]);
      }
      Span span(tracer, "sim.good_trace");
      retest::sim::Trace trace(circuits_[i], sequences_[i]);
    }
  }

  void EndToEnd(Metrics& out) const override {
    FaultsimTally tally;
    for (const ProofsResult& r : results_) tally.Add(r, length_);
    out["coverage_pct"] = {tally.CoveragePct(), "%"};
    // PROOFS proves no redundancy: every classified fault is detected.
    out["efficiency_pct"] = {tally.CoveragePct(), "%"};
  }

  void Counts(Metrics& out) const override {
    FaultsimTally tally;
    for (size_t i = 0; i < results_.size(); ++i) {
      tally.Add(results_[i], length_);
    }
    tally.Report(out);
    out["fault.faults"] = {static_cast<double>(tally.faults), "count"};
    out["fault.collapse_ratio"] = {
        static_cast<double>(tally.faults) / static_cast<double>(universe_),
        "ratio"};
  }

 private:
  const Config config_;
  std::vector<Variant> variants_;
  int length_ = 0;
  std::vector<retest::netlist::Circuit> circuits_;
  std::vector<std::vector<Fault>> faults_;
  long universe_ = 0;  ///< Uncollapsed faults over all circuits.
  std::vector<retest::sim::InputSequence> sequences_;
  std::vector<size_t> order_;
  std::vector<ProofsResult> results_;
};

}  // namespace

std::unique_ptr<Workload> MakePreserve(const Config& config) {
  return std::make_unique<PreserveWorkload>(config);
}
std::unique_ptr<Workload> MakeJustify(const Config& config) {
  return std::make_unique<JustifyWorkload>(config);
}
std::unique_ptr<Workload> MakeGrade(const Config& config) {
  return std::make_unique<GradeWorkload>(config);
}

}  // namespace perfbench
