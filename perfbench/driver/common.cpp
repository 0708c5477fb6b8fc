#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench.h"
#include "fsm/benchmarks.h"
#include "pairs.h"
#include "retime/leiserson_saxe.h"
#include "retime/minreg.h"

namespace perfbench {

namespace {
// Innermost open span of each thread, so spans opened by serve client
// threads nest under their own job span.
thread_local std::vector<int> open_spans;
}  // namespace

int Tracer::Open(const char* name, long op) {
  const double now = MsSince(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.name = name;
  span.start_ms = now;
  span.pass = pass_;
  if (!open_spans.empty()) {
    span.parent = open_spans.back();
    if (op < 0) op = spans_[static_cast<size_t>(span.parent)].op;
  }
  span.op = op;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_spans.push_back(index);
  return index;
}

void Tracer::Close(int index) {
  const double now = MsSince(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end_ms = now;
  open_spans.pop_back();
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(at));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = at - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

using retest::synth::EncodingStyle;
using retest::synth::ScriptStyle;

const std::vector<Variant>& AllVariants() {
  static const std::vector<Variant> kVariants = {
      {"dk16", EncodingStyle::kInputDominant, ScriptStyle::kDelay},
      {"pma", EncodingStyle::kOutputDominant, ScriptStyle::kDelay},
      {"s510", EncodingStyle::kCombined, ScriptStyle::kDelay},
      {"s510", EncodingStyle::kCombined, ScriptStyle::kRugged},
      {"s510", EncodingStyle::kInputDominant, ScriptStyle::kDelay},
      {"s510", EncodingStyle::kInputDominant, ScriptStyle::kRugged},
      {"s510", EncodingStyle::kOutputDominant, ScriptStyle::kRugged},
      {"s820", EncodingStyle::kCombined, ScriptStyle::kDelay},
      {"s820", EncodingStyle::kCombined, ScriptStyle::kRugged},
      {"s820", EncodingStyle::kInputDominant, ScriptStyle::kRugged},
      {"s820", EncodingStyle::kOutputDominant, ScriptStyle::kDelay},
      {"s820", EncodingStyle::kOutputDominant, ScriptStyle::kRugged},
      {"s832", EncodingStyle::kCombined, ScriptStyle::kRugged},
      {"s832", EncodingStyle::kOutputDominant, ScriptStyle::kRugged},
      {"scf", EncodingStyle::kInputDominant, ScriptStyle::kDelay},
      {"scf", EncodingStyle::kOutputDominant, ScriptStyle::kDelay},
  };
  return kVariants;
}

std::vector<Variant> NonScfVariants() {
  std::vector<Variant> out;
  for (const Variant& v : AllVariants()) {
    if (std::string(v.fsm) != "scf") out.push_back(v);
  }
  return out;
}

PairInput MakePairInput(const Variant& variant) {
  PairInput input{variant, retest::fsm::MakeBenchmarkFsm(variant.fsm), {}};
  input.options.encoding = variant.encoding;
  input.options.script = variant.script;
  for (const auto& info : retest::fsm::PaperFsmTable()) {
    if (std::string(info.name) == variant.fsm) {
      input.options.explicit_reset = info.explicit_reset;
    }
  }
  return input;
}

Pair PreparePair(const PairInput& input, Tracer& tracer) {
  namespace retime = retest::retime;
  Pair pair;
  {
    Span span(tracer, "synth");
    pair.original = retest::synth::Synthesize(input.machine, input.options);
  }
  {
    Span span(tracer, "retime.graph");
    pair.build = retime::BuildGraph(pair.original);
  }
  retime::MinPeriodResult min_period;
  {
    Span span(tracer, "retime.min_period");
    min_period = retime::MinimizePeriod(pair.build.graph);
  }
  {
    Span span(tracer, "retime.min_reg");
    pair.retiming = retime::MinimizeRegisters(pair.build.graph,
                                              min_period.period,
                                              &min_period.retiming)
                        .retiming;
  }
  {
    Span span(tracer, "retime.moves");
    pair.moves = retime::CountMoves(pair.build.graph, pair.retiming);
  }
  {
    Span span(tracer, "retime.apply");
    pair.applied =
        retime::ApplyRetiming(pair.original, pair.build, pair.retiming);
  }
  return pair;
}

std::uint64_t Mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

retest::sim::InputSequence RandomSequence(int num_inputs, int length,
                                          std::uint64_t seed) {
  using retest::sim::V3;
  std::uint64_t state = seed;
  retest::sim::InputSequence sequence(static_cast<size_t>(length));
  for (auto& vector : sequence) {
    vector.resize(static_cast<size_t>(num_inputs));
    for (auto& bit : vector) bit = (Mix(state) & 1) != 0 ? V3::k1 : V3::k0;
  }
  return sequence;
}

std::vector<std::size_t> SeededOrder(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[Mix(state) % i]);
  }
  return order;
}

}  // namespace perfbench
