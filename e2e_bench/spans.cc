#include "e2e_bench/spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace snic::e2e {
namespace {
double ns_per_tick = 1.0;
}  // namespace

void CalibrateTicks() {
  const int64_t ns0 = NowNs();
  const int64_t t0 = NowTicks();
  while (NowNs() - ns0 < 20'000'000) {
  }
  ns_per_tick = static_cast<double>(NowNs() - ns0) /
                static_cast<double>(NowTicks() - t0);
}

uint16_t Tracer::Intern(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint16_t>(i);
    }
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<uint16_t>(names_.size() - 1);
}

void Tracer::Begin(uint16_t name) {
  int32_t stored_index = -1;
  if (stored_.size() < kMaxStoredSpans) {
    SpanRecord record;
    record.parent = stack_.empty() ? -1 : stack_.back().stored_index;
    record.op = op_;
    record.name = name;
    stored_index = static_cast<int32_t>(stored_.size());
    stored_.push_back(record);
  }
  stack_.push_back(Open{NowTicks(), 0, stored_index, name});
}

void Tracer::End() {
  const int64_t end = NowTicks();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = end - open.start;
  TickTotals& totals = totals_[open.name];
  ++totals.calls;
  totals.total += duration;
  totals.self += duration - open.child;
  if (!stack_.empty()) {
    stack_.back().child += duration;
  }
  if (open.stored_index >= 0) {
    stored_[open.stored_index].start = open.start;
    stored_[open.stored_index].end = end;
  }
  ++span_count_;
}

SpanTotals Tracer::Totals(size_t name) const {
  const TickTotals& t = totals_[name];
  return SpanTotals{t.calls, static_cast<double>(t.total) * ns_per_tick,
                    static_cast<double>(t.self) * ns_per_tick};
}

SpanTotals Tracer::LayerTotals(std::string_view layer) const {
  SpanTotals sum;
  for (size_t i = 0; i < names_.size(); ++i) {
    const std::string_view name = names_[i];
    if (name.substr(0, name.find('.')) == layer) {
      const SpanTotals t = Totals(i);
      sum.calls += t.calls;
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
    }
  }
  return sum;
}

SpanTotals Tracer::NameTotals(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return Totals(i);
    }
  }
  return SpanTotals{};
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::vector<int64_t> child(stored_.size(), 0);
  for (const SpanRecord& span : stored_) {
    if (span.parent >= 0) {
      child[span.parent] += span.end - span.start;
    }
  }
  const int64_t origin = stored_.empty() ? 0 : stored_.front().start;
  const auto ns = [](int64_t ticks) {
    return static_cast<double>(ticks) * ns_per_tick;
  };
  for (size_t i = 0; i < stored_.size(); ++i) {
    const SpanRecord& span = stored_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%" PRIu32
                 ",\"parent\":%" PRId32
                 ",\"start_ns\":%.1f,\"end_ns\":%.1f,\"self_ns\":%.1f}\n",
                 i, names_[span.name].c_str(), span.op, span.parent,
                 ns(span.start - origin), ns(span.end - origin),
                 ns(span.end - span.start - child[i]));
  }
  return std::fclose(file) == 0;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

}  // namespace snic::e2e
