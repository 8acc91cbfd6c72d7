// Host-time spans and shared measurement helpers for the end-to-end
// benchmark.
//
// A traced run wraps every call the driver makes into a layer's public
// functions in a Span: a name ("layer.function"), a start and end in host
// nanoseconds, the enclosing span, and the id of the operation (mix, burst,
// lifecycle or scenario) it belongs to. Spans stay in memory; the first
// `kMaxStoredSpans` are kept verbatim for the spans file written at the end
// of the run, and every span folds into per-name aggregates as it closes.
// Self time is a span's duration minus the durations of its direct children.
//
// Span clocks read the time-stamp counter (about half the cost of
// steady_clock on the reference machine), converted to nanoseconds with a
// rate calibrated against steady_clock once per process. Untraced runs pass
// a null Tracer*, so every SpanScope is one branch.

#ifndef SNIC_E2E_BENCH_SPANS_H_
#define SNIC_E2E_BENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif
#include <string>
#include <string_view>
#include <vector>

namespace snic::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t NowTicks() {
#if defined(__x86_64__)
  return static_cast<int64_t>(__rdtsc());
#else
  return NowNs();
#endif
}

// Measures nanoseconds per NowTicks() tick; call once before any span.
void CalibrateTicks();

struct SpanRecord {
  int64_t start = 0;  // ticks
  int64_t end = 0;
  int32_t parent = -1;  // index into the stored spans, -1 for a root
  uint32_t op = 0;      // operation id; 0 outside any operation
  uint16_t name = 0;
};

struct SpanTotals {
  uint64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

class Tracer {
 public:
  static constexpr size_t kMaxStoredSpans = size_t{1} << 16;

  // Interns `name`; the layer is the part before the first '.'.
  uint16_t Intern(std::string_view name);

  void Begin(uint16_t name);
  void End();

  // Operation ids stamp every span opened until the next SetOp.
  void SetOp(uint32_t op) { op_ = op; }

  const std::vector<std::string>& names() const { return names_; }
  SpanTotals Totals(size_t name) const;
  const std::vector<SpanRecord>& stored() const { return stored_; }
  uint64_t span_count() const { return span_count_; }

  // Sums over every span name whose layer is `layer`.
  SpanTotals LayerTotals(std::string_view layer) const;
  SpanTotals NameTotals(std::string_view name) const;

  // Writes the stored spans as JSON lines (one span per line) with self
  // times recomputed from the stored parent links.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Open {
    int64_t start;
    int64_t child;
    int32_t stored_index;
    uint16_t name;
  };
  struct TickTotals {
    uint64_t calls = 0;
    int64_t total = 0;
    int64_t self = 0;
  };

  std::vector<std::string> names_;
  std::vector<TickTotals> totals_;
  std::vector<Open> stack_;
  std::vector<SpanRecord> stored_;
  uint64_t span_count_ = 0;
  uint32_t op_ = 0;
};

// Opens a span on construction and closes it on destruction; a no-op when
// `tracer` is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, uint16_t name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name);
    }
  }
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

// Linear-interpolated percentile (q in [0,1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

}  // namespace snic::e2e

#endif  // SNIC_E2E_BENCH_SPANS_H_
