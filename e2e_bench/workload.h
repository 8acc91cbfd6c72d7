// The four workloads of the end-to-end benchmark and what each reports.
//
// Every workload follows the same shape: build its inputs from the seed
// (timed as set-up, repeated kSetupReps times), run closed-loop operations
// until the measuring time is spent, then check its outputs against an
// oracle outside the timed region. In a traced run the operations alternate
// between traced and untraced, so one run yields both the per-layer spans
// and the tracing overhead.

#ifndef SNIC_E2E_BENCH_WORKLOAD_H_
#define SNIC_E2E_BENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "e2e_bench/spans.h"

namespace snic::e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Small inputs and a short run, for the benchmark's own tests.
  bool tiny = false;
  // Flips one expected oracle value so the tests can prove that a mismatch
  // is counted as a failed operation.
  bool corrupt_oracle = false;
  // Where a traced run writes its spans file.
  std::string out_dir = ".";
  // The curated scenario specs (scenario_curated).
  std::string specs_dir = "bench/scenarios";
};

// One reported number: a named metric on a report line, or a metric of
// the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};


// Throughput over chunks of `chunk_work` units of work: the median of the
// per-chunk rates moves less than one overall rate when the host is slowed
// for a few seconds of the run.
class ChunkedRate {
 public:
  explicit ChunkedRate(double chunk_work) : chunk_work_(chunk_work) {}

  void Add(double work, int64_t ns) {
    work_ += work;
    ns_ += ns;
    if (work_ >= chunk_work_) {
      rates_.push_back(Rate());
      work_ = 0.0;
      ns_ = 0;
    }
  }
  // The median chunk rate; a run too short for one chunk reports its rate.
  double Median() const {
    return rates_.empty() ? Rate() : snic::e2e::Median(rates_);
  }

 private:
  double Rate() const { return work_ / (static_cast<double>(ns_) * 1e-9); }

  double chunk_work_;
  double work_ = 0.0;
  int64_t ns_ = 0;
  std::vector<double> rates_;
};

struct WorkloadReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;

  // The workload's headline throughput (sim events, frames, lifecycles or
  // scenarios per second): the median chunk rate of untraced operations.
  double throughput_per_s = 0.0;
  // Host time per operation, untraced operations only.
  std::vector<double> op_ms;
  // The tail percentile this workload reports (0.90, 0.95 or 0.99).
  double tail_quantile = 0.9;

  // The workload's named metrics (printed as report lines, see README.md).
  std::vector<Metric> metrics;

  // Traced runs: spans of the traced operations and of each set-up, the
  // throughput of traced operations (same chunking), and the workload's
  // layer metrics.
  Tracer ops;
  Tracer setup;
  double traced_throughput_per_s = 0.0;
  uint64_t traced_ops = 0;
  std::vector<Metric> layer_metrics;
};

// Runs `setup` `reps` times (each result replaces the previous one before
// the next starts), appends each duration to report.setup_s, and returns
// the last result. Cheap set-ups take more repetitions, so the median of
// `setup_s` holds still.
inline constexpr int kSetupReps = 3;
template <typename SetupFn>
auto TimedSetups(WorkloadReport& report, int reps, SetupFn setup) {
  decltype(setup()) kept{};
  for (int rep = 0; rep < reps; ++rep) {
    kept = {};
    const int64_t start = NowNs();
    kept = setup();
    report.setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  return kept;
}

// The device root of trust (vendor key and boot seed) is not a workload
// input: every run boots from the same key seed, so the RSA key search in
// the boot costs the same whatever the workload seed.
inline constexpr uint64_t kRootOfTrustSeed = 0x5eed0f7a11ULL;

WorkloadReport RunReplayColocation(const Options& options);
WorkloadReport RunDatapathMix(const Options& options);
WorkloadReport RunTenantChurn(const Options& options);
WorkloadReport RunScenarioCurated(const Options& options);

// True when the measuring loop should stop: `elapsed_ns` of operation time
// spent and at least `min_ops` operations done.
inline bool Done(int64_t elapsed_ns, double seconds, uint64_t ops,
                 uint64_t min_ops) {
  return ops >= min_ops &&
         static_cast<double>(elapsed_ns) >= seconds * 1e9;
}

}  // namespace snic::e2e

#endif  // SNIC_E2E_BENCH_WORKLOAD_H_
