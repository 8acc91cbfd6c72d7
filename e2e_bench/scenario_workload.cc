// scenario_curated: scenario::EvaluateScenario (subject run plus baseline
// twin) over the 18 curated specs, serially in file-name order, in whole
// passes until the measuring time is spent. Spec i runs with seed
// DeriveTaskSeed(workload seed, i) in every pass.
//
// Set-up reads and parses the specs. A traced run also boots one device
// with the runner's 512-bit keys (what every RunConstellation does twice),
// outside set-up, and reports its time as crypto.boot_ms.
//
// Oracle: every verdict is PASS, and each spec's verdict line is identical
// across passes. A traced run alternates untraced passes (EvaluateScenario)
// with traced passes that call RunConstellation on the spec and on its
// BaselineTwin separately, so the subject and twin runs are timed apart;
// the traced runs must reproduce their first pass's tenant reports.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "e2e_bench/workload.h"
#include "src/common/rng.h"
#include "src/core/snic_device.h"
#include "src/crypto/keys.h"
#include "src/runtime/sweep.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec.h"

namespace snic::e2e {
namespace {

struct LoadedSpecs {
  std::vector<std::string> names;
  std::vector<scenario::ScenarioSpec> specs;
};

LoadedSpecs Setup(const Options& options, Tracer& setup_spans) {
  LoadedSpecs loaded;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.specs_dir)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> texts;
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream text;
    text << in.rdbuf();
    texts.push_back(text.str());
    loaded.names.push_back(file.stem().string());
  }
  SpanScope span(&setup_spans, setup_spans.Intern("scenario.parse"));
  for (const std::string& text : texts) {
    auto spec = scenario::ParseScenarioSpec(text);
    SNIC_CHECK(spec.ok());
    loaded.specs.push_back(std::move(spec).value());
  }
  return loaded;
}

// Host time of one boot at the runner's key size: VendorAuthority plus
// SnicDevice, as RunConstellation builds them.
double BootMs() {
  const int64_t start = NowNs();
  Rng rng(kRootOfTrustSeed);
  crypto::VendorAuthority vendor(512, rng);
  core::SnicConfig config;
  config.num_cores = 8;
  config.dram_bytes = 256ull << 20;
  config.rsa_modulus_bits = 512;
  core::SnicDevice device(config, vendor);
  return static_cast<double>(NowNs() - start) * 1e-6;
}

// Concatenated tenant reports: the subject run's observable outcome.
std::string Reports(const scenario::RunResult& result) {
  std::string all;
  for (const scenario::TenantOutcome& tenant : result.tenants) {
    all += tenant.report;
  }
  return all;
}

}  // namespace

WorkloadReport RunScenarioCurated(const Options& options) {
  WorkloadReport report;
  // Parsing is cheap, so set-up repeats more often to steady its median.
  const LoadedSpecs loaded = TimedSetups(
      report, 5 * kSetupReps, [&] { return Setup(options, report.setup); });
  const size_t num_specs = options.tiny ? 2 : loaded.specs.size();
  SNIC_CHECK(num_specs > 0 && num_specs <= loaded.specs.size());

  Tracer& spans = report.ops;
  const uint16_t kOp = spans.Intern("op.scenario");
  const uint16_t kSubject = spans.Intern("scenario.subject");
  const uint16_t kTwin = spans.Intern("scenario.twin");

  // Each spec's verdict line, fixed by its first evaluation.
  std::vector<std::string> verdicts(num_specs);
  if (options.corrupt_oracle) {
    verdicts[0] = "corrupted expectation";
  }
  std::vector<std::string> traced_reports(num_specs);
  int64_t measured_ns = 0;
  uint64_t traced_ops = 0, traced_passes = 0;
  // One chunk per pass, so every chunk evaluates the same specs.
  ChunkedRate untraced_rate(static_cast<double>(num_specs));
  ChunkedRate traced_rate(static_cast<double>(num_specs));
  uint64_t restarts = 0, reattestations = 0, crashes = 0, injected = 0;
  uint32_t op_id = 0;
  // Whole passes; a traced run needs one untraced and one traced pass.
  // Three untraced passes leave more than ten samples above the p75 tail.
  const uint64_t min_passes = options.trace ? 2 : (options.tiny ? 1 : 3);
  for (uint64_t pass = 0;
       !Done(measured_ns, options.seconds, pass, min_passes); ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    Tracer* t = traced ? &spans : nullptr;
    traced_passes += traced ? 1 : 0;
    for (size_t i = 0; i < num_specs; ++i) {
      const scenario::ScenarioSpec& spec = loaded.specs[i];
      const uint64_t seed = runtime::DeriveTaskSeed(options.seed, i);
      spans.SetOp(++op_id);
      bool ok = true;
      if (!traced) {
        const int64_t start = NowNs();
        const scenario::ScenarioVerdict verdict =
            scenario::EvaluateScenario(spec, seed);
        const int64_t elapsed = NowNs() - start;
        measured_ns += elapsed;
        untraced_rate.Add(1.0, elapsed);
        report.op_ms.push_back(static_cast<double>(elapsed) * 1e-6);

        // Oracle, outside the timed region.
        const std::string line = loaded.names[i] + ": " +
                                 (verdict.pass ? "PASS " : "FAIL ") +
                                 verdict.detail;
        if (verdicts[i].empty()) {
          verdicts[i] = line;
        }
        ok = verdict.pass && line == verdicts[i];
      } else {
        const bool needs_twin = spec.verdicts.bystander_identical ||
                                spec.verdicts.goodput_floor_pct > 0;
        scenario::RunResult subject;
        const int64_t start = NowNs();
        {
          SpanScope op_span(t, kOp);
          {
            SpanScope span(t, kSubject);
            subject = scenario::RunConstellation(spec, seed);
          }
          if (needs_twin) {
            SpanScope span(t, kTwin);
            (void)scenario::RunConstellation(scenario::BaselineTwin(spec),
                                             seed);
          }
        }
        const int64_t elapsed = NowNs() - start;
        measured_ns += elapsed;
        traced_rate.Add(1.0, elapsed);
        ++traced_ops;
        restarts += subject.supervisor.restarts;
        reattestations += subject.supervisor.reattestations;
        crashes += subject.supervisor.crashes;
        injected += subject.faults_injected;
        const std::string reports = Reports(subject);
        if (traced_reports[i].empty()) {
          traced_reports[i] = reports;
        }
        ok = reports == traced_reports[i];
      }
      ++report.attempted;
      report.failed += ok ? 0 : 1;
    }
  }

  report.tail_quantile = 0.75;
  report.throughput_per_s = untraced_rate.Median();
  report.metrics = {
      {"scenarios_per_s", report.throughput_per_s, "1/s"},
      {"scenario_s_p50", Percentile(report.op_ms, 0.5) * 1e-3, "s"},
  };
  if (options.trace) {
    report.traced_ops = traced_ops;
    report.traced_throughput_per_s = traced_rate.Median();
    const SpanTotals subject = spans.NameTotals("scenario.subject");
    const SpanTotals twin = spans.NameTotals("scenario.twin");
    const double passes = static_cast<double>(traced_passes);
    report.layer_metrics = {
        {"scenario.subject_ms",
         subject.total_ns * 1e-6 / static_cast<double>(subject.calls), "ms"},
        {"scenario.twin_ms",
         twin.total_ns * 1e-6 / static_cast<double>(twin.calls), "ms"},
        {"mgmt.restarts", static_cast<double>(restarts) / passes, "count"},
        {"mgmt.reattestations", static_cast<double>(reattestations) / passes,
         "count"},
        {"mgmt.crashes", static_cast<double>(crashes) / passes, "count"},
        {"fault.injected", static_cast<double>(injected) / passes, "count"},
        {"crypto.boot_ms", Median({BootMs(), BootMs(), BootMs()}), "ms"},
    };
  }
  return report;
}

}  // namespace snic::e2e
