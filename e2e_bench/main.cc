// snic_e2e: the end-to-end benchmark driver. Run it through run.py, which
// builds it and passes the source identity:
//
//   python3 e2e_bench/run.py --workload tenant_churn --seed 1 --seconds 10
//       --trace 0
//
// Output: an environment line, one "metric" line per named metric of the
// workload (README.md has the catalogue), and as the last line one JSON
// object with the contract metrics (end-to-end with --trace 0, per-layer
// with --trace 1).

#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "e2e_bench/workload.h"

namespace snic::e2e {
namespace {

// Layers whose self time inside traced operations is reported per
// operation. Crypto runs inside these layers' calls (hashing in NfCreate,
// signing in NfAttest) and counts as theirs; its own figure is the boot.
constexpr const char* kLayers[] = {"sim",  "core", "nf",
                                   "accel", "mgmt", "scenario"};
// Per-layer metrics taken from the workload's named metrics (set-up spans
// or the workload's own layer metrics); 0 where the workload has none.
constexpr const char* kNamedLayerMetrics[] = {"crypto.boot_ms",
                                              "trace.generate_ms"};

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) {
    return "unknown";
  }
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  while (!model.empty() && model.front() == ' ') {
    model.erase(model.begin());
  }
  return model;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Numbers from a debug build, or from one with the observability or fault
// sites compiled out, come from a different program: refuse them.
const char* BuildRefusal() {
#if defined(SNIC_OBS_DISABLED)
  return "built with SNIC_OBS_DISABLED";
#elif defined(SNIC_FAULTS_DISABLED)
  return "built with SNIC_FAULTS_DISABLED";
#else
#ifndef NDEBUG
  return "built without NDEBUG";
#endif
  if (std::string_view(SNIC_E2E_BUILD_TYPE) != "Release") {
    return "not a Release build";
  }
  return nullptr;
#endif
}

const Metric* FindMetric(const std::vector<Metric>& metrics,
                         std::string_view name) {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

void PrintMetricLine(const Metric& m) {
  std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

void AppendJsonMetric(std::string& json, const Metric& m) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", m.name.c_str(), m.value,
                m.unit.c_str());
  json += buffer;
}

int Usage() {
  std::fprintf(stderr,
               "usage: snic_e2e --workload <replay_colocation|datapath_mix|"
               "tenant_churn|scenario_curated> --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt-oracle] [--out-dir DIR] "
               "[--specs-dir DIR] [--source ID]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  std::string source = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--specs-dir" && has_value) {
      options.specs_dir = argv[++i];
    } else if (arg == "--source" && has_value) {
      source = argv[++i];
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--corrupt-oracle") {
      options.corrupt_oracle = true;
    } else {
      return Usage();
    }
  }
  if (!have_workload || options.seconds <= 0.0) {
    return Usage();
  }
  if (const char* refusal = BuildRefusal()) {
    std::fprintf(stderr, "snic_e2e: refusing to report numbers: %s\n",
                 refusal);
    return 3;
  }

  CalibrateTicks();
  WorkloadReport report;
  if (options.workload == "replay_colocation") {
    report = RunReplayColocation(options);
  } else if (options.workload == "datapath_mix") {
    report = RunDatapathMix(options);
  } else if (options.workload == "tenant_churn") {
    report = RunTenantChurn(options);
  } else if (options.workload == "scenario_curated") {
    report = RunScenarioCurated(options);
  } else {
    std::fprintf(stderr, "snic_e2e: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  std::printf("env nproc=%ld cpu=\"%s\" compiler=\"gcc %s\" build=%s "
              "source=%s workload=%s seed=%" PRIu64 " trace=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), __VERSION__,
              SNIC_E2E_BUILD_TYPE, source.c_str(), options.workload.c_str(),
              options.seed, options.trace ? 1 : 0);

  const double setup_s = Median(report.setup_s);
  const double rss = PeakRssMib();
  const double error_ratio = static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted);
  std::vector<Metric> named = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", rss, "MiB"},
      {"error_ratio", error_ratio, "ratio"},
      {"samples", static_cast<double>(report.op_ms.size()), "count"},
  };
  named.insert(named.end(), report.metrics.begin(), report.metrics.end());

  std::vector<Metric> contract;
  if (!options.trace) {
    contract = {
        {"throughput_per_s", report.throughput_per_s, "1/s"},
        {"op_ms_p50", Percentile(report.op_ms, 0.5), "ms"},
        {"op_ms_tail", Percentile(report.op_ms, report.tail_quantile), "ms"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", rss, "MiB"},
    };
  } else {
    named.insert(named.end(), report.layer_metrics.begin(),
                 report.layer_metrics.end());
    // Set-up spans (device boot, trace generation, spec parsing), in ms
    // per set-up.
    const Tracer& setup = report.setup;
    for (size_t i = 0; i < setup.names().size(); ++i) {
      named.push_back({setup.names()[i] + "_ms",
                       setup.Totals(i).total_ns * 1e-6 /
                           static_cast<double>(report.setup_s.size()),
                       "ms"});
    }
    // Operation time is the op.* spans; every other layer's self time
    // inside operations is divided by the traced operations.
    const SpanTotals op = report.ops.LayerTotals("op");
    const double op_ns = op.total_ns;
    const double traced_ops = static_cast<double>(report.traced_ops);
    for (const char* layer : kLayers) {
      contract.push_back({std::string(layer) + ".self_ns_per_op",
                          report.ops.LayerTotals(layer).self_ns / traced_ops,
                          "ns"});
    }
    for (const char* name : kNamedLayerMetrics) {
      const Metric* found = FindMetric(named, name);
      contract.push_back({name, found != nullptr ? found->value : 0.0, "ms"});
    }
    const double overhead_pct =
        100.0 * (report.throughput_per_s / report.traced_throughput_per_s -
                 1.0);
    contract.push_back({"tracing.coverage_pct",
                        100.0 * (1.0 - op.self_ns / op_ns), "%"});
    contract.push_back({"tracing.overhead_pct", overhead_pct, "%"});
    contract.push_back(
        {"tracing.spans_per_op",
         static_cast<double>(report.ops.span_count()) / traced_ops, "count"});
    for (const Metric& m : contract) {
      if (FindMetric(named, m.name) == nullptr) {
        named.push_back(m);
      }
    }
    const std::string path =
        options.out_dir + "/" + options.workload + ".spans.jsonl";
    if (!report.ops.WriteJsonLines(path)) {
      std::fprintf(stderr, "snic_e2e: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans %s (%zu of %" PRIu64 " spans kept)\n", path.c_str(),
                report.ops.stored().size(), report.ops.span_count());
    // Per-span table: calls, inclusive and self time.
    for (size_t i = 0; i < report.ops.names().size(); ++i) {
      const SpanTotals s = report.ops.Totals(i);
      if (s.calls == 0) {
        continue;
      }
      std::printf("span %-34s calls=%-9" PRIu64 " ns_per_call=%-12.1f "
                  "self_pct=%.2f\n",
                  report.ops.names()[i].c_str(), s.calls,
                  s.total_ns / static_cast<double>(s.calls),
                  100.0 * s.self_ns / op_ns);
    }
  }
  for (const Metric& m : named) {
    PrintMetricLine(m);
  }

  std::string metrics_json;
  for (const Metric& m : contract) {
    AppendJsonMetric(metrics_json, m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              report.failed == 0 ? "true" : "false", report.attempted,
              report.failed, metrics_json.c_str());
  return 0;
}

}  // namespace
}  // namespace snic::e2e

int main(int argc, char** argv) { return snic::e2e::Main(argc, argv); }
