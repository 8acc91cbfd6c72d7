// Tenant-report golden for the scenario runner (docs/ROBUSTNESS.md, "The
// scenario matrix"). The matrix goldens pin verdict lines only, so a runner
// change that shifts a subject and its baseline twin the same way would
// still pass them. This test pins the runs themselves: for every curated
// spec, both soak specs and the first generated spec of each family, the
// subject at every ladder point (or at load_pct) and its BaselineTwin each
// reduce to one line in tests/golden/scenario_reports.txt:
//
//   <spec> <run> reports=<fnv> tenants=<fnv> sup=<stats> faults=<n>
//       goodput=<n> qpeak=<frames>/<bytes> breaker=<o>/<r>/<c> scale_ups=<n>
//       abuse=<flood>/<squat>/<desc>/<stale> false_flags=<n>
//       ring=<records>:<fnv>
//
// `reports` digests every tenant report, `tenants` every per-tenant outcome
// scalar, and `ring` the run's whole TraceRing in its binary form (every
// record on every lane, names and lane metadata included) — the bytes that
// `snic_scenarios run --forensics-out` writes. One test per spec, so ctest
// runs the shards in parallel. A mismatch prints the lines the run produced
// under "actual:" so a deliberate change can be re-recorded.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/trace_ring.h"
#include "src/scenario/digest.h"
#include "src/scenario/generator.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec.h"

namespace snic::scenario {
namespace {

// Faults-off and obs-off builds change the reports, so the golden pins the
// default build only.
#if !defined(SNIC_FAULTS_DISABLED) && !defined(SNIC_OBS_DISABLED)

constexpr uint64_t kSeed = 0x5ce9a21ull;

// One golden shard: a spec and the id its lines start with.
struct GoldenSpec {
  std::string id;  // "chaos_classic", "soak/hostile_full", "a/vpp.rx.drop..."
  std::string shard;  // gtest-safe parameter name
  ScenarioSpec spec;
};

void PrintTo(const GoldenSpec& g, std::ostream* os) { *os << g.id; }

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string ShardName(const std::string& prefix, const std::string& stem) {
  std::string out = prefix + "_" + stem;
  for (char& c : out) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (!alnum) {
      c = '_';
    }
  }
  return out;
}

std::vector<GoldenSpec> SpecsInDir(const std::string& dir,
                                   const std::string& id_prefix,
                                   const std::string& shard_prefix) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<GoldenSpec> out;
  for (const auto& path : files) {
    const auto spec = ParseScenarioSpec(ReadText(path.string()));
    if (!spec.ok()) {
      continue;  // GoldenCoversEveryShardSpec counts the files
    }
    const std::string stem = path.stem().string();
    out.push_back(
        {id_prefix + stem, ShardName(shard_prefix, stem), spec.value()});
  }
  return out;
}

std::vector<GoldenSpec> GoldenSpecs() {
  const std::string dir = SNIC_SCENARIOS_DIR;
  std::vector<GoldenSpec> specs = SpecsInDir(dir, "", "curated");
  for (GoldenSpec& s : SpecsInDir(dir + "/soak", "soak/", "soak")) {
    specs.push_back(std::move(s));
  }
  const std::vector<ScenarioSpec> generated = GenerateScenarios(kSeed);
  for (const char family : std::string("abcdef")) {
    const std::string prefix = std::string(1, family) + "/";
    for (const ScenarioSpec& spec : generated) {
      if (spec.name.rfind(prefix, 0) == 0) {
        specs.push_back(
            {spec.name, ShardName("family", std::string(1, family)), spec});
        break;
      }
    }
  }
  return specs;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string RunLine(const std::string& id, const std::string& label,
                    const RunResult& r, const obs::TraceRing& ring) {
  Fnv reports;
  Fnv tenants;
  for (const TenantOutcome& t : r.tenants) {
    reports.Mix(reinterpret_cast<const uint8_t*>(t.report.data()),
                t.report.size());
    tenants.Mix64(static_cast<uint64_t>(t.final_health));
    tenants.Mix64(t.edge_quarantined ? 1 : 0);
    tenants.Mix64(t.restarts);
    tenants.Mix64(t.worst_recovery_steps);
    tenants.Mix64(t.wire_packets);
    tenants.Mix64(t.vf_max_wait_cycles);
  }
  const std::string bytes = ring.SerializeBinary();
  Fnv ring_digest;
  ring_digest.Mix(reinterpret_cast<const uint8_t*>(bytes.data()),
                  bytes.size());
  const mgmt::SupervisorStats& s = r.supervisor;
  const auto u = [](uint64_t v) { return std::to_string(v); };
  return id + " " + label + " reports=" + Hex(reports.h) +
         " tenants=" + Hex(tenants.h) + " sup=" + u(s.crashes) + "/" +
         u(s.watchdog_timeouts) + "/" + u(s.restarts) + "/" +
         u(s.failed_restarts) + "/" + u(s.quarantines) + "/" +
         u(s.accel_downgrades) + "/" + u(s.reattestations) + "/" +
         u(s.restart_deferrals) + " faults=" + u(r.faults_injected) +
         " goodput=" + u(r.target_goodput) + " qpeak=" +
         u(r.queue_peak_frames) + "/" + u(r.queue_peak_bytes) +
         " breaker=" + u(r.breaker_opens) + "/" + u(r.breaker_reopens) + "/" +
         u(r.breaker_closes) + " scale_ups=" + u(r.pressure_scale_ups) +
         " abuse=" + u(r.abuse_reports[0]) + "/" + u(r.abuse_reports[1]) +
         "/" + u(r.abuse_reports[2]) + "/" + u(r.abuse_reports[3]) +
         " false_flags=" + u(r.false_abuse_flags) + " ring=" + u(ring.size()) +
         ":" + Hex(ring_digest.h);
}

// The subject at every ladder point (or at load_pct), then the twin.
std::vector<std::string> ReportLines(const GoldenSpec& g) {
  std::vector<std::string> lines;
  const auto run = [&](const ScenarioSpec& spec, const std::string& label) {
    obs::TraceRing ring;
    const RunResult result = RunConstellation(spec, kSeed, &ring);
    lines.push_back(RunLine(g.id, label, result, ring));
  };
  if (g.spec.overload.ladder_pct.empty()) {
    run(g.spec, "subject");
  }
  for (const uint64_t pct : g.spec.overload.ladder_pct) {
    ScenarioSpec point = g.spec;
    point.overload.load_pct = pct;
    run(point, "subject@" + std::to_string(pct));
  }
  run(BaselineTwin(g.spec), "twin");
  return lines;
}

// Golden lines, in file order, keyed by their leading spec id.
std::vector<std::string> GoldenLines() {
  std::istringstream in(ReadText(std::string(SNIC_GOLDEN_DIR) +
                                 "/scenario_reports.txt"));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

std::string IdOf(const std::string& line) {
  return line.substr(0, line.find(' '));
}

class ScenarioReportGoldenTest : public testing::TestWithParam<GoldenSpec> {};

TEST_P(ScenarioReportGoldenTest, RunsMatchGolden) {
  const GoldenSpec& g = GetParam();
  std::vector<std::string> expected;
  for (const std::string& line : GoldenLines()) {
    if (IdOf(line) == g.id) {
      expected.push_back(line);
    }
  }
  const std::vector<std::string> actual = ReportLines(g);
  EXPECT_EQ(expected, actual);
  if (expected != actual) {
    std::string block;
    for (const std::string& line : actual) {
      block += "actual: " + line + "\n";
    }
    ADD_FAILURE() << g.id << " runs changed:\n" << block;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ScenarioReportGoldenTest, testing::ValuesIn(GoldenSpecs()),
    [](const testing::TestParamInfo<GoldenSpec>& param_info) {
      return param_info.param.shard;
    });

// The golden names exactly the shard set: no stale spec, no missing one, and
// every checked-in spec file parses (a rejected file would drop its shard).
TEST(ScenarioReportGoldenCoverageTest, GoldenCoversEveryShardSpec) {
  std::set<std::string> shard_ids;
  for (const GoldenSpec& g : GoldenSpecs()) {
    shard_ids.insert(g.id);
  }
  std::set<std::string> golden_ids;
  for (const std::string& line : GoldenLines()) {
    golden_ids.insert(IdOf(line));
  }
  EXPECT_EQ(shard_ids, golden_ids);
  size_t files = 0;
  for (const std::string& dir :
       {std::string(SNIC_SCENARIOS_DIR),
        std::string(SNIC_SCENARIOS_DIR) + "/soak"}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      files += entry.path().extension() == ".json" ? 1 : 0;
    }
  }
  EXPECT_EQ(shard_ids.size(), files + 6);  // + one per generated family
}

#endif  // !SNIC_FAULTS_DISABLED && !SNIC_OBS_DISABLED

}  // namespace
}  // namespace snic::scenario
