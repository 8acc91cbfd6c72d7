// Scenario-matrix tests (docs/ROBUSTNESS.md, "The scenario matrix"):
// decode-or-reject parsing semantics, canonical-form round-trip, the
// baseline-twin transform, generator determinism, runner/verdict
// determinism for representative specs from each generated family, and the
// soak specs under bench/scenarios/soak/.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/scenario/generator.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec.h"
#include "tests/scenario_spec_corpus.h"

namespace snic::scenario {
namespace {

constexpr uint64_t kSeed = 0x5ce9a21ull;

// A minimal valid spec to mutate from.
std::string MinimalJson() {
  return R"({
    "name": "t",
    "steps": 10,
    "tenants": [
      { "name": "a", "port": 1, "role": "workload" },
      { "name": "b", "port": 2, "role": "bystander" }
    ]
  })";
}

ScenarioSpec LoadSpecFile(const std::string& path) {
  const auto spec = ParseScenarioSpec(corpus::ReadText(path));
  EXPECT_TRUE(spec.ok()) << path << ": " << spec.status().message();
  return spec.ok() ? spec.value() : ScenarioSpec{};
}

ScenarioSpec LoadSoakSpec(const std::string& file) {
  return LoadSpecFile(std::string(SNIC_SOAK_SPECS_DIR) + "/" + file);
}

const ScenarioSpec& FindSpec(const std::vector<ScenarioSpec>& specs,
                             const std::string& prefix) {
  for (const ScenarioSpec& spec : specs) {
    if (spec.name.rfind(prefix, 0) == 0) {
      return spec;
    }
  }
  ADD_FAILURE() << "no generated spec named " << prefix << "*";
  static ScenarioSpec empty;
  return empty;
}

TEST(ScenarioSpecTest, MinimalSpecParses) {
  const auto spec = ParseScenarioSpec(MinimalJson());
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_EQ(spec.value().name, "t");
  EXPECT_EQ(spec.value().steps, 10u);
  ASSERT_EQ(spec.value().tenants.size(), 2u);
  EXPECT_EQ(spec.value().tenants[1].role, TenantRole::kBystander);
}

TEST(ScenarioSpecTest, RejectsPreciselyNotLeniently) {
  for (const corpus::RejectCase& c : corpus::RejectCases()) {
    const auto spec = ParseScenarioSpec(c.json);
    ASSERT_FALSE(spec.ok()) << c.json;
    EXPECT_NE(spec.status().message().find(c.error_substring),
              std::string::npos)
        << "error for " << c.json << " was: " << spec.status().message();
  }
}

// Every integer key accepts the largest value docs/ROBUSTNESS.md gives it
// and rejects the next one, so a range in the codec's tables cannot drift
// from the schema unnoticed. (raw_id's bound, 2^63 - 1, is not exact in a
// JSON double, and bus_domain is bounded by bus_domains first.)
TEST(ScenarioSpecTest, IntegerRangesMatchTheSchema) {
  struct Range {
    std::string json;  // "$" stands for the value
    uint64_t max;
  };
  const std::string tenant = R"({"name": "a", "port": 1})";
  const std::string head = R"({"name": "t", "tenants": [)" + tenant + "]";
  const uint64_t k2To30 = uint64_t{1} << 30;
  std::vector<Range> ranges = {
      {R"({"name": "t", "steps": $, "tenants": [)" + tenant + "]}", 10000000},
      {R"({"name": "t", "cycles_per_step": $, "tenants": [)" + tenant + "]}",
       1000000},
      {R"({"name": "t", "bus_domains": $, "tenants": [)" + tenant + "]}", 64},
      {R"({"name": "t", "tenants": [{"name": "a", "port": $}]})", 65535},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1,
           "zip_clusters": $}]})", 8},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1,
           "frames_per_step": $}]})", 1024},
      {head + R"(, "faults": [{"site": "supervisor.reattest",
           "on_attempt": $}]})", uint64_t{1} << 20},
      {head + R"(, "overload": {"target": "a", "ladder_pct": [$]}})", 100000},
      {R"({"name": "t", "tenants": [)" + tenant +
           R"(, {"name": "x", "port": 2, "role": "attacker", "vf": {}}],
           "attack": {"target": "x", "flood_rings": $}})",
       4096},
      {head + R"(, "overload": {"target": "a"},
           "verdicts": {"goodput_floor_pct": $}})", 1000},
      {head + R"(, "overload": {"target": "a", "ladder_pct": [25]},
           "verdicts": {"goodput_non_collapsing_pct": $}})", 100},
      {R"({"name": "t", "tenants": [)" + tenant +
           R"(, {"name": "b", "port": 2, "role": "bystander", "vf": {}}],
           "verdicts": {"vf_wait_bound_steps": $}})",
       k2To30},
      {head + R"(, "verdicts": {"recovery_deadline_steps": $}})", k2To30},
      {head + R"(, "supervisor": {"backoff_jitter_pct": $}})", 100},
  };
  for (const char* key : {"watchdog_timeout_steps", "backoff_base_steps",
                          "backoff_max_steps", "quarantine_after",
                          "stable_steps", "max_concurrent_restarts"}) {
    ranges.push_back(
        {head + R"(, "supervisor": {")" + key + R"(": $}})", 1000000});
  }
  for (const char* key : {"ring_slots", "cq_slots", "posted_bytes_limit",
                          "abuse_threshold"}) {
    ranges.push_back({R"({"name": "t", "tenants": [{"name": "a", "port": 1,
                          "vf": {")" + std::string(key) + R"(": $}}]})",
                      k2To30});
  }
  for (const char* key :
       {"rx_queue_capacity_frames", "tx_queue_capacity_frames",
        "admission_burst_frames", "admission_frames_per_refill",
        "admission_refill_cycles", "deadline_cycles"}) {
    ranges.push_back({R"({"name": "t", "tenants": [{"name": "a", "port": 1,
                          "policy": {")" + std::string(key) + R"(": $}}]})",
                      k2To30});
  }
  for (const char* key : {"skip", "count", "period", "stall_cycles"}) {
    ranges.push_back({head + R"(, "faults": [{"site": "vpp.rx.drop", ")" +
                          key + R"(": $}]})",
                      k2To30});
  }
  for (const char* key : {"load_pct", "baseline_pct", "service_per_step"}) {
    ranges.push_back(
        {head + R"(, "overload": {"target": "a", ")" + key + R"(": $}})",
         100000});
  }
  const auto with = [](std::string json, uint64_t value) {
    json.replace(json.find('$'), 1, std::to_string(value));
    return json;
  };
  for (const Range& r : ranges) {
    const auto at_max = ParseScenarioSpec(with(r.json, r.max));
    EXPECT_TRUE(at_max.ok()) << r.json << ": " << at_max.status().message();
    const auto above = ParseScenarioSpec(with(r.json, r.max + 1));
    ASSERT_FALSE(above.ok()) << r.json;
    EXPECT_NE(above.status().message().find("value out of range"),
              std::string::npos)
        << above.status().message();
  }
}

// A key given twice is ambiguous: it rejects in every object, wherever the
// second copy sits and whatever it holds.
TEST(ScenarioSpecTest, RejectsRepeatedKeys) {
  const struct {
    const char* json;
    const char* error;
  } cases[] = {
      {R"({"name": "t", "name": "u", "tenants": [{"name": "a", "port": 1}]})",
       "scenario spec: top level: repeated key \"name\""},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
           "supervisor": {"stable_steps": 5, "stable_steps": 6}})",
       "scenario spec: supervisor: repeated key \"stable_steps\""},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1, "vf":
           {"cq_slots": 4, "ring_slots": 4, "cq_slots": "x"}}]})",
       "scenario spec: tenants[0].vf: repeated key \"cq_slots\""},
  };
  for (const auto& c : cases) {
    const auto spec = ParseScenarioSpec(c.json);
    ASSERT_FALSE(spec.ok()) << c.json;
    EXPECT_EQ(spec.status().message(), c.error);
  }
}

// A fault rule's probability survives the canonical form bit for bit: it
// prints in the shortest form that parses back to the same double.
TEST(ScenarioSpecTest, ProbabilityRoundTripsExactly) {
  auto base = ParseScenarioSpec(MinimalJson());
  ASSERT_TRUE(base.ok()) << base.status().message();
  for (const double p : {4e-7, 0.1, 1.0 / 3.0}) {
    ScenarioSpec spec = base.value();
    FaultRuleSpec rule;
    rule.site = std::string(fault::sites::kVppRxDrop);
    rule.nf = "a";
    rule.probability = p;
    spec.faults.push_back(rule);
    const auto reparsed = ParseScenarioSpec(SerializeScenarioSpec(spec));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
    ASSERT_EQ(reparsed.value().faults.size(), 1u);
    EXPECT_EQ(std::bit_cast<uint64_t>(reparsed.value().faults[0].probability),
              std::bit_cast<uint64_t>(p))
        << p;
    EXPECT_TRUE(reparsed.value() == spec) << p;
  }
}

// The decoder accepts exactly fault::sites::kAll; the lint registry must
// list the same set, so a site registered for lint but unknown to the
// decoder (or the reverse) fails here.
TEST(ScenarioSpecTest, KnownFaultSitesMatchesRegistryShape) {
  std::set<std::string> registry;
  std::istringstream in(corpus::ReadText(SNIC_LINT_FAULT_SITES));
  for (std::string line; std::getline(in, line);) {
    line = line.substr(0, line.find('#'));
    line.erase(line.find_last_not_of(" \t\r") + 1);
    if (!line.empty()) {
      registry.insert(line);
    }
  }
  const std::set<std::string> decoder(fault::sites::kAll.begin(),
                                      fault::sites::kAll.end());
  EXPECT_EQ(decoder.size(), fault::sites::kAll.size()) << "duplicate site";
  EXPECT_EQ(decoder, registry);
}

TEST(ScenarioSpecTest, BaselineTwinStripsInjectionButKeepsConstellation) {
  const auto specs = GenerateScenarios(kSeed);
  const ScenarioSpec& subject = FindSpec(specs, "f/attack-overload");
  ASSERT_TRUE(subject.has_overload);
  ASSERT_TRUE(subject.has_attack);
  ASSERT_FALSE(subject.faults.empty());

  const ScenarioSpec twin = BaselineTwin(subject);
  EXPECT_TRUE(twin.faults.empty());
  EXPECT_EQ(twin.attack.flood_rings, 0u);
  EXPECT_FALSE(twin.attack.squat);
  EXPECT_EQ(twin.overload.load_pct, subject.overload.baseline_pct);
  // The constellation itself is untouched.
  ASSERT_EQ(twin.tenants.size(), subject.tenants.size());
  for (size_t i = 0; i < twin.tenants.size(); ++i) {
    EXPECT_EQ(twin.tenants[i].name, subject.tenants[i].name);
    EXPECT_EQ(twin.tenants[i].port, subject.tenants[i].port);
    EXPECT_EQ(twin.tenants[i].role, subject.tenants[i].role);
  }
}

TEST(ScenarioGeneratorTest, EveryGeneratedSpecSurvivesRoundTrip) {
  for (const ScenarioSpec& spec : GenerateScenarios(kSeed)) {
    const std::string canonical = SerializeScenarioSpec(spec);
    const auto reparsed = ParseScenarioSpec(canonical);
    ASSERT_TRUE(reparsed.ok()) << spec.name << ": "
                               << reparsed.status().message();
    EXPECT_TRUE(reparsed.value() == spec) << spec.name;
    EXPECT_EQ(SerializeScenarioSpec(reparsed.value()), canonical)
        << spec.name;
  }
}

TEST(ScenarioGeneratorTest, ProducesTheMatrixDeterministically) {
  const auto first = GenerateScenarios(kSeed);
  const auto second = GenerateScenarios(kSeed);
  ASSERT_GE(first.size(), 200u);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(SerializeScenarioSpec(first[i]),
              SerializeScenarioSpec(second[i]))
        << first[i].name;
  }
  // Names are unique — a duplicate would make verdict lines ambiguous.
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : first) {
    names.push_back(spec.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(ScenarioRunnerTest, SameSeedSameReports) {
  const auto specs = GenerateScenarios(kSeed);
  const ScenarioSpec& spec = FindSpec(specs, "a/vpp.rx.drop");
  const RunResult a = RunConstellation(spec, 42);
  const RunResult b = RunConstellation(spec, 42);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].report, b.tenants[i].report) << spec.name;
  }
  // A different seed must actually change the run.
  const RunResult c = RunConstellation(spec, 43);
  bool any_diff = false;
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    any_diff |= a.tenants[i].report != c.tenants[i].report;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioRunnerTest, LongTenantNameKeepsTheWholeReport) {
  // Every report line starts with the tenant name, and names have no length
  // limit. A long name must not truncate the report: bystander_identical
  // would then compare the name alone.
  ScenarioSpec spec =
      LoadSpecFile(std::string(SNIC_SCENARIOS_DIR) + "/chaos_classic.json");
  size_t b = 0;
  while (b < spec.tenants.size() &&
         spec.tenants[b].role != TenantRole::kBystander) {
    ++b;
  }
  ASSERT_LT(b, spec.tenants.size());
  const std::string short_name = spec.tenants[b].name;
  const std::string short_report =
      RunConstellation(spec, kSeed).tenants[b].report;
  const std::string long_name = short_name + std::string(600, 'x');
  spec.tenants[b].name = long_name;
  const std::string long_report =
      RunConstellation(spec, kSeed).tenants[b].report;

  std::string expected = short_report;
  for (size_t at = expected.find(short_name); at != std::string::npos;
       at = expected.find(short_name, at + long_name.size())) {
    expected.replace(at, short_name.size(), long_name);
  }
  EXPECT_EQ(long_report, expected);
  EXPECT_NE(long_report.find(".ring: "), std::string::npos);
}

TEST(ScenarioRunnerTest, VerdictsPassAcrossFamilies) {
  const auto specs = GenerateScenarios(kSeed);
  // One representative per family: single-site, overload ladder, vNIC
  // attack, then correlated burst, crash-during-recovery and compound, whose
  // must_recover and containment predicates need the injected faults that
  // -DSNIC_FAULTS_DISABLED compiles out.
  std::vector<std::string> prefixes = {"a/", "d/", "e/"};
#ifndef SNIC_FAULTS_DISABLED
  prefixes.insert(prefixes.end(), {"b/", "c/", "f/"});
#endif
  for (const std::string& prefix : prefixes) {
    const ScenarioSpec& spec = FindSpec(specs, prefix);
    const ScenarioVerdict verdict = EvaluateScenario(spec, kSeed);
    EXPECT_TRUE(verdict.pass) << spec.name << ": " << verdict.detail;
    EXPECT_FALSE(verdict.detail.empty()) << spec.name;
  }
}

TEST(ScenarioRunnerTest, CompoundScenarioContainsWithBystanderIdentity) {
  // The acceptance-criteria shape: fault-during-recovery + overload, the
  // victim quarantined, the bystander provably untouched.
  const auto specs = GenerateScenarios(kSeed);
  const ScenarioSpec& spec = FindSpec(specs, "f/fault-during-recovery");
  const ScenarioVerdict verdict = EvaluateScenario(spec, kSeed);
  EXPECT_NE(verdict.detail.find("bystander_identical=ok"), std::string::npos)
      << verdict.detail;
#ifndef SNIC_FAULTS_DISABLED  // the victim only crashes when faults fire
  EXPECT_TRUE(verdict.pass) << verdict.detail;
  EXPECT_NE(verdict.detail.find("containment:victim-a=ok"),
            std::string::npos)
      << verdict.detail;
#endif
}

TEST(ScenarioRunnerTest, VerdictFailuresNameTheBrokenPredicate) {
  // Flip a passing scenario into a failing one by breaking one predicate's
  // input. The verdict must fail loudly and say which predicate, and where.
  struct Case {
    ScenarioSpec spec;
    std::function<void(ScenarioSpec&)> mutate;
    const char* expected;
  };
  const ScenarioSpec ladder = LoadSoakSpec("overload_ladder.json");
  const ScenarioSpec hostile = LoadSoakSpec("hostile_full.json");
  const Case cases[] = {
      // Containment of a tenant that never crashes.
      {FindSpec(GenerateScenarios(kSeed), "a/vpp.rx.drop"),
       [](ScenarioSpec& s) { s.verdicts.containment.push_back("bystander-b"); },
       "containment:bystander-b=FAIL"},
      // A per-point predicate names the first ladder point it fails at.
      {ladder, [](ScenarioSpec& s) { s.verdicts.goodput_floor_pct = 1000; },
       "goodput_floor=FAIL(load=25:"},
      // 100% load already backs the chain up: the lowest point scales out.
      {ladder,
       [](ScenarioSpec& s) {
         s.overload.ladder_pct = {100, 200, 300, 400};
       },
       "pressure_scale_out=FAIL(low=3,top=3)"},
      // The victim's descriptors wait 5 steps; a 1-step bound breaks.
      {hostile, [](ScenarioSpec& s) { s.verdicts.vf_wait_bound_steps = 1; },
       "vf_wait_bound=FAIL(victim-v=500/100)"},
      // A silent attacker never reaches the wire in the twin, so its
      // detection proves nothing.
      {hostile, [](ScenarioSpec& s) { s.tenants[1].frames_per_step = 0; },
       "detect_abuse:flood=FAIL(baseline:flags=0,crashes=0,wire=0)"},
#ifndef SNIC_FAULTS_DISABLED  // these two are driven by injected faults
      // Drop everything the target receives after 2000 frames: the higher
      // points hit that sooner and their goodput collapses.
      {ladder,
       [](ScenarioSpec& s) {
         FaultRuleSpec drop;
         drop.site = "vpp.rx.drop";
         drop.nf = "overloaded-o";
         drop.skip = 2000;
         drop.count = fault::FaultRule::kForever;
         s.faults.push_back(drop);
       },
       "goodput_non_collapsing=FAIL(load=100:"},
      // Without the failed half-open probe the breaker never reopens.
      {ladder,
       [](ScenarioSpec& s) {
         s.faults.erase(std::remove_if(s.faults.begin(), s.faults.end(),
                                       [](const FaultRuleSpec& r) {
                                         return r.site ==
                                                "overload.breaker.probe";
                                       }),
                        s.faults.end());
       },
       "breaker_cycle=FAIL(opens=1,reopens=0,closes=1)"},
#endif
  };
  for (const Case& c : cases) {
    ScenarioSpec spec = c.spec;
    c.mutate(spec);
    const ScenarioVerdict verdict = EvaluateScenario(spec, kSeed);
    EXPECT_FALSE(verdict.pass) << verdict.detail;
    EXPECT_NE(verdict.detail.find(c.expected), std::string::npos)
        << "expected " << c.expected << " in " << verdict.detail;
  }
}

// The soak specs' breaker cycle and containment are driven by their fault
// schedules, which compile out under -DSNIC_FAULTS_DISABLED.
#ifndef SNIC_FAULTS_DISABLED
TEST(ScenarioSoakSpecsTest, EveryCommittedSoakSpecPasses) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SNIC_SOAK_SPECS_DIR)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 2u);
  for (const std::string& file : files) {
    const ScenarioSpec spec = LoadSoakSpec(file);
    const ScenarioVerdict verdict = EvaluateScenario(spec, kSeed);
    EXPECT_TRUE(verdict.pass) << file << ": " << verdict.detail;
  }
}
#endif  // SNIC_FAULTS_DISABLED

}  // namespace
}  // namespace snic::scenario
