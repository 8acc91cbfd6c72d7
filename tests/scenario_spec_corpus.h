// The scenario-spec codec corpus shared by the spec tests: the
// RejectsPreciselyNotLeniently cases, the fuzz bases and the single-byte
// mutants drawn from them, and the checked-in spec files. The codec golden
// (scenario_spec_codec_test.cc) pins the outcome of every input here, so
// the fuzz and rejection tests and the golden always see the same corpus.
//
// Needs SNIC_SCENARIOS_DIR and SNIC_SOAK_SPECS_DIR (tests/CMakeLists.txt).

#ifndef SNIC_TESTS_SCENARIO_SPEC_CORPUS_H_
#define SNIC_TESTS_SCENARIO_SPEC_CORPUS_H_

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/scenario/generator.h"
#include "src/scenario/spec.h"

namespace snic::scenario::corpus {

// The generator seed every spec test and the scenario matrix use.
inline constexpr uint64_t kGeneratorSeed = 0x5ce9a21ull;

// A spec the decoder must reject, and a substring its error must contain.
struct RejectCase {
  const char* json;
  const char* error_substring;
};

inline const std::vector<RejectCase>& RejectCases() {
  static const std::vector<RejectCase> cases = {
      {"", "JSON"},
      {"[]", "object"},
      {R"({"steps": 10, "tenants": []})", "name"},
      {R"({"name": "t", "steps": 10})", "tenants"},
      {R"({"name": "t", "steps": 10, "tenants": [], "bogus": 1})", "bogus"},
      {R"({"name": "t", "steps": 0, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}]})",
       "steps"},
      {R"({"name": "t", "steps": 1.5, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}]})",
       "integer"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "pilot"}]})",
       "role"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload"},
            {"name": "a", "port": 2, "role": "workload"}]})",
       "duplicate"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}],
           "faults": [{"site": "no.such.site", "nf": "a"}]})",
       "no.such.site"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}],
           "faults": [{"site": "vpp.rx.drop", "nf": "ghost"}]})",
       "ghost"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}],
           "faults": [{"site": "vpp.rx.drop", "nf": "a", "on_attempt": 1}]})",
       "on_attempt"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "attacker"}]})",
       "vf"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload", "bus_domain": 0}]})",
       "bus_domain"},
      {R"({"name": "t", "steps": 10, "tenants":
           [{"name": "a", "port": 1, "role": "workload"}],
           "verdicts": {"bystander_identical": true}})",
       "bystander"},
      // overload.ladder_pct
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
           "overload": {"target": "a", "load_pct": 50,
                        "ladder_pct": [25, 50]}})",
       "mutually exclusive"},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
           "overload": {"target": "a", "ladder_pct": [50, 50]}})",
       "strictly increasing"},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
           "overload": {"target": "a", "ladder_pct": []}})",
       "1 to 16"},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
           "overload": {"target": "a", "ladder_pct": [25, -1]}})",
       "ladder_pct"},
      // overload.chain_to / overload.elastic_pool
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1},
           {"name": "b", "port": 2, "role": "bystander"}],
           "overload": {"target": "a", "chain_to": "b"}})",
       "workload-role tenant other than the target"},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
           "overload": {"target": "a", "chain_to": "a"}})",
       "other than the target"},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
           "overload": {"target": "a", "elastic_pool": 1}})",
       "overload.elastic_pool"},
      // The soak-derived verdict keys and their prerequisites.
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
           "overload": {"target": "a"},
           "verdicts": {"goodput_non_collapsing_pct": 85}})",
       "goodput_non_collapsing_pct requires overload.ladder_pct"},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
           "overload": {"target": "a", "ladder_pct": [25]},
           "verdicts": {"goodput_non_collapsing_pct": 101}})",
       "out of range"},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
           "overload": {"target": "a", "ladder_pct": [25]},
           "verdicts": {"pressure_scale_out": true}})",
       "pressure_scale_out requires"},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1}],
           "overload": {"target": "a"},
           "verdicts": {"breaker_cycle": true}})",
       "breaker_cycle requires"},
      {R"({"name": "t", "tenants": [{"name": "a", "port": 1},
           {"name": "b", "port": 2, "role": "bystander"}],
           "verdicts": {"vf_wait_bound_steps": 10}})",
       "vf_wait_bound_steps requires"},
  };
  return cases;
}

inline std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// The `.json` files directly in `dir`, sorted.
inline std::vector<std::filesystem::path> SpecFiles(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Every checked-in spec, decoded, keyed "curated/<stem>" or "soak/<stem>".
inline std::vector<std::pair<std::string, ScenarioSpec>> CheckedInSpecs() {
  std::vector<std::pair<std::string, ScenarioSpec>> specs;
  const std::pair<const char*, const char*> dirs[] = {
      {"curated/", SNIC_SCENARIOS_DIR}, {"soak/", SNIC_SOAK_SPECS_DIR}};
  for (const auto& [prefix, dir] : dirs) {
    for (const auto& path : SpecFiles(dir)) {
      const auto spec = ParseScenarioSpec(ReadText(path.string()));
      SNIC_CHECK(spec.ok());
      specs.emplace_back(prefix + path.stem().string(), spec.value());
    }
  }
  return specs;
}

// The canonical form of the first generated spec whose name starts with
// `prefix`.
inline std::string GeneratedSpecJson(const std::string& prefix) {
  for (const auto& spec : GenerateScenarios(kGeneratorSeed)) {
    if (spec.name.rfind(prefix, 0) == 0) {
      return SerializeScenarioSpec(spec);
    }
  }
  SNIC_CHECK(false);
  return {};
}

// The fuzz bases: a compound generated spec (supervisor, faults, overload),
// a hostile one (VF-backed attacker, attack mix), and the soak specs'
// canonical forms, the only specs carrying a load ladder, a credit chain,
// an elastic pool and the soak-derived verdict keys.
inline std::vector<std::string> FuzzBases() {
  std::vector<std::string> bases = {
      GeneratedSpecJson("f/fault-during-recovery-overload"),
      GeneratedSpecJson("e/churn")};
  for (const char* file : {"overload_ladder.json", "hostile_full.json"}) {
    const auto spec = ParseScenarioSpec(
        ReadText(std::string(SNIC_SOAK_SPECS_DIR) + "/" + file));
    SNIC_CHECK(spec.ok());
    bases.push_back(SerializeScenarioSpec(spec.value()));
  }
  return bases;
}

// One single-byte mutant: base index, mutated text.
struct Mutant {
  size_t base;
  std::string text;
};

// 4000 mutants, round-robin over `bases`: one byte XORed with a non-zero
// value, drawn from a fixed seed.
inline std::vector<Mutant> SingleByteMutants(
    const std::vector<std::string>& bases) {
  Rng rng(0x5bec);
  std::vector<Mutant> mutants;
  for (int iter = 0; iter < 4000; ++iter) {
    const size_t base = iter % bases.size();
    std::string text = bases[base];
    const size_t at = rng.NextBounded(text.size());
    text[at] = static_cast<char>(text[at] ^
                                 static_cast<char>(1 + rng.NextBounded(255)));
    mutants.push_back({base, std::move(text)});
  }
  return mutants;
}

}  // namespace snic::scenario::corpus

#endif  // SNIC_TESTS_SCENARIO_SPEC_CORPUS_H_
