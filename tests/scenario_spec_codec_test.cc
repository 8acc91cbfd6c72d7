// Scenario-spec codec golden (docs/ROBUSTNESS.md, "Spec schema"). Pins what
// ParseScenarioSpec and SerializeScenarioSpec do on a fixed corpus
// (tests/scenario_spec_corpus.h), so a rewrite of the codec is held to the
// same accept/reject decisions, canonical bytes and error messages. One line
// per item in tests/golden/scenario_spec_codec.txt:
//
//   spec <id> <fnv>          canonical JSON of each checked-in spec
//                            (curated/<stem>, soak/<stem>) and of each
//                            generated spec (<name>)
//   fuzz <base> truncations=<fnv> mutants=<fnv>
//                            outcomes of every proper prefix of fuzz base
//                            <base> and of the single-byte mutants drawn
//                            from it
//   reject <i> <message>     full error of RejectCases()[i]
//
// An outcome is the canonical bytes of an accepted input or the full error
// message of a rejected one. A mismatch prints the lines the codec produced
// under "actual:" so a deliberate change can be re-recorded.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/scenario/digest.h"
#include "src/scenario/generator.h"
#include "src/scenario/spec.h"
#include "tests/scenario_spec_corpus.h"

namespace snic::scenario {
namespace {

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void MixText(Fnv& fnv, std::string_view text) {
  fnv.Mix64(text.size());
  fnv.Mix(reinterpret_cast<const uint8_t*>(text.data()), text.size());
}

std::string CanonicalDigest(const ScenarioSpec& spec) {
  Fnv fnv;
  MixText(fnv, SerializeScenarioSpec(spec));
  return Hex(fnv.h);
}

// Folds one decode outcome into `fnv`: accepted-or-not, then the canonical
// bytes or the error message.
void MixOutcome(Fnv& fnv, std::string_view input) {
  const auto spec = ParseScenarioSpec(input);
  fnv.Mix64(spec.ok() ? 1 : 0);
  MixText(fnv, spec.ok() ? SerializeScenarioSpec(spec.value())
                         : spec.status().message());
}

std::vector<std::string> CodecLines() {
  std::vector<std::string> lines;
  for (const auto& [id, spec] : corpus::CheckedInSpecs()) {
    lines.push_back("spec " + id + " " + CanonicalDigest(spec));
  }
  for (const ScenarioSpec& spec :
       GenerateScenarios(corpus::kGeneratorSeed)) {
    lines.push_back("spec " + spec.name + " " + CanonicalDigest(spec));
  }
  const std::vector<std::string> bases = corpus::FuzzBases();
  std::vector<Fnv> truncations(bases.size());
  std::vector<Fnv> mutants(bases.size());
  for (size_t b = 0; b < bases.size(); ++b) {
    for (size_t len = 0; len < bases[b].size(); ++len) {
      MixOutcome(truncations[b], std::string_view(bases[b]).substr(0, len));
    }
  }
  for (const corpus::Mutant& m : corpus::SingleByteMutants(bases)) {
    MixOutcome(mutants[m.base], m.text);
  }
  for (size_t b = 0; b < bases.size(); ++b) {
    lines.push_back("fuzz " + std::to_string(b) +
                    " truncations=" + Hex(truncations[b].h) +
                    " mutants=" + Hex(mutants[b].h));
  }
  const auto& rejects = corpus::RejectCases();
  for (size_t i = 0; i < rejects.size(); ++i) {
    const auto spec = ParseScenarioSpec(rejects[i].json);
    lines.push_back("reject " + std::to_string(i) + " " +
                    (spec.ok() ? std::string("ACCEPTED")
                               : spec.status().message()));
  }
  return lines;
}

std::vector<std::string> GoldenLines() {
  std::istringstream in(corpus::ReadText(std::string(SNIC_GOLDEN_DIR) +
                                         "/scenario_spec_codec.txt"));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(ScenarioSpecCodecGoldenTest, CorpusMatchesGolden) {
  const std::vector<std::string> actual = CodecLines();
  const std::vector<std::string> golden = GoldenLines();
  EXPECT_TRUE(actual == golden)
      << actual.size() << " lines produced, " << golden.size()
      << " in the golden";
  if (actual != golden) {
    for (const std::string& line : actual) {
      std::printf("actual: %s\n", line.c_str());
    }
  }
}

}  // namespace
}  // namespace snic::scenario
