// Differential tests for the flat Aho-Corasick automaton: every MatchResult
// field of Scan and ScanFirstMatch, plus the graph sizes, must equal those
// of ReferenceAhoCorasick (the original pointer-per-node trie) on random
// small rulesets over a tiny alphabet, on the full 33,471-pattern DPI
// ruleset over CAIDA-like payloads and planted-pattern buffers, and on the
// empty edge cases. The goldens pin the full ruleset's graph sizes, from
// which Table 6's DPI heap, Table 7's graph and the Fig. 5 DPI arena
// addresses derive.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/accel/aho_corasick.h"
#include "src/accel/aho_corasick_reference.h"
#include "src/common/rng.h"
#include "src/net/parser.h"
#include "src/trace/trace_gen.h"

namespace snic::accel {
namespace {

std::span<const uint8_t> Bytes(const std::vector<uint8_t>& v) {
  return {v.data(), v.size()};
}

::testing::AssertionResult SameResult(const char* what, const MatchResult& got,
                                      const MatchResult& want) {
  if (got.match_count == want.match_count &&
      got.bytes_scanned == want.bytes_scanned &&
      got.first_pattern == want.first_pattern) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << what << ": flat {" << got.match_count << ", " << got.bytes_scanned
         << ", " << got.first_pattern << "} vs reference {"
         << want.match_count << ", " << want.bytes_scanned << ", "
         << want.first_pattern << "}";
}

// Both scans of `data` agree between the engines.
::testing::AssertionResult SameScans(const AhoCorasick& flat,
                                     const ReferenceAhoCorasick& ref,
                                     std::span<const uint8_t> data) {
  auto scan = SameResult("Scan", flat.Scan(data), ref.Scan(data));
  if (!scan) {
    return scan;
  }
  return SameResult("ScanFirstMatch", flat.ScanFirstMatch(data),
                    ref.ScanFirstMatch(data));
}

void ExpectSameGraph(const AhoCorasick& flat, const ReferenceAhoCorasick& ref) {
  EXPECT_EQ(flat.pattern_count(), ref.pattern_count());
  EXPECT_EQ(flat.node_count(), ref.node_count());
  EXPECT_EQ(flat.GraphBytes(), ref.GraphBytes());
  EXPECT_EQ(flat.HardwareGraphBytes(), ref.HardwareGraphBytes());
}

std::vector<uint8_t> RandomText(Rng& rng, const std::vector<uint8_t>& alphabet,
                                size_t len) {
  std::vector<uint8_t> text(len);
  for (auto& b : text) {
    b = alphabet[rng.NextBounded(alphabet.size())];
  }
  return text;
}

// Overwrites `text` at a random offset with `pattern` (if it fits).
void Plant(Rng& rng, const std::string& pattern, std::vector<uint8_t>& text) {
  if (pattern.size() > text.size()) {
    return;
  }
  const size_t at = rng.NextBounded(text.size() - pattern.size() + 1);
  std::copy(pattern.begin(), pattern.end(), text.begin() + at);
}

// Small rulesets over a 3-5 symbol alphabet that always contains the byte
// extremes, with duplicates and patterns that are prefixes or suffixes of
// others: maximal fail-link and dictionary-link traffic.
TEST(AhoCorasickDiffTest, RandomSmallRulesets) {
  Rng rng(0xac0ffee);
  for (int round = 0; round < 400; ++round) {
    std::vector<uint8_t> alphabet = {0x00, 0xfe, 0xff};
    const size_t extra = rng.NextBounded(3);
    for (size_t i = 0; i < extra; ++i) {
      alphabet.push_back(static_cast<uint8_t>('a' + i));
    }

    std::vector<std::string> patterns;
    const size_t count = 1 + rng.NextBounded(16);
    while (patterns.size() < count) {
      const auto fresh = RandomText(rng, alphabet, 1 + rng.NextBounded(6));
      std::string p(fresh.begin(), fresh.end());
      if (!patterns.empty()) {
        const std::string& old = patterns[rng.NextBounded(patterns.size())];
        switch (rng.NextBounded(4)) {
          case 0:  // duplicate
            p = old;
            break;
          case 1:  // prefix of an earlier pattern
            p = old.substr(0, 1 + rng.NextBounded(old.size()));
            break;
          case 2:  // suffix of an earlier pattern
            p = old.substr(rng.NextBounded(old.size()));
            break;
          default:  // an earlier pattern extended
            p = old + p;
            break;
        }
      }
      patterns.push_back(p);
    }

    const AhoCorasick flat(patterns);
    const ReferenceAhoCorasick ref(patterns);
    ExpectSameGraph(flat, ref);
    for (int t = 0; t < 24; ++t) {
      auto text = RandomText(rng, alphabet, rng.NextBounded(160));
      for (size_t k = rng.NextBounded(3); k > 0; --k) {
        Plant(rng, patterns[rng.NextBounded(patterns.size())], text);
      }
      ASSERT_TRUE(SameScans(flat, ref, Bytes(text)))
          << "round " << round << " text " << t;
    }
  }
}

TEST(AhoCorasickDiffTest, EmptyPatternListAndEmptyInput) {
  const std::vector<std::string> none;
  const AhoCorasick flat(none);
  const ReferenceAhoCorasick ref(none);
  ExpectSameGraph(flat, ref);
  EXPECT_EQ(flat.node_count(), 1u);
  const std::vector<uint8_t> empty;
  const std::vector<uint8_t> text = {0x00, 'a', 0xff};
  EXPECT_TRUE(SameScans(flat, ref, Bytes(empty)));
  EXPECT_TRUE(SameScans(flat, ref, Bytes(text)));
  EXPECT_FALSE(flat.Scan(Bytes(text)).Matched());

  const AhoCorasick one({"a"});
  const ReferenceAhoCorasick one_ref({"a"});
  EXPECT_TRUE(SameScans(one, one_ref, Bytes(empty)));
  EXPECT_EQ(one.ScanFirstMatch(Bytes(empty)).bytes_scanned, 0u);
}

// The paper-sized ruleset, built once for the tests below.
class AhoCorasickFullRulesetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    patterns_ = new std::vector<std::string>(GenerateDpiRuleset(33'471, 11));
    flat_ = new AhoCorasick(*patterns_);
    ref_ = new ReferenceAhoCorasick(*patterns_);
  }
  static void TearDownTestSuite() {
    delete ref_;
    delete flat_;
    delete patterns_;
  }

  static std::vector<std::string>* patterns_;
  static AhoCorasick* flat_;
  static ReferenceAhoCorasick* ref_;
};

std::vector<std::string>* AhoCorasickFullRulesetTest::patterns_ = nullptr;
AhoCorasick* AhoCorasickFullRulesetTest::flat_ = nullptr;
ReferenceAhoCorasick* AhoCorasickFullRulesetTest::ref_ = nullptr;

// Recorded on the pointer-per-node engine before the flat layout replaced
// it; the hardware size is the 92.64 MB Table 7 prints.
TEST_F(AhoCorasickFullRulesetTest, GraphGoldens) {
  EXPECT_EQ(flat_->pattern_count(), 33'471u);
  EXPECT_EQ(flat_->node_count(), 639'063u);
  EXPECT_EQ(flat_->GraphBytes(), 46'012'528u);
  EXPECT_EQ(flat_->HardwareGraphBytes(), 97'139'616u);
  ExpectSameGraph(*flat_, *ref_);
}

TEST_F(AhoCorasickFullRulesetTest, CaidaPayloads) {
  trace::PacketStream stream(trace::TraceConfig::CaidaLike(1));
  for (int i = 0; i < 20'000; ++i) {
    const net::Packet packet = stream.Next();
    const auto parsed = net::Parse(packet.bytes());
    ASSERT_TRUE(parsed.ok());
    const auto payload = packet.bytes().subspan(parsed.value().payload_offset);
    ASSERT_TRUE(SameScans(*flat_, *ref_, payload)) << "packet " << i;
  }
}

TEST_F(AhoCorasickFullRulesetTest, RandomBuffersWithPlantedPatterns) {
  Rng rng(2024);
  std::vector<uint8_t> all_bytes(256);
  for (size_t b = 0; b < all_bytes.size(); ++b) {
    all_bytes[b] = static_cast<uint8_t>(b);
  }
  uint64_t matched = 0;
  for (int i = 0; i < 20'000; ++i) {
    auto text = RandomText(rng, all_bytes, rng.NextBounded(1515));
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      Plant(rng, (*patterns_)[rng.NextBounded(patterns_->size())], text);
    }
    ASSERT_TRUE(SameScans(*flat_, *ref_, Bytes(text))) << "buffer " << i;
    matched += flat_->Scan(Bytes(text)).Matched() ? 1 : 0;
  }
  // Planting must actually exercise the match paths.
  EXPECT_GT(matched, 10'000u);
}

}  // namespace
}  // namespace snic::accel
