// Reference Aho-Corasick engine: the original pointer-per-node trie, kept
// as the executable oracle for `AhoCorasick`'s flat layout.
//
// Every node owns a sorted std::vector of (byte, child) transitions and the
// automaton is walked through that vector on every byte. It is slow but
// obviously correct; tests and micro benches compare the flat engine
// against it (every `MatchResult` field plus the graph sizes). Nothing on
// the datapath uses it.

#ifndef SNIC_ACCEL_AHO_CORASICK_REFERENCE_H_
#define SNIC_ACCEL_AHO_CORASICK_REFERENCE_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/accel/aho_corasick.h"

namespace snic::accel {

class ReferenceAhoCorasick {
 public:
  // Same contract as AhoCorasick's constructor.
  explicit ReferenceAhoCorasick(const std::vector<std::string>& patterns);

  MatchResult Scan(std::span<const uint8_t> data) const;
  MatchResult ScanFirstMatch(std::span<const uint8_t> data) const;

  size_t pattern_count() const { return pattern_count_; }
  size_t node_count() const { return nodes_.size(); }
  uint64_t GraphBytes() const;
  uint64_t HardwareGraphBytes() const;

 private:
  struct Node {
    // Sorted by byte for binary search.
    std::vector<std::pair<uint8_t, int32_t>> next;
    int32_t fail = 0;
    int32_t dict_link = -1;    // nearest suffix node that ends a pattern
    int32_t pattern_id = -1;   // pattern ending exactly here (first one)
    uint32_t patterns_here = 0;  // number of patterns ending exactly here
  };

  int32_t Transition(int32_t state, uint8_t byte) const;

  std::vector<Node> nodes_;
  size_t pattern_count_;
};

}  // namespace snic::accel

#endif  // SNIC_ACCEL_AHO_CORASICK_REFERENCE_H_
