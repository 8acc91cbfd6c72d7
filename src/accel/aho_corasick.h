// Aho-Corasick multi-pattern matching automaton.
//
// This is the matching graph at the heart of the DPI accelerator (§3.3,
// §4.3, Fig. 3) and of the DPI network function (§5.1, which the paper
// implements with the SIMD-accelerated `aho_corasick` Rust crate over 33,471
// patterns from six open-source rulesets). The automaton is built once from
// the ruleset, stored in the function's RAM ("the complete DPI graph"), and
// walked byte-by-byte by accelerator hardware threads that cache hot nodes
// in SRAM.
//
// Layout. Like the crate, the automaton lives in a few contiguous arrays
// rather than one heap object per node. Nodes are numbered in BFS order, and
// each node's children are numbered together in ascending byte order, so
// the trie's edges form a CSR table: node s owns edges
// [edge_begin_[s], edge_begin_[s + 1]) of `edge_byte_`, and edge k always
// leads to node k + 1 (no target array is needed). The root also has a
// dense 256-entry row, so every failure chain ends in one load. `hit_`
// holds, per node, the longest pattern-ending suffix node (the node itself
// if a pattern ends there, else its dictionary link), so ScanFirstMatch does
// one transition and one load per byte; a node's dictionary link is
// `hit_[fail_[s]]`.
//
// Construction sorts the pattern indices by (bytes, id) and walks the
// sorted ranges level by level: the patterns sharing a node's prefix are one
// contiguous range, the ones ending at the node sort first, and the rest
// split by their next byte into the node's children. Fail links then take
// one pass in node order, since every parent precedes its children.
//
// Oracle. `ReferenceAhoCorasick` (aho_corasick_reference.h) keeps the
// original pointer-per-node trie. Tests check that both engines agree on
// every MatchResult field and on the graph sizes; the sizes (and therefore
// Table 6's DPI heap, Table 7's graph and the DPI arena addresses of Fig. 5)
// depend only on the trie's shape, not on how it is stored.

#ifndef SNIC_ACCEL_AHO_CORASICK_H_
#define SNIC_ACCEL_AHO_CORASICK_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace snic::accel {

struct MatchResult {
  uint64_t match_count = 0;        // total pattern occurrences
  uint64_t bytes_scanned = 0;
  uint32_t first_pattern = UINT32_MAX;  // id of the first match, if any

  bool Matched() const { return match_count > 0; }
};

class AhoCorasick {
 public:
  // Builds the automaton from `patterns`. Empty patterns are rejected
  // (SNIC_CHECK). Pattern ids are their indices in the input vector.
  explicit AhoCorasick(const std::vector<std::string>& patterns);

  // Scans `data`, counting every pattern occurrence (including overlapping
  // ones via dictionary suffix links).
  MatchResult Scan(std::span<const uint8_t> data) const;

  // Scan that stops at the first match (firewall/IDS drop decision).
  MatchResult ScanFirstMatch(std::span<const uint8_t> data) const;

  size_t pattern_count() const { return pattern_count_; }
  size_t node_count() const { return fail_.size(); }

  // Logical size of the matching graph as laid out in NF RAM (the software
  // automaton backing the DPI network function; Table 6's DPI heap).
  uint64_t GraphBytes() const;

  // Size of the hardware-walkable graph format consumed by the DPI
  // accelerator (the "Graph" figure of Table 7's memory profile).
  uint64_t HardwareGraphBytes() const;

 private:
  int32_t Transition(int32_t state, uint8_t byte) const;

  std::vector<uint32_t> edge_begin_;  // node_count() + 1 CSR offsets
  std::vector<uint8_t> edge_byte_;    // edge k leads to node k + 1
  std::array<int32_t, 256> root_next_{};
  std::vector<int32_t> fail_;
  std::vector<int32_t> hit_;          // -1 when no pattern is a suffix
  std::vector<int32_t> pattern_id_;   // smallest id ending here, or -1
  std::vector<uint32_t> patterns_here_;  // number of patterns ending here
  size_t pattern_count_;
};

// Deterministic synthetic ruleset with the cardinality of the paper's DPI
// corpus (33,471 patterns from six open-source rulesets). Patterns are
// ASCII strings of length [min_len, max_len] sharing realistic common
// prefixes ("GET /", "User-Agent:", shell fragments, hex blob prefixes).
std::vector<std::string> GenerateDpiRuleset(size_t count, uint64_t seed,
                                            size_t min_len = 6,
                                            size_t max_len = 24);

}  // namespace snic::accel

#endif  // SNIC_ACCEL_AHO_CORASICK_H_
