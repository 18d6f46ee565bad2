// Firewall: first-match ACL over the 5-tuple.
//
// Rules are ordered; the first rule whose predicate covers the packet
// decides allow (output 0) or deny (output 1 if connected, else drop).
// Packets matching no rule follow the default action.
//
// Two matching engines share the same rule list:
//   - kLinear  : scan rules in order (the Click/iptables baseline)
//   - kSrcTrie : a binary trie on the source prefix narrows the candidate
//                set before the ordered scan (first-match preserved by
//                taking the minimum rule index among trie hits)
// Both decide identically, so the real lookup always walks the trie (kept
// current on every add_rule). The configured engine selects only the cost
// model (Firewall::cost_ns) that Tab 3 and the simulated planes charge.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "click/element.hpp"
#include "net/flow_key.hpp"

namespace mdp::nf {

struct PortRange {
  std::uint16_t lo = 0;
  std::uint16_t hi = 65535;
  bool contains(std::uint16_t p) const noexcept { return p >= lo && p <= hi; }
};

struct Prefix {
  std::uint32_t addr = 0;  // host order
  std::uint8_t len = 0;    // 0 => match all

  bool contains(std::uint32_t ip) const noexcept {
    if (len == 0) return true;
    std::uint32_t mask = len >= 32 ? 0xffffffffu : ~(0xffffffffu >> len);
    return (ip & mask) == (addr & mask);
  }
};

enum class FwAction : std::uint8_t { kAllow, kDeny };

struct FwRule {
  FwAction action = FwAction::kAllow;
  Prefix src;
  Prefix dst;
  PortRange sport;
  PortRange dport;
  std::uint8_t protocol = 0;  // 0 => any

  bool matches(const net::FlowKey& f) const noexcept {
    if (protocol != 0 && protocol != f.protocol) return false;
    if (!src.contains(f.src_ip)) return false;
    if (!dst.contains(f.dst_ip)) return false;
    if (!sport.contains(f.src_port)) return false;
    if (!dport.contains(f.dst_port)) return false;
    return true;
  }

  /// Parse "allow|deny [proto tcp|udp|any] [src CIDR|any] [dst CIDR|any]
  /// [sport LO-HI|N|any] [dport LO-HI|N|any]".
  static std::optional<FwRule> parse(const std::string& text,
                                     std::string* err);
};

class FirewallTable {
 public:
  enum class Engine { kLinear, kSrcTrie };

  void add_rule(FwRule rule);
  void set_default(FwAction a) noexcept { default_ = a; }
  /// Selects the modeled cost only; decide() is engine-independent.
  void set_engine(Engine e) noexcept { engine_ = e; }
  Engine engine() const noexcept { return engine_; }
  std::size_t num_rules() const noexcept { return rules_.size(); }

  /// First-match decision for a flow, by the source trie. Also reports
  /// which rule fired (rules_.size() => default action) for accounting.
  FwAction decide(const net::FlowKey& f, std::size_t* rule_idx = nullptr)
      const noexcept;
  /// The same decision by an in-order scan (the reference for decide()).
  FwAction decide_linear(const net::FlowKey& f,
                         std::size_t* rule_idx = nullptr) const noexcept;

 private:
  struct TrieNode {
    int child[2] = {-1, -1};
    int anchored = -1;  // a rule anchored at this prefix node, or -1
  };

  std::vector<FwRule> rules_;
  // Per rule: the next rule anchored at the same trie node, or -1. Lists
  // threaded through one array instead of a vector per node: the small
  // per-node allocations fragmented the heap (+2.7 MB peak RSS per run).
  std::vector<int> next_anchored_;
  FwAction default_ = FwAction::kAllow;
  Engine engine_ = Engine::kLinear;
  std::vector<TrieNode> trie_ = std::vector<TrieNode>(1);  // [0] = root
};

/// Click element wrapper. Configure args: first may be "default allow|deny"
/// or "engine linear|trie"; all other args are rules (see FwRule::parse).
class Firewall final : public click::Element {
 public:
  std::string class_name() const override { return "Firewall"; }
  int n_outputs() const override { return -1; }
  bool configure(const std::vector<std::string>& args,
                 std::string* err) override;
  sim::TimeNs cost_ns() const override {
    // Engine-dependent: linear pays per rule, trie pays per prefix bit.
    if (table_.engine() == FirewallTable::Engine::kSrcTrie)
      return 90 + 3 * 32;
    return 90 + 8 * static_cast<sim::TimeNs>(table_.num_rules());
  }
  void push(int port, net::PacketPtr pkt) override;
  void push_batch(int port, click::PacketBatch&& batch) override;

  FirewallTable& table() noexcept { return table_; }
  std::uint64_t allowed() const noexcept { return allowed_; }
  std::uint64_t denied() const noexcept { return denied_; }

 private:
  FirewallTable table_;
  std::uint64_t allowed_ = 0;
  std::uint64_t denied_ = 0;
};

}  // namespace mdp::nf
