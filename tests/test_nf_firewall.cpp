// Firewall tests: rule parsing, first-match semantics, engine equivalence
// (linear vs source-prefix trie), and element-level port behaviour.
#include <gtest/gtest.h>

#include "click/elements.hpp"
#include "click/router.hpp"
#include "net/packet_builder.hpp"
#include "nf/chain.hpp"
#include "nf/firewall.hpp"
#include "sim/rng.hpp"

namespace mdp::nf {
namespace {

net::FlowKey mk(const char* src, const char* dst, std::uint16_t sport,
                std::uint16_t dport, std::uint8_t proto) {
  net::FlowKey f;
  EXPECT_TRUE(net::ipv4_from_string(src, &f.src_ip));
  EXPECT_TRUE(net::ipv4_from_string(dst, &f.dst_ip));
  f.src_port = sport;
  f.dst_port = dport;
  f.protocol = proto;
  return f;
}

TEST(FwRule, ParsesFullSyntax) {
  std::string err;
  auto r = FwRule::parse(
      "deny proto tcp src 10.0.0.0/8 dst 192.168.1.1 sport 1000-2000 "
      "dport 80",
      &err);
  ASSERT_TRUE(r.has_value()) << err;
  EXPECT_EQ(r->action, FwAction::kDeny);
  EXPECT_EQ(r->protocol, net::kIpProtoTcp);
  EXPECT_EQ(r->src.len, 8);
  EXPECT_EQ(r->dst.len, 32);
  EXPECT_EQ(r->sport.lo, 1000);
  EXPECT_EQ(r->sport.hi, 2000);
  EXPECT_EQ(r->dport.lo, 80);
  EXPECT_EQ(r->dport.hi, 80);
}

TEST(FwRule, ParseRejectsGarbage) {
  std::string err;
  EXPECT_FALSE(FwRule::parse("", &err).has_value());
  EXPECT_FALSE(FwRule::parse("permit src any", &err).has_value());
  EXPECT_FALSE(FwRule::parse("allow proto icmpish", &err).has_value());
  EXPECT_FALSE(FwRule::parse("allow src 1.2.3.4/40", &err).has_value());
  EXPECT_FALSE(FwRule::parse("allow sport 9-2", &err).has_value());
  EXPECT_FALSE(FwRule::parse("allow dport", &err).has_value());
}

TEST(FwRule, PrefixMatchSemantics) {
  std::string err;
  auto r = FwRule::parse("deny src 10.1.0.0/16", &err);
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->matches(mk("10.1.2.3", "1.1.1.1", 1, 2, 17)));
  EXPECT_FALSE(r->matches(mk("10.2.2.3", "1.1.1.1", 1, 2, 17)));
}

TEST(FirewallTable, FirstMatchWinsInOrder) {
  FirewallTable t;
  std::string err;
  t.add_rule(*FwRule::parse("deny src 10.0.0.0/8", &err));
  t.add_rule(*FwRule::parse("allow src 10.1.0.0/16", &err));
  // The /16 allow is shadowed by the earlier /8 deny.
  std::size_t idx;
  EXPECT_EQ(t.decide(mk("10.1.1.1", "2.2.2.2", 5, 6, 6), &idx),
            FwAction::kDeny);
  EXPECT_EQ(idx, 0u);
}

TEST(FirewallTable, DefaultActionAppliesWhenNoMatch) {
  FirewallTable t;
  std::string err;
  t.add_rule(*FwRule::parse("deny src 10.0.0.0/8", &err));
  std::size_t idx;
  EXPECT_EQ(t.decide(mk("11.0.0.1", "2.2.2.2", 5, 6, 6), &idx),
            FwAction::kAllow);
  EXPECT_EQ(idx, t.num_rules());
  t.set_default(FwAction::kDeny);
  EXPECT_EQ(t.decide(mk("11.0.0.1", "2.2.2.2", 5, 6, 6)), FwAction::kDeny);
}

// Property: the trie walk (decide) and the in-order scan (decide_linear)
// agree on every decision and on the fired rule index.
void expect_trie_matches_linear(const FirewallTable& t, sim::Rng& rng,
                                std::uint32_t biased_mask) {
  for (int i = 0; i < 20'000; ++i) {
    net::FlowKey f;
    f.src_ip = static_cast<std::uint32_t>(rng.next_u64());
    // Bias half the flows into the rule space for match coverage.
    if (rng.bernoulli(0.5)) f.src_ip &= biased_mask;
    f.dst_ip = static_cast<std::uint32_t>(rng.next_u64());
    f.src_port = static_cast<std::uint16_t>(rng.uniform_u64(65536));
    f.dst_port = static_cast<std::uint16_t>(rng.uniform_u64(2048));
    f.protocol = rng.bernoulli(0.5) ? net::kIpProtoTcp : net::kIpProtoUdp;
    std::size_t il = 0, it = 0;
    FwAction al = t.decide_linear(f, &il);
    FwAction at = t.decide(f, &it);
    ASSERT_EQ(al, at) << "engine disagreement for " << f.to_string();
    ASSERT_EQ(il, it) << "different rule fired for " << f.to_string();
  }
}

TEST(FirewallTable, TrieEngineMatchesLinearOnRandomInputs) {
  sim::Rng rng(2024);
  FirewallTable t;
  std::string err;
  for (int i = 0; i < 64; ++i) {
    char buf[128];
    std::uint32_t a = static_cast<std::uint32_t>(rng.uniform_u64(256));
    std::uint32_t b = static_cast<std::uint32_t>(rng.uniform_u64(256));
    int len = static_cast<int>(rng.uniform_u64(4)) * 8;  // 0,8,16,24
    std::uint16_t port = static_cast<std::uint16_t>(rng.uniform_u64(1024));
    std::snprintf(buf, sizeof(buf), "%s src %u.%u.0.0/%d dport %u-%u",
                  rng.bernoulli(0.5) ? "allow" : "deny", a, b,
                  len == 0 ? 8 : len, port, port + 200);
    auto rule = FwRule::parse(buf, &err);
    ASSERT_TRUE(rule) << buf << ": " << err;
    t.add_rule(*rule);
  }
  expect_trie_matches_linear(t, rng, 0xffff0000);

  // The chain presets' rule set: bogon denies, a port rule anchored at
  // the trie root, then /24 allows inside 10.0.0.0/16.
  FirewallTable preset;
  for (const auto& text : make_firewall_rules(32)) {
    auto rule = FwRule::parse(text, &err);
    ASSERT_TRUE(rule) << text << ": " << err;
    preset.add_rule(*rule);
  }
  ASSERT_EQ(preset.num_rules(), 32u);
  expect_trie_matches_linear(preset, rng, 0x0a00ffff);
  for (std::uint32_t hi : {0x00u, 0x7fu, 0xe0u, 0x0au}) {
    net::FlowKey f = mk("0.0.0.0", "1.1.1.1", 1, 23, net::kIpProtoTcp);
    f.src_ip = hi << 24 | 0x001c07u;
    std::size_t il = 0, it = 0;
    EXPECT_EQ(preset.decide_linear(f, &il), preset.decide(f, &it));
    EXPECT_EQ(il, it);
  }

  // The configured engine picks the cost model only, never the decision.
  preset.set_engine(FirewallTable::Engine::kSrcTrie);
  expect_trie_matches_linear(preset, rng, 0x0a00ffff);
}

TEST(FirewallTable, EmptyRuleSetTakesDefault) {
  FirewallTable t;
  std::size_t idx = 99;
  EXPECT_EQ(t.decide(mk("10.0.0.1", "2.2.2.2", 5, 6, 6), &idx),
            FwAction::kAllow);
  EXPECT_EQ(idx, 0u);
  t.set_default(FwAction::kDeny);
  EXPECT_EQ(t.decide(mk("10.0.0.1", "2.2.2.2", 5, 6, 6)), FwAction::kDeny);
}

TEST(FirewallElement, RoutesAllowAndDenyPorts) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  ASSERT_TRUE(router.configure(R"(
    fw :: Firewall(default allow, deny src 10.9.0.0/16);
    ok :: Counter; bad :: Counter;
    fw [0] -> ok -> Discard; fw [1] -> bad -> Discard;
  )",
                               &err))
      << err;
  ASSERT_TRUE(router.initialize(&err)) << err;

  auto send = [&](const char* src) {
    net::BuildSpec spec;
    EXPECT_TRUE(net::ipv4_from_string(src, &spec.flow.src_ip));
    spec.flow.dst_ip = 0x0a006401;
    spec.flow.src_port = 1234;
    spec.flow.dst_port = 80;
    router.find("fw")->push(0, net::build_udp(pool, spec));
  };
  send("10.9.1.1");
  send("10.8.1.1");
  send("10.9.255.255");
  auto* fw = router.find_as<Firewall>("fw");
  EXPECT_EQ(fw->denied(), 2u);
  EXPECT_EQ(fw->allowed(), 1u);
  EXPECT_EQ(router.find_as<click::Counter>("ok")->packets(), 1u);
  EXPECT_EQ(router.find_as<click::Counter>("bad")->packets(), 2u);
}

TEST(FirewallElement, DeniedDroppedWhenPortUnconnected) {
  sim::EventQueue eq;
  net::PacketPool pool(64, 2048);
  click::Router router(click::Router::Context{&eq, &pool});
  std::string err;
  ASSERT_TRUE(router.configure(
      "fw :: Firewall(default deny); ok :: Counter; fw -> ok -> Discard;",
      &err))
      << err;
  ASSERT_TRUE(router.initialize(&err)) << err;
  net::BuildSpec spec;
  spec.flow = {0x01020304, 0x05060708, 1, 2, 17};
  std::size_t in_use = pool.in_use();
  router.find("fw")->push(0, net::build_udp(pool, spec));
  EXPECT_EQ(pool.in_use(), in_use) << "denied packet must recycle";
  EXPECT_EQ(router.find_as<click::Counter>("ok")->packets(), 0u);
}

TEST(MakeFirewallRules, GeneratesParseableRules) {
  std::string err;
  for (const auto& text : make_firewall_rules(100)) {
    EXPECT_TRUE(FwRule::parse(text, &err).has_value())
        << text << ": " << err;
  }
  EXPECT_EQ(make_firewall_rules(100).size(), 100u);
}

}  // namespace
}  // namespace mdp::nf
