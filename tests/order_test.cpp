#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "order/delivered_set.hpp"
#include "order/layers.hpp"
#include "order/vector_clock.hpp"
#include "sim/world.hpp"

namespace evs::order {
namespace {

TEST(VectorClock, MergeTakesComponentMax) {
  VectorClock a(3);
  VectorClock b(3);
  a.set(0, 5);
  b.set(1, 7);
  a.merge(b);
  EXPECT_EQ(a.at(0), 5u);
  EXPECT_EQ(a.at(1), 7u);
  EXPECT_EQ(a.at(2), 0u);
}

TEST(VectorClock, LeqIsComponentwise) {
  VectorClock a(2);
  VectorClock b(2);
  b.set(0, 1);
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
  a.set(1, 2);
  EXPECT_FALSE(a.leq(b));
}

TEST(VectorClock, DeliverableRequiresExactlyNextFromSender) {
  VectorClock delivered(2);  // nothing delivered yet
  VectorClock msg(2);
  msg.set(0, 1);  // first message from rank 0
  EXPECT_TRUE(msg.deliverable_at(0, delivered));
  msg.set(0, 2);  // second message — not yet
  EXPECT_FALSE(msg.deliverable_at(0, delivered));
}

TEST(VectorClock, DeliverableRequiresDependenciesCovered) {
  VectorClock delivered(2);
  VectorClock msg(2);
  msg.set(1, 1);
  msg.set(0, 3);  // depends on 3 messages from rank 0
  EXPECT_FALSE(msg.deliverable_at(1, delivered));
  delivered.set(0, 3);
  EXPECT_TRUE(msg.deliverable_at(1, delivered));
}

TEST(VectorClock, CodecRoundTrip) {
  VectorClock vc(4);
  vc.set(2, 100);
  Encoder enc;
  vc.encode(enc);
  Decoder dec(enc.buffer());
  EXPECT_EQ(VectorClock::decode(dec), vc);
}

// ------------------------------------------------------- layer fixtures ---

class OrderRecorder : public OrderDelegate {
 public:
  struct Delivery {
    ProcessId sender;
    std::string payload;
  };
  void on_view(const gms::View& view, const vsync::InstallInfo&) override {
    views.push_back(view);
  }
  void on_deliver(ProcessId sender, const Bytes& payload) override {
    deliveries.push_back({sender, to_string(payload)});
  }
  std::vector<gms::View> views;
  std::vector<Delivery> deliveries;
};

// A node that, upon delivering "ping", immediately multicasts "pong-<i>".
// Used to build genuine causal chains across processes.
template <typename Layer>
struct Node {
  vsync::Endpoint* endpoint = nullptr;
  std::unique_ptr<OrderRecorder> recorder;
  std::unique_ptr<Layer> layer;
};

template <typename Layer>
struct LayerCluster {
  explicit LayerCluster(std::size_t n, std::uint64_t seed = 1,
                        sim::NetworkConfig net = {})
      : world(seed, net) {
    sites = world.add_sites(n);
    vsync::EndpointConfig cfg;
    cfg.universe = sites;
    for (const SiteId site : sites) {
      Node<Layer> node;
      node.endpoint = &world.spawn<vsync::Endpoint>(site, cfg);
      node.recorder = std::make_unique<OrderRecorder>();
      node.layer = std::make_unique<Layer>(*node.endpoint, *node.recorder);
      nodes.push_back(std::move(node));
    }
  }

  bool await_group() {
    const SimTime deadline = world.scheduler().now() + 60 * kSecond;
    while (world.scheduler().now() < deadline) {
      bool ok = true;
      for (auto& node : nodes) {
        if (node.endpoint->view().size() != nodes.size() ||
            node.endpoint->blocked()) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
      world.run_for(10 * kMillisecond);
    }
    return false;
  }

  sim::World world;
  std::vector<SiteId> sites;
  std::vector<Node<Layer>> nodes;
};

TEST(FifoLayer, PassThroughDeliversEverything) {
  LayerCluster<FifoLayer> c(3);
  ASSERT_TRUE(c.await_group());
  for (int i = 0; i < 10; ++i)
    c.nodes[0].layer->multicast(to_bytes("m" + std::to_string(i)));
  c.world.run_for(2 * kSecond);
  for (auto& node : c.nodes) {
    ASSERT_EQ(node.recorder->deliveries.size(), 10u);
    for (int i = 0; i < 10; ++i)
      EXPECT_EQ(node.recorder->deliveries[i].payload, "m" + std::to_string(i));
  }
}

// Drives a causal chain: node 0 sends "ping", node 1 replies "pong" as
// soon as it delivers the ping. Every member must deliver ping before pong.
template <typename Layer>
void run_causal_chain(LayerCluster<Layer>& c, int rounds,
                      bool expect_causal) {
  ASSERT_TRUE(c.await_group());
  int violations = 0;
  for (int r = 0; r < rounds; ++r) {
    const std::string ping = "ping-" + std::to_string(r);
    const std::string pong = "pong-" + std::to_string(r);
    c.nodes[0].layer->multicast(to_bytes(ping));
    // Node 1 replies the moment it sees the ping.
    const SimTime deadline = c.world.scheduler().now() + 10 * kSecond;
    bool replied = false;
    while (c.world.scheduler().now() < deadline) {
      c.world.run_for(1 * kMillisecond);
      if (!replied) {
        for (const auto& d : c.nodes[1].recorder->deliveries) {
          if (d.payload == ping) {
            c.nodes[1].layer->multicast(to_bytes(pong));
            replied = true;
            break;
          }
        }
      }
      // Wait until everyone saw the pong.
      bool all = replied;
      for (auto& node : c.nodes) {
        bool saw = false;
        for (const auto& d : node.recorder->deliveries)
          if (d.payload == pong) saw = true;
        all = all && saw;
      }
      if (all) break;
    }
    for (auto& node : c.nodes) {
      int ping_at = -1;
      int pong_at = -1;
      const auto& ds = node.recorder->deliveries;
      for (std::size_t i = 0; i < ds.size(); ++i) {
        if (ds[i].payload == ping) ping_at = static_cast<int>(i);
        if (ds[i].payload == pong) pong_at = static_cast<int>(i);
      }
      ASSERT_GE(ping_at, 0);
      ASSERT_GE(pong_at, 0);
      if (pong_at < ping_at) ++violations;
    }
  }
  if (expect_causal) {
    EXPECT_EQ(violations, 0);
  }
}

TEST(CausalLayer, ReplyNeverOvertakesItsCause) {
  sim::NetworkConfig net;
  net.mean_jitter_us = 20'000.0;  // heavy jitter to tempt reordering
  LayerCluster<CausalLayer> c(4, 3, net);
  run_causal_chain(c, 10, /*expect_causal=*/true);
}

TEST(TotalLayer, ReplyNeverOvertakesItsCause) {
  sim::NetworkConfig net;
  net.mean_jitter_us = 20'000.0;
  LayerCluster<TotalLayer> c(4, 4, net);
  run_causal_chain(c, 10, /*expect_causal=*/true);
}

TEST(TotalLayer, AllMembersDeliverSameGlobalSequence) {
  sim::NetworkConfig net;
  net.mean_jitter_us = 10'000.0;
  LayerCluster<TotalLayer> c(4, 5, net);
  ASSERT_TRUE(c.await_group());
  // Everyone sends concurrently.
  for (int r = 0; r < 20; ++r) {
    for (std::size_t i = 0; i < c.nodes.size(); ++i) {
      c.nodes[i].layer->multicast(
          to_bytes("n" + std::to_string(i) + "-" + std::to_string(r)));
    }
    c.world.run_for(5 * kMillisecond);
  }
  c.world.run_for(5 * kSecond);
  const std::size_t expected = c.nodes.size() * 20;
  std::vector<std::string> reference;
  for (const auto& d : c.nodes[0].recorder->deliveries)
    reference.push_back(d.payload);
  ASSERT_EQ(reference.size(), expected);
  for (auto& node : c.nodes) {
    std::vector<std::string> got;
    for (const auto& d : node.recorder->deliveries) got.push_back(d.payload);
    EXPECT_EQ(got, reference);
  }
}

TEST(TotalLayer, SequencerCrashDoesNotLoseSurvivorMessages) {
  LayerCluster<TotalLayer> c(3, 6);
  ASSERT_TRUE(c.await_group());
  // The sequencer is the primary = lowest id = node 0 (first spawned at
  // site 0). Survivors keep sending while it dies.
  for (int r = 0; r < 10; ++r)
    c.nodes[1].layer->multicast(to_bytes("s" + std::to_string(r)));
  c.world.crash_site(c.sites[0]);
  c.world.run_for(10 * kSecond);
  // Both survivors deliver all 10, in the same order.
  std::vector<std::string> a;
  std::vector<std::string> b;
  for (const auto& d : c.nodes[1].recorder->deliveries) a.push_back(d.payload);
  for (const auto& d : c.nodes[2].recorder->deliveries) b.push_back(d.payload);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a, b);
}

TEST(CausalLayer, ConcurrentSendersAllDelivered) {
  LayerCluster<CausalLayer> c(3, 7);
  ASSERT_TRUE(c.await_group());
  for (int r = 0; r < 15; ++r) {
    c.nodes[0].layer->multicast(to_bytes("a" + std::to_string(r)));
    c.nodes[1].layer->multicast(to_bytes("b" + std::to_string(r)));
    c.nodes[2].layer->multicast(to_bytes("c" + std::to_string(r)));
    c.world.run_for(3 * kMillisecond);
  }
  c.world.run_for(3 * kSecond);
  for (auto& node : c.nodes)
    EXPECT_EQ(node.recorder->deliveries.size(), 45u);
}

TEST(Layers, OverheadBytesAreTracked) {
  LayerCluster<TotalLayer> c(2, 8);
  ASSERT_TRUE(c.await_group());
  c.nodes[1].layer->multicast(to_bytes("x"));
  c.world.run_for(2 * kSecond);
  EXPECT_GT(c.nodes[1].layer->stats().overhead_bytes, 0u);
}

TEST(DeliveredSet, MatchesStdSetOverRandomOrdersWithDuplicatesAndGaps) {
  // Differential check against the std::set it replaces: per origin, a
  // mostly-ascending stream of lseqs with shuffled windows, repeats,
  // skipped lseqs (gaps that never close), lseq 0 and the u64 maximum.
  std::mt19937_64 rng(42);
  const ProcessId origins[] = {{SiteId{0}, 1}, {SiteId{1}, 1}, {SiteId{1}, 2}};
  for (int round = 0; round < 50; ++round) {
    DeliveredSet set;
    std::set<std::pair<ProcessId, std::uint64_t>> oracle;
    std::vector<std::pair<ProcessId, std::uint64_t>> ops;
    for (const ProcessId& origin : origins) {
      for (std::uint64_t lseq = 1; lseq <= 200; ++lseq) {
        if (rng() % 10 == 0) continue;  // a gap
        ops.emplace_back(origin, lseq);
        if (rng() % 5 == 0) ops.emplace_back(origin, lseq);  // duplicate
      }
      ops.emplace_back(origin, 0);
      ops.emplace_back(origin, ~std::uint64_t{0});
      ops.emplace_back(origin, ~std::uint64_t{0} - 1);
    }
    // Local shuffles keep the stream near FIFO, as the sequencer's is.
    const std::size_t window = 1 + round % 16;
    for (std::size_t i = 0; i + window <= ops.size(); i += window)
      std::shuffle(ops.begin() + static_cast<std::ptrdiff_t>(i),
                   ops.begin() + static_cast<std::ptrdiff_t>(i + window), rng);
    for (const auto& [origin, lseq] : ops) {
      const std::uint64_t probe = rng() % 210;
      ASSERT_EQ(set.contains(origin, probe),
                oracle.contains({origin, probe}));
      ASSERT_EQ(set.insert(origin, lseq), oracle.insert({origin, lseq}).second);
      ASSERT_TRUE(set.contains(origin, lseq));
    }
    for (const ProcessId& origin : origins)
      for (std::uint64_t lseq = 0; lseq <= 201; ++lseq)
        ASSERT_EQ(set.contains(origin, lseq), oracle.contains({origin, lseq}));
    set.clear();
    for (const auto& [origin, lseq] : oracle)
      ASSERT_FALSE(set.contains(origin, lseq));
  }
}

TEST(DeliveredSet, InOrderStreamKeepsNoPerMessageState) {
  DeliveredSet set;
  const ProcessId a{SiteId{0}, 1};
  const ProcessId b{SiteId{1}, 1};
  for (std::uint64_t lseq = 1; lseq <= 10'000; ++lseq) {
    ASSERT_TRUE(set.insert(a, lseq));
    ASSERT_TRUE(set.insert(b, lseq));
  }
  EXPECT_EQ(set.sparse_size(), 0u);
  // A gap parks what lands above it until it closes.
  EXPECT_TRUE(set.insert(a, 10'002));
  EXPECT_TRUE(set.insert(a, 10'003));
  EXPECT_EQ(set.sparse_size(), 2u);
  EXPECT_FALSE(set.contains(a, 10'001));
  EXPECT_TRUE(set.insert(a, 10'001));
  EXPECT_EQ(set.sparse_size(), 0u);
  EXPECT_FALSE(set.insert(a, 10'002));
  EXPECT_TRUE(set.contains(a, 10'003));
  EXPECT_FALSE(set.contains(a, 10'004));
}

}  // namespace
}  // namespace evs::order
