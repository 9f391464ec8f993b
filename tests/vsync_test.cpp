#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>

#include "sim/fault.hpp"
#include "support/cluster.hpp"
#include "support/oracle.hpp"

namespace evs::test {
namespace {

std::string tag(std::size_t site, int n) {
  return "m" + std::to_string(site) + "-" + std::to_string(n);
}

TEST(Vsync, SingletonViewOnStart) {
  Cluster c({.sites = 1});
  ASSERT_TRUE(c.await_stable_view({0}));
  EXPECT_EQ(c.ep(0).view().size(), 1u);
  EXPECT_EQ(c.rec(0).views().size(), 1u);
}

TEST(Vsync, TwoProcessesFormCommonView) {
  Cluster c({.sites = 2});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  EXPECT_EQ(c.ep(0).view().id, c.ep(1).view().id);
  EXPECT_EQ(c.ep(0).view().size(), 2u);
}

class VsyncGroupSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VsyncGroupSize, AllProcessesFormCommonView) {
  Cluster c({.sites = GetParam()});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  const ViewId expected = c.ep(0).view().id;
  for (std::size_t i = 0; i < GetParam(); ++i)
    EXPECT_EQ(c.ep(i).view().id, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, VsyncGroupSize,
                         ::testing::Values(3, 5, 8, 13));

TEST(Vsync, CrashShrinksView) {
  Cluster c({.sites = 4});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  c.world().crash_site(c.site(3));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  EXPECT_EQ(c.ep(0).view().size(), 3u);
}

TEST(Vsync, LateJoinExpandsView) {
  Cluster c({.sites = 3, .spawn_all = false});
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.spawn_at(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
}

TEST(Vsync, PartitionFormsConcurrentViews) {
  Cluster c({.sites = 5});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3, 4}));
  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3), c.site(4)}});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  ASSERT_TRUE(c.await_stable_view({2, 3, 4}));
  EXPECT_NE(c.ep(0).view().id, c.ep(2).view().id);
}

TEST(Vsync, MergeAfterHealFormsSingleView) {
  Cluster c({.sites = 5});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3, 4}));
  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3), c.site(4)}});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  ASSERT_TRUE(c.await_stable_view({2, 3, 4}));
  c.world().network().heal();
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3, 4}));
  EXPECT_TRUE(check_vs_properties(c));
}

TEST(Vsync, IsolatedMinoritySideFormsSingleton) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.world().network().set_partition({{c.site(0)}, {c.site(1), c.site(2)}});
  ASSERT_TRUE(c.await_stable_view({0}));
  EXPECT_EQ(c.ep(0).view().size(), 1u);
}

TEST(Vsync, MulticastDeliveredToAllMembers) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.rec(0).multicast("hello");
  ASSERT_TRUE(c.await([&]() {
    for (std::size_t i = 0; i < 3; ++i) {
      if (c.rec(i).deliveries().empty()) return false;
    }
    return true;
  }));
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(c.rec(i).deliveries().size(), 1u);
    EXPECT_EQ(c.rec(i).deliveries()[0].payload, "hello");
    EXPECT_EQ(c.rec(i).deliveries()[0].sender, c.ep(0).id());
  }
}

TEST(Vsync, SelfDeliveryIsImmediatelyOrdered) {
  Cluster c({.sites = 2});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  for (int n = 0; n < 5; ++n) c.rec(0).multicast(tag(0, n));
  ASSERT_TRUE(c.await([&]() { return c.rec(1).deliveries().size() == 5; }));
  for (int n = 0; n < 5; ++n) {
    EXPECT_EQ(c.rec(0).deliveries()[n].payload, tag(0, n));
    EXPECT_EQ(c.rec(1).deliveries()[n].payload, tag(0, n));
  }
}

TEST(Vsync, FifoPerSenderUnderLoad) {
  Cluster c({.sites = 3, .seed = 9});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  const int kMessages = 50;
  for (int n = 0; n < kMessages; ++n) {
    c.rec(0).multicast(tag(0, n));
    c.rec(1).multicast(tag(1, n));
  }
  ASSERT_TRUE(c.await(
      [&]() { return c.rec(2).deliveries().size() == 2 * kMessages; }));
  // Per-sender order must be the sending order.
  int next0 = 0;
  int next1 = 0;
  for (const auto& d : c.rec(2).deliveries()) {
    if (d.sender == c.ep(0).id()) {
      EXPECT_EQ(d.payload, tag(0, next0++));
    } else {
      EXPECT_EQ(d.payload, tag(1, next1++));
    }
  }
  EXPECT_EQ(next0, kMessages);
  EXPECT_EQ(next1, kMessages);
}

TEST(Vsync, AgreementWhenSenderCrashesMidStream) {
  Cluster c({.sites = 4, .seed = 11});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  // Fire messages and crash the sender while some are in flight.
  for (int n = 0; n < 20; ++n) c.rec(3).multicast(tag(3, n));
  c.world().crash_site(c.site(3));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.world().run_for(2 * kSecond);
  EXPECT_TRUE(check_vs_properties(c));
  // Survivors must agree exactly (stronger than the pairwise oracle:
  // all three took the same view transition).
  std::set<std::string> s0, s1, s2;
  for (const auto& d : c.rec(0).deliveries()) s0.insert(d.payload);
  for (const auto& d : c.rec(1).deliveries()) s1.insert(d.payload);
  for (const auto& d : c.rec(2).deliveries()) s2.insert(d.payload);
  EXPECT_EQ(s0, s1);
  EXPECT_EQ(s1, s2);
}

TEST(Vsync, SurvivingSenderMessagesAreNeverLost) {
  Cluster c({.sites = 3, .seed = 13});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  // Sender 0 multicasts, then site 2 crashes, forcing a view change while
  // messages may be in flight. Sender 0 survives, so every survivor must
  // deliver all of its messages (they ride in sender 0's own flush ACK).
  for (int n = 0; n < 30; ++n) c.rec(0).multicast(tag(0, n));
  c.world().crash_site(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.world().run_for(2 * kSecond);
  for (std::size_t i : {std::size_t{0}, std::size_t{1}}) {
    std::set<std::string> got;
    for (const auto& d : c.rec(i).deliveries()) got.insert(d.payload);
    for (int n = 0; n < 30; ++n) {
      EXPECT_TRUE(got.contains(tag(0, n)))
          << "site " << i << " missing " << tag(0, n);
    }
  }
  EXPECT_TRUE(check_vs_properties(c));
}

TEST(Vsync, MulticastWhileBlockedIsSentInNextView) {
  Cluster c({.sites = 3, .spawn_all = false});
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  // Freeze happens during the join of site 2; multicast storms during the
  // change must all come out the other side.
  c.spawn_at(c.site(2));
  for (int n = 0; n < 40; ++n) {
    c.rec(0).multicast(tag(0, n));
    c.world().run_for(5 * kMillisecond);
  }
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.world().run_for(2 * kSecond);
  // Site 1 survives alongside site 0 the whole time: it must see all 40.
  std::set<std::string> got;
  for (const auto& d : c.rec(1).deliveries()) got.insert(d.payload);
  EXPECT_EQ(got.size(), 40u);
  EXPECT_TRUE(check_vs_properties(c));
}

TEST(Vsync, UniquenessAcrossPartitionAndMerge) {
  Cluster c({.sites = 4, .seed = 17});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  for (int n = 0; n < 10; ++n) c.rec(0).multicast(tag(0, n));
  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3)}});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  ASSERT_TRUE(c.await_stable_view({2, 3}));
  for (int n = 10; n < 20; ++n) c.rec(0).multicast(tag(0, n));
  for (int n = 0; n < 10; ++n) c.rec(2).multicast(tag(2, n));
  c.world().network().heal();
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  c.world().run_for(2 * kSecond);
  EXPECT_TRUE(check_vs_properties(c));
}

TEST(Vsync, DuplicatePayloadsAreDistinctMessages) {
  // A message is (sender, view, seq), not its bytes: one member multicasts
  // the same payload twice in one view and again after a view change, and
  // the oracles see three messages delivered once each.
  Cluster c({.sites = 3, .seed = 23});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.rec(0).multicast("same");
  c.rec(0).multicast("same");
  ASSERT_TRUE(c.await([&]() { return c.rec(1).deliveries().size() == 2; }));
  c.world().crash_site(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.rec(0).multicast("same");
  ASSERT_TRUE(c.await([&]() { return c.rec(1).deliveries().size() == 3; }));
  c.world().run_for(kSecond);
  for (const std::size_t i : {0u, 1u}) {
    ASSERT_EQ(c.rec(i).deliveries().size(), 3u);
    for (const auto& d : c.rec(i).deliveries()) EXPECT_EQ(d.payload, "same");
  }
  EXPECT_TRUE(check_vs_properties(c));
}

TEST(Vsync, LeaveShrinksViewQuickly) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.ep(2).leave();
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  EXPECT_FALSE(c.world().site_alive(c.site(2)));
}

TEST(Vsync, TotalFailureThenRecoveryFormsFreshView) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  const ViewId old_view = c.ep(0).view().id;
  for (const auto site : c.sites()) c.world().crash_site(site);
  c.world().run_for(500 * kMillisecond);
  for (const auto site : c.sites()) c.world().respawn(site);
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  EXPECT_NE(c.ep(0).view().id, old_view);
  // Fresh incarnations: every member has a higher incarnation number.
  for (const ProcessId member : c.ep(0).view().members)
    EXPECT_GE(member.incarnation, 2u);
}

TEST(Vsync, ViewEpochsMonotonicallyIncreasePerProcess) {
  Cluster c({.sites = 4, .seed = 23});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3)}});
  c.world().run_for(2 * kSecond);
  c.world().network().heal();
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  for (const auto& rec : c.all_recorders()) {
    const auto& views = rec->views();
    for (std::size_t i = 0; i + 1 < views.size(); ++i) {
      EXPECT_LT(views[i].view.id.epoch, views[i + 1].view.id.epoch);
    }
  }
}

TEST(Vsync, StabilityGcBoundsBuffer) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  for (int n = 0; n < 300; ++n) {
    c.rec(0).multicast(tag(0, n));
    c.world().run_for(2 * kMillisecond);
  }
  c.world().run_for(1 * kSecond);  // a few stability rounds
  EXPECT_GT(c.ep(0).stats().stability_gc_messages, 0u);
  // After quiescence + gossip, the buffers must drain completely.
  ASSERT_TRUE(c.await([&]() {
    for (std::size_t i = 0; i < 3; ++i) {
      if (c.ep(i).buffer_size() != 0) return false;
    }
    return true;
  }));
}

TEST(Vsync, GcDisabledKeepsAllMessagesBuffered) {
  ClusterOptions opt{.sites = 2};
  opt.endpoint.stability_interval = 0;
  Cluster c(opt);
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  for (int n = 0; n < 50; ++n) c.rec(0).multicast(tag(0, n));
  c.world().run_for(2 * kSecond);
  EXPECT_GE(c.ep(0).stats().buffer_peak, 50u);
  EXPECT_EQ(c.ep(0).stats().stability_gc_messages, 0u);
}

TEST(Vsync, ContextsTravelWithInstall) {
  Cluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  // The final (merged) view must carry one context per member.
  const auto& views = c.rec(0).views();
  ASSERT_FALSE(views.empty());
  const auto& last = views.back();
  EXPECT_EQ(last.contexts.size(), last.view.members.size());
}

TEST(Vsync, MessageLossDoesNotViolateProperties) {
  ClusterOptions opt{.sites = 3, .seed = 31};
  opt.net.loss_rate = 0.05;
  Cluster c(opt);
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}, 120 * kSecond));
  for (int n = 0; n < 30; ++n) {
    c.rec(0).multicast(tag(0, n));
    c.rec(1).multicast(tag(1, n));
    c.world().run_for(10 * kMillisecond);
  }
  c.world().run_for(5 * kSecond);
  EXPECT_TRUE(check_vs_properties(c));
}

// Property suite: random fault schedules, many seeds. The oracles check
// Agreement / Uniqueness / Integrity over the complete histories.
class VsyncRandomFaults : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VsyncRandomFaults, PropertiesHoldUnderRandomSchedule) {
  const std::uint64_t seed = GetParam();
  Cluster c({.sites = 5, .seed = seed});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));

  sim::Rng rng(seed * 1000003);
  sim::FaultProfile profile;
  profile.mean_interval = 800 * kMillisecond;
  const SimTime horizon = c.world().scheduler().now() + 8 * kSecond;
  auto plan = sim::random_fault_plan(rng, c.sites(), horizon, profile);
  plan.arm(c.world());

  // Application traffic from whoever is alive, all through the run.
  int n = 0;
  while (c.world().scheduler().now() < horizon) {
    for (std::size_t i = 0; i < 5; ++i) {
      if (c.world().site_alive(c.site(i))) c.rec(i).multicast(tag(i, n));
    }
    ++n;
    c.world().run_for(100 * kMillisecond);
  }
  c.world().network().heal();
  c.world().run_for(5 * kSecond);
  EXPECT_TRUE(check_vs_properties(c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VsyncRandomFaults,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------
// Per-sender lanes. These drive one endpoint directly with frames built
// here, never running the world after the view forms: every step is
// synchronous, and nothing but the injected frames touches the buffer.

Bytes data_frame(ViewId view, std::uint64_t seq, const Bytes& payload) {
  gms::DataMsg msg;
  msg.view = view;
  msg.seq = seq;
  msg.payload = payload;
  Encoder body;
  msg.encode(body);
  return gms::frame(gms::Channel::Data, std::move(body));
}

Bytes stability_frame(ViewId view, std::vector<std::uint64_t> upto) {
  gms::StabilityMsg msg;
  msg.view = view;
  msg.delivered_upto = std::move(upto);
  Encoder body;
  msg.encode(body);
  return gms::frame(gms::Channel::Stability, std::move(body));
}

template <typename Msg>
Bytes membership_frame(gms::MembershipKind kind, const Msg& msg) {
  Encoder body;
  body.put_u8(static_cast<std::uint8_t>(kind));
  msg.encode(body);
  return gms::frame(gms::Channel::Membership, std::move(body));
}

/// The same bytes every time (sender, seq) is sent, of varying length.
Bytes lane_payload(ProcessId sender, std::uint64_t seq) {
  return to_bytes("s" + std::to_string(sender.site.value) + ":" +
                  std::to_string(seq) + std::string(seq % 7, 'x'));
}

/// The buffer as it was kept before lanes: a (sender, seq)-keyed map plus
/// a per-sender FIFO cursor and out-of-order map, with the same flush,
/// GC and install rules.
struct BufferModel {
  std::map<std::pair<ProcessId, std::uint64_t>, Bytes> buffer;
  std::map<ProcessId, std::uint64_t> next;
  std::map<ProcessId, std::map<std::uint64_t, Bytes>> pending;
  std::map<ProcessId, std::vector<std::uint64_t>> reports;
  std::vector<std::pair<ProcessId, std::string>> delivered;
  bool blocked = false;

  std::uint64_t& cursor(ProcessId s) { return next.try_emplace(s, 1).first->second; }

  void accept(ProcessId s, std::uint64_t seq, const Bytes& payload) {
    if (seq < cursor(s) || buffer.contains({s, seq})) return;
    buffer.emplace(std::make_pair(s, seq), payload);
    pending[s].emplace(seq, payload);
    if (!blocked) drain(s);
  }
  void drain(ProcessId s) {
    auto& queue = pending[s];
    for (auto it = queue.find(cursor(s)); it != queue.end();
         it = queue.find(cursor(s))) {
      delivered.emplace_back(s, to_string(it->second));
      queue.erase(it);
      ++cursor(s);
    }
  }
  void report(ProcessId from, std::vector<std::uint64_t> upto,
              const std::vector<ProcessId>& members) {
    reports[from] = std::move(upto);
    if (reports.size() < members.size()) return;
    for (std::size_t rank = 0; rank < members.size(); ++rank) {
      std::uint64_t stable = UINT64_MAX;
      for (const ProcessId m : members) stable = std::min(stable, reports[m][rank]);
      std::erase_if(buffer, [&](const auto& e) {
        return e.first.first == members[rank] && e.first.second <= stable;
      });
    }
  }
  void flush(const std::vector<gms::FlushedMessage>& messages) {
    for (const gms::FlushedMessage& fm : messages) {
      if (fm.seq < cursor(fm.sender) && !pending[fm.sender].contains(fm.seq))
        continue;
      pending[fm.sender].erase(fm.seq);
      cursor(fm.sender) = std::max(cursor(fm.sender), fm.seq + 1);
      delivered.emplace_back(fm.sender, to_string(fm.payload));
    }
  }
  void install() {
    buffer.clear();
    next.clear();
    pending.clear();
    reports.clear();
    blocked = false;
  }
  std::vector<gms::FlushedMessage> unstable() const {
    std::vector<gms::FlushedMessage> out;
    for (const auto& [key, payload] : buffer)
      out.push_back(gms::FlushedMessage{key.first, key.second, payload});
    return out;
  }
  std::size_t bytes() const {
    std::size_t n = 0;
    for (const auto& entry : buffer) n += entry.second.size();
    return n;
  }
};

class LaneDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LaneDifferential, MatchesMapModelThroughGapsGcAndInstall) {
  ClusterOptions opt{.sites = 3, .seed = GetParam()};
  opt.endpoint.stability_interval = 0;
  Cluster c(opt);
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  vsync::Endpoint& ep = c.ep(0);
  const ProcessId self = ep.id();
  const std::vector<ProcessId> members = ep.view().members;
  const std::vector<ProcessId> peers = {c.world().live_process(c.site(1)),
                                        c.world().live_process(c.site(2))};
  const std::size_t delivered_before = c.rec(0).deliveries().size();

  BufferModel model;
  std::mt19937_64 rng(GetParam());
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  ViewId view = ep.view().id;
  std::uint64_t self_seq = 0;
  std::vector<Bytes> queued;  // multicast while frozen
  std::optional<gms::RoundId> round;
  std::vector<gms::FlushedMessage> acked;  // what our ACK carried
  int installs = 0;

  for (int step = 0; step < 1500; ++step) {
    const int op = pick(0, 99);
    if (op < 60) {
      const ProcessId s = peers[static_cast<std::size_t>(pick(0, 1))];
      const auto seq = static_cast<std::uint64_t>(
          std::max<std::int64_t>(1, static_cast<std::int64_t>(model.cursor(s)) + pick(-2, 6)));
      ep.on_message(s, data_frame(view, seq, lane_payload(s, seq)));
      model.accept(s, seq, lane_payload(s, seq));
    } else if (op < 70) {
      const Bytes payload = to_bytes("own" + std::to_string(step));
      ep.multicast(payload);
      if (model.blocked)
        queued.push_back(payload);
      else
        model.accept(self, ++self_seq, payload);
    } else if (op < 88) {
      // Our own report is what we delivered; a peer's may run ahead.
      const ProcessId from = members[static_cast<std::size_t>(pick(0, 2))];
      std::vector<std::uint64_t> upto;
      for (const ProcessId m : members) {
        const std::uint64_t mine = model.cursor(m) - 1;
        upto.push_back(from == self ? mine
                                    : mine + static_cast<std::uint64_t>(pick(0, 3)));
      }
      ep.on_message(from, stability_frame(view, upto));
      model.report(from, upto, members);
    } else if (op < 94 && !model.blocked) {
      round = gms::RoundId{view.epoch + 1, peers[0]};
      gms::Propose propose;
      propose.round = *round;
      propose.members = members;
      acked = ep.unstable();
      ep.on_message(peers[0],
                    membership_frame(gms::MembershipKind::Propose, propose));
      ASSERT_TRUE(ep.blocked());
      model.blocked = true;
    } else if (op >= 94 && model.blocked) {
      // The union: our ACK plus messages only some other member held.
      std::map<std::pair<ProcessId, std::uint64_t>, Bytes> agreed;
      for (const gms::FlushedMessage& fm : acked)
        agreed.emplace(std::make_pair(fm.sender, fm.seq), fm.payload);
      for (int extra = pick(0, 4); extra > 0; --extra) {
        const ProcessId s = peers[static_cast<std::size_t>(pick(0, 1))];
        const std::uint64_t seq = model.cursor(s) + static_cast<std::uint64_t>(pick(0, 5));
        agreed.emplace(std::make_pair(s, seq), lane_payload(s, seq));
      }
      std::vector<gms::FlushedMessage> flushed;
      for (const auto& [key, payload] : agreed)
        flushed.push_back(gms::FlushedMessage{key.first, key.second, payload});
      gms::Install install;
      install.round = *round;
      install.view.id = ViewId{round->number, round->coordinator};
      install.view.members = members;
      install.unions = {{view, flushed}};
      ep.on_message(peers[0],
                    membership_frame(gms::MembershipKind::Install, install));
      ASSERT_EQ(ep.view().id, install.view.id);
      model.flush(flushed);
      model.install();
      view = install.view.id;
      self_seq = 0;
      for (const Bytes& payload : queued) model.accept(self, ++self_seq, payload);
      queued.clear();
      ++installs;
    }

    ASSERT_EQ(ep.buffer_size(), model.buffer.size()) << "step " << step;
    ASSERT_EQ(ep.buffered_bytes(), model.bytes()) << "step " << step;
    ASSERT_EQ(ep.unstable(), model.unstable()) << "step " << step;
    const auto& got = c.rec(0).deliveries();
    ASSERT_EQ(got.size() - delivered_before, model.delivered.size())
        << "step " << step;
    for (std::size_t i = 0; i < model.delivered.size(); ++i) {
      ASSERT_EQ(got[delivered_before + i].sender, model.delivered[i].first);
      ASSERT_EQ(got[delivered_before + i].payload, model.delivered[i].second);
    }
  }
  EXPECT_GT(installs, 3);
  EXPECT_GT(ep.stats().stability_gc_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneDifferential,
                         ::testing::Values(1, 2, 3));

TEST(VsyncLane, InOrderStreamKeepsNoOutOfOrderState) {
  ClusterOptions opt{.sites = 2};
  opt.endpoint.stability_interval = 0;
  Cluster c(opt);
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  vsync::Endpoint& ep = c.ep(0);
  const ProcessId peer = c.world().live_process(c.site(1));
  const ViewId view = ep.view().id;
  const std::size_t delivered_before = c.rec(0).deliveries().size();

  std::size_t bytes = 0;
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    ep.on_message(peer, data_frame(view, seq, lane_payload(peer, seq)));
    bytes += lane_payload(peer, seq).size();
    // Delivered on arrival and held once, for the flush only.
    ASSERT_EQ(ep.undelivered(), 0u);
    ASSERT_EQ(c.rec(0).deliveries().size() - delivered_before, seq);
    ASSERT_EQ(ep.buffer_size(), seq);
    ASSERT_EQ(ep.buffered_bytes(), bytes);
  }
  // A gap is the only thing that leaves a message waiting.
  ep.on_message(peer, data_frame(view, 202, lane_payload(peer, 202)));
  EXPECT_EQ(ep.undelivered(), 1u);
  ep.on_message(peer, data_frame(view, 201, lane_payload(peer, 201)));
  EXPECT_EQ(ep.undelivered(), 0u);
  EXPECT_EQ(c.rec(0).deliveries().size() - delivered_before, 202u);
}

TEST(VsyncLane, SeqPastTheSpanIsDiscardedAndCounted) {
  ClusterOptions opt{.sites = 2};
  opt.endpoint.stability_interval = 0;
  Cluster c(opt);
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  vsync::Endpoint& ep = c.ep(0);
  const ProcessId peer = c.world().live_process(c.site(1));
  const ViewId view = ep.view().id;
  const std::uint64_t discarded = ep.stats().messages_discarded;

  // The lane's cursor is at 1: seq 1 + kLaneSpan is one past the span.
  const std::uint64_t far = 1 + vsync::Endpoint::kLaneSpan;
  ep.on_message(peer, data_frame(view, far, lane_payload(peer, far)));
  EXPECT_EQ(ep.stats().messages_discarded, discarded + 1);
  EXPECT_EQ(ep.buffer_size(), 0u);
  EXPECT_EQ(ep.undelivered(), 0u);

  // The last seq inside the span waits behind its gap like any other.
  ep.on_message(peer, data_frame(view, far - 1, lane_payload(peer, far - 1)));
  EXPECT_EQ(ep.stats().messages_discarded, discarded + 1);
  EXPECT_EQ(ep.buffer_size(), 1u);
  EXPECT_EQ(ep.undelivered(), 1u);

  // Data stamped with our view from a process outside it is no message
  // of this view either.
  const ProcessId stranger{SiteId{99}, 1};
  ep.on_message(stranger, data_frame(view, 1, lane_payload(stranger, 1)));
  EXPECT_EQ(ep.stats().messages_discarded, discarded + 2);
  EXPECT_EQ(ep.buffer_size(), 1u);
}

}  // namespace
}  // namespace evs::test
