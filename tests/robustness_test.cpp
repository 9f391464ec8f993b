// Robustness: protocol endpoints must survive garbage, truncation,
// duplication and replay on the wire without corrupting state — every
// defect is absorbed as a dropped message (Section 2's asynchronous
// system gives no cleaner option).
#include <gtest/gtest.h>

#include <string>

#include "obs/check.hpp"
#include "sim/fault.hpp"
#include "support/cluster.hpp"
#include "support/evs_cluster.hpp"
#include "support/oracle.hpp"

namespace evs::test {
namespace {

Bytes random_bytes(sim::Rng& rng, std::size_t max_len) {
  Bytes b(rng.uniform(max_len + 1));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.uniform(256));
  return b;
}

TEST(Robustness, EndpointsSurviveRandomGarbage) {
  Cluster c({.sites = 3, .seed = 61});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  sim::Rng rng(991);
  // Blast every endpoint with garbage frames. Sender identities are fake
  // incarnations: the protocol has no authentication, so a *forged valid
  // control message* from a live member id (e.g. a LEAVE) is
  // indistinguishable from a real one by design — robustness here means
  // surviving *malformed* input, not Byzantine members.
  for (int i = 0; i < 500; ++i) {
    const ProcessId fake{SiteId{static_cast<std::uint32_t>(rng.uniform(3))},
                         1000 + static_cast<std::uint32_t>(rng.uniform(3))};
    const std::size_t to = rng.uniform(3);
    c.world().network().send(fake, c.ep(to).id(), random_bytes(rng, 64));
    c.world().run_for(1 * kMillisecond);
  }
  c.world().run_for(2 * kSecond);
  // The group stays intact and functional.
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.rec(0).multicast("still alive");
  ASSERT_TRUE(c.await([&]() { return c.rec(2).deliveries().size() >= 1; }));
  EXPECT_GT(c.ep(0).stats().messages_discarded, 0u);
  EXPECT_TRUE(check_vs_properties(c));
}

TEST(Robustness, TruncatedProtocolFramesAreDropped) {
  Cluster c({.sites = 2, .seed = 62});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  // Craft prefixes of every *payload-bearing* channel tag with nothing
  // behind them. (Channel 5, LEAVE, is bodyless: a frame carrying just its
  // tag is a VALID leave announcement, not a truncation.)
  for (std::uint8_t channel = 1; channel <= 4; ++channel) {
    Bytes frame{channel};
    c.world().network().send(c.ep(0).id(), c.ep(1).id(), frame);
    // And with one junk byte of "body".
    Bytes frame2{channel, 0xff};
    c.world().network().send(c.ep(0).id(), c.ep(1).id(), frame2);
  }
  c.world().run_for(2 * kSecond);
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.rec(1).multicast("ok");
  ASSERT_TRUE(c.await([&]() { return c.rec(0).deliveries().size() >= 1; }));
}

TEST(Robustness, ReplayedDataMessagesAreDeduplicated) {
  Cluster c({.sites = 2, .seed = 63});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.rec(0).multicast("once");
  ASSERT_TRUE(c.await([&]() { return c.rec(1).deliveries().size() == 1; }));

  // Re-send the exact DataMsg the sender would have produced (seq 1).
  gms::DataMsg replay;
  replay.view = c.ep(0).view().id;
  replay.seq = 1;
  replay.payload = to_bytes("once");
  Encoder body;
  replay.encode(body);
  for (int i = 0; i < 5; ++i) {
    c.world().network().send(c.ep(0).id(), c.ep(1).id(),
                             gms::frame(gms::Channel::Data, body));
  }
  c.world().run_for(2 * kSecond);
  EXPECT_EQ(c.rec(1).deliveries().size(), 1u);  // still exactly once
}

TEST(Robustness, StaleViewDataIsDiscarded) {
  Cluster c({.sites = 3, .seed = 64});
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  const ViewId old_view = c.ep(0).view().id;
  c.world().crash_site(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1}));

  // A message tagged with the dead view must not be delivered.
  gms::DataMsg stale;
  stale.view = old_view;
  stale.seq = 99;
  stale.payload = to_bytes("ghost");
  Encoder body;
  stale.encode(body);
  c.world().network().send(c.ep(0).id(), c.ep(1).id(),
                           gms::frame(gms::Channel::Data, body));
  c.world().run_for(2 * kSecond);
  for (const auto& d : c.rec(1).deliveries()) EXPECT_NE(d.payload, "ghost");
}

TEST(Robustness, GarbageFlushContextYieldsSingleton) {
  // An EVS member whose flush context fails to decode must come out of
  // the view change as a singleton subview, not crash the group.
  // (Covered at unit level by StructureContext::decode; here we check the
  // endpoint path stays live when contexts are empty — the vsync layer
  // has no EVS delegate, so its context is empty bytes.)
  EvsClusterOptions opt{.sites = 2, .seed = 65};
  EvsCluster c(opt);
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  EXPECT_EQ(c.ep(0).eview().structure.subviews().size(), 2u);
  c.ep(0).eview().structure.validate(c.ep(0).eview().view.members);
}

TEST(Robustness, RandomGarbageUnderChurnKeepsEvsConsistent) {
  EvsClusterOptions opt{.sites = 4, .seed = 66};
  EvsCluster c(opt);
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  sim::Rng rng(4099);
  for (int round = 0; round < 20; ++round) {
    // Garbage from random identities (including dead incarnations).
    const ProcessId fake{SiteId{static_cast<std::uint32_t>(rng.uniform(4))},
                         static_cast<std::uint32_t>(rng.uniform(3))};
    c.world().network().send(fake, c.ep(rng.uniform(4)).id(),
                             random_bytes(rng, 128));
    if (round == 8) {
      c.world().network().set_partition(
          {{c.site(0), c.site(1)}, {c.site(2), c.site(3)}});
    }
    if (round == 14) c.world().network().heal();
    if (rng.bernoulli(0.4)) c.ep(rng.uniform(4)).request_merge_all();
    c.world().run_for(300 * kMillisecond);
    for (std::size_t i = 0; i < 4; ++i) {
      c.ep(i).eview().structure.validate(c.ep(i).eview().view.members);
    }
  }
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  ASSERT_TRUE(c.await([&]() { return c.structures_agree(c.all_indices()); }));
}

TEST(Robustness, RandomizedFaultScheduleTraceValidatesClean) {
  // Drive a cluster through a randomized crash/recover/partition/heal
  // schedule with the trace bus recording everything, then replay the
  // full trace through the in-library RunChecker: the view-synchrony
  // properties must hold with zero violations, from the trace alone.
  Cluster c({.sites = 4, .seed = 67});
  c.world().trace_bus().set_enabled(true);
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));

  sim::Rng rng(7041996);
  sim::FaultProfile profile;
  profile.mean_interval = 900 * kMillisecond;
  const SimTime horizon = c.world().scheduler().now() + 12 * kSecond;
  const sim::FaultPlan plan =
      sim::random_fault_plan(rng, c.sites(), horizon, profile);
  plan.arm(c.world());

  // Unique payloads from whichever sites are alive, throughout the run.
  int sent = 0;
  while (c.world().scheduler().now() < horizon) {
    for (std::size_t i = 0; i < 4; ++i) {
      if (!c.world().site_alive(c.site(i))) continue;
      if (rng.bernoulli(0.5)) c.rec(i).multicast("rf-" + std::to_string(sent++));
    }
    c.world().run_for(100 * kMillisecond);
  }
  EXPECT_GT(sent, 0);
  c.world().network().heal();
  c.world().run_for(5 * kSecond);

  const obs::TraceBus& bus = c.world().trace_bus();
  EXPECT_EQ(bus.dropped(), 0u);  // the whole run fits in the ring
  EXPECT_GT(bus.size(), 0u);
  const std::vector<obs::TraceEvent> events = bus.events();
  const std::vector<obs::Violation> violations = obs::RunChecker::check(events);
  for (const obs::Violation& v : violations) ADD_FAILURE() << v.str();
  EXPECT_TRUE(violations.empty());

  // The replayed trace's verdict must agree with the engine fed live.
  EXPECT_TRUE(check_vs_properties(c));
}

}  // namespace
}  // namespace evs::test
