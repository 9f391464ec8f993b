#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/delivered_set.hpp"
#include "sim/fault.hpp"
#include "support/evs_cluster.hpp"

namespace evs::test {
namespace {

using core::EView;
using core::EViewStructure;

std::vector<SvSetId> all_svsets(const EViewStructure& s) {
  std::vector<SvSetId> ids;
  for (const auto& ss : s.svsets()) ids.push_back(ss.id);
  return ids;
}

std::vector<SubviewId> all_subviews(const EViewStructure& s) {
  std::vector<SubviewId> ids;
  for (const auto& sv : s.subviews()) ids.push_back(sv.id);
  return ids;
}

TEST(Evs, FreshGroupIsAllSingletons) {
  EvsCluster c({.sites = 4});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // New members appear as singleton subviews in singleton sv-sets
  // (Section 6.1) — so a fresh 4-view has 4 of each.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.ep(i).eview().structure.subviews().size(), 4u);
    EXPECT_EQ(c.ep(i).eview().structure.svsets().size(), 4u);
  }
  EXPECT_TRUE(c.structures_agree(c.all_indices()));
}

TEST(Evs, SvSetMergeConvergesEverywhere) {
  EvsCluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  c.ep(1).request_sv_set_merge(all_svsets(c.ep(1).eview().structure));
  ASSERT_TRUE(c.await([&]() {
    for (std::size_t i = 0; i < 3; ++i) {
      if (c.ep(i).eview().structure.svsets().size() != 1) return false;
    }
    return true;
  }));
  EXPECT_TRUE(c.structures_agree(c.all_indices()));
  // Subviews untouched by an sv-set merge.
  EXPECT_EQ(c.ep(0).eview().structure.subviews().size(), 3u);
}

TEST(Evs, SubviewMergeRequiresSharedSvSet) {
  EvsCluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // Without an sv-set merge first, subviews live in different sv-sets:
  // the merge must have no effect (Section 6.1).
  c.ep(0).request_subview_merge(all_subviews(c.ep(0).eview().structure));
  c.world().run_for(2 * kSecond);
  EXPECT_EQ(c.ep(0).eview().structure.subviews().size(), 3u);
  EXPECT_GE(c.ep(0).evs_stats().merges_rejected, 1u);
}

TEST(Evs, FullMergeSequenceReachesDegenerateView) {
  // The Figure-3 sequence: merge sv-sets, then merge subviews inside the
  // resulting sv-set, ending in the traditional-view special case.
  EvsCluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  c.ep(0).request_merge_all();  // sv-set merge
  ASSERT_TRUE(c.await(
      [&]() { return c.ep(0).eview().structure.svsets().size() == 1; }));
  c.ep(0).request_merge_all();  // subview merge
  ASSERT_TRUE(c.await([&]() { return c.ep(0).eview().degenerate(); }));
  ASSERT_TRUE(c.await([&]() { return c.structures_agree(c.all_indices()); }));
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_TRUE(c.ep(i).eview().degenerate());
}

TEST(Evs, EvChangesAreTotallyOrdered) {
  // P6.1: all members observe the same sequence of e-view changes.
  EvsCluster c({.sites = 4});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // Two concurrent merge requests from different members.
  const auto& s = c.ep(0).eview().structure;
  std::vector<SvSetId> first{s.svsets()[0].id, s.svsets()[1].id};
  std::vector<SvSetId> second{s.svsets()[2].id, s.svsets()[3].id};
  c.ep(1).request_sv_set_merge(first);
  c.ep(3).request_sv_set_merge(second);
  ASSERT_TRUE(c.await([&]() {
    for (std::size_t i = 0; i < 4; ++i) {
      if (c.ep(i).eview().ev_seq != 2) return false;
    }
    return true;
  }));
  // The per-member histories of (ev_seq -> structure) must be identical.
  std::map<std::uint64_t, std::string> reference;
  for (const auto& ev : c.rec(0).eviews()) {
    if (ev.ev_seq > 0) reference[ev.ev_seq] = ev.structure;
  }
  ASSERT_EQ(reference.size(), 2u);
  for (std::size_t i = 1; i < 4; ++i) {
    std::map<std::uint64_t, std::string> got;
    for (const auto& ev : c.rec(i).eviews()) {
      if (ev.ev_seq > 0) got[ev.ev_seq] = ev.structure;
    }
    EXPECT_EQ(got, reference) << "member " << i;
  }
}

TEST(Evs, ConsistentCutsP62) {
  // P6.2: e-view changes define consistent cuts. A message multicast
  // *after* its sender applied e-view change #k must never be delivered
  // *before* #k at any member. We drive this adversarially: the moment a
  // member sees an e-view change it fires a message, under heavy jitter.
  sim::NetworkConfig net;
  net.mean_jitter_us = 15'000.0;
  EvsCluster c({.sites = 4, .seed = 19, .net = net});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));

  for (int round = 0; round < 3; ++round) {
    const auto& s = c.ep(0).eview().structure;
    if (s.svsets().size() < 2) break;
    std::vector<SvSetId> pair{s.svsets()[0].id, s.svsets()[1].id};
    c.ep(2).request_sv_set_merge(pair);
    const std::uint64_t target = c.ep(0).eview().ev_seq + 1;
    ASSERT_TRUE(c.await([&]() {
      bool fired = false;
      for (std::size_t i = 0; i < 4; ++i) {
        if (c.ep(i).eview().ev_seq >= target) {
          // React instantly to the e-view change.
          c.rec(i).multicast("after-ev" + std::to_string(target) + "-from" +
                             std::to_string(i));
          fired = true;
        }
      }
      return fired;
    }));
    c.world().run_for(2 * kSecond);
  }

  // Check the cut: in every member's event log, a payload tagged
  // "after-evK" must appear after the EViewEvent with ev_seq == K.
  for (const auto& rec : c.all_recorders()) {
    std::uint64_t current_ev = 0;
    for (const auto& event : rec->events()) {
      if (const auto* v = std::get_if<EvsRecorder::EViewEvent>(&event)) {
        current_ev = v->ev_seq;
        continue;
      }
      const auto& d = std::get<EvsRecorder::DeliverEvent>(event);
      if (d.payload.rfind("after-ev", 0) != 0) continue;
      const std::uint64_t k = std::stoull(d.payload.substr(8));
      EXPECT_GE(current_ev, k)
          << to_string(rec->endpoint_id()) << " delivered '" << d.payload
          << "' before applying e-view change " << k;
    }
  }
}

TEST(Evs, StructurePreservedAcrossCrashP63) {
  EvsCluster c({.sites = 4});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // Collapse to a single subview, then crash one member: survivors stay
  // in one subview (ids preserved) per Property 6.3.
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await(
      [&]() { return c.ep(0).eview().structure.svsets().size() == 1; }));
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await([&]() { return c.ep(0).eview().degenerate(); }));

  c.world().crash_site(c.site(3));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  for (std::size_t i = 0; i < 3; ++i) {
    // The *grouping* is what P6.3 preserves (ids are view-scoped, since
    // subviews do not span view boundaries): the three survivors remain
    // together in a single subview.
    const auto& s = c.ep(i).eview().structure;
    ASSERT_EQ(s.subviews().size(), 1u);
    EXPECT_EQ(s.subviews()[0].members.size(), 3u);
    EXPECT_TRUE(c.ep(i).eview().degenerate());
  }
}

TEST(Evs, JoinerAppearsAsSingletonNextToMergedSubview) {
  EvsCluster c({.sites = 3, .spawn_all = false});
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await(
      [&]() { return c.ep(0).eview().structure.svsets().size() == 1; }));
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await([&]() { return c.ep(0).eview().degenerate(); }));

  c.spawn_at(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  const auto& s = c.ep(0).eview().structure;
  // Old pair still together; newcomer alone; two sv-sets.
  ASSERT_EQ(s.subviews().size(), 2u);
  ASSERT_EQ(s.svsets().size(), 2u);
  EXPECT_EQ(s.subview_of(c.world().live_process(c.site(0))),
            s.subview_of(c.world().live_process(c.site(1))));
  const auto joiner_sv =
      s.subview_of(c.world().live_process(c.site(2)));
  ASSERT_TRUE(joiner_sv.has_value());
  EXPECT_EQ(s.find_subview(*joiner_sv)->members.size(), 1u);
}

TEST(Evs, PartitionMergeKeepsClustersApart) {
  // The Figure-2 scenario: two partitions evolve independently (each
  // collapses to one subview), then merge. The new view must contain the
  // two cluster subviews, in *separate sv-sets*, so members can classify
  // the shared-state problem locally (Section 6.2).
  EvsCluster c({.sites = 5, .seed = 21});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  c.world().network().set_partition(
      {{c.site(0), c.site(1)}, {c.site(2), c.site(3), c.site(4)}});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  ASSERT_TRUE(c.await_stable_view({2, 3, 4}));

  // Each side merges its own structure down to one subview.
  auto settle_side = [&](std::size_t leader,
                         const std::vector<std::size_t>& side) {
    c.ep(leader).request_merge_all();
    ASSERT_TRUE(c.await([&]() {
      return c.ep(leader).eview().structure.svsets().size() == 1;
    }));
    c.ep(leader).request_merge_all();
    ASSERT_TRUE(c.await([&]() { return c.ep(leader).eview().degenerate(); }));
    ASSERT_TRUE(c.await([&]() { return c.structures_agree(side); }));
  };
  settle_side(0, {0, 1});
  settle_side(2, {2, 3, 4});

  c.world().network().heal();
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  const auto& s = c.ep(0).eview().structure;
  ASSERT_EQ(s.subviews().size(), 2u);
  ASSERT_EQ(s.svsets().size(), 2u);
  EXPECT_TRUE(c.structures_agree(c.all_indices()));
  // Cluster membership exactly matches the old partitions.
  const auto sv_a = s.subview_of(c.world().live_process(c.site(0)));
  const auto sv_b = s.subview_of(c.world().live_process(c.site(2)));
  ASSERT_TRUE(sv_a && sv_b);
  EXPECT_NE(*sv_a, *sv_b);
  EXPECT_EQ(s.find_subview(*sv_a)->members.size(), 2u);
  EXPECT_EQ(s.find_subview(*sv_b)->members.size(), 3u);
}

TEST(Evs, AppMulticastIsTotallyOrderedAcrossSenders) {
  sim::NetworkConfig net;
  net.mean_jitter_us = 10'000.0;
  EvsCluster c({.sites = 4, .seed = 23, .net = net});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  for (int r = 0; r < 15; ++r) {
    for (std::size_t i = 0; i < 4; ++i)
      c.rec(i).multicast("x" + std::to_string(i) + "-" + std::to_string(r));
    c.world().run_for(4 * kMillisecond);
  }
  c.world().run_for(5 * kSecond);
  std::vector<std::string> reference;
  for (const auto& d : c.rec(0).deliveries()) reference.push_back(d.payload);
  ASSERT_EQ(reference.size(), 60u);
  for (std::size_t i = 1; i < 4; ++i) {
    std::vector<std::string> got;
    for (const auto& d : c.rec(i).deliveries()) got.push_back(d.payload);
    EXPECT_EQ(got, reference) << "member " << i;
  }
}

TEST(Evs, AppTrafficSurvivesViewChange) {
  EvsCluster c({.sites = 3, .seed = 29});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // Send while a crash-triggered view change is racing.
  for (int n = 0; n < 20; ++n) c.rec(0).multicast("pre-" + std::to_string(n));
  c.world().crash_site(c.site(2));
  for (int n = 0; n < 20; ++n) c.rec(0).multicast("mid-" + std::to_string(n));
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.world().run_for(5 * kSecond);
  // Sender survives; both survivors must deliver all 40 exactly once.
  for (std::size_t i : {std::size_t{0}, std::size_t{1}}) {
    std::multiset<std::string> got;
    for (const auto& d : c.rec(i).deliveries()) got.insert(d.payload);
    EXPECT_EQ(got.size(), 40u) << "member " << i;
    std::set<std::string> uniq(got.begin(), got.end());
    EXPECT_EQ(uniq.size(), got.size()) << "duplicate delivery at member " << i;
  }
}

TEST(Evs, SequencerCrashDrainsForwardedAppMessages) {
  EvsCluster c({.sites = 3, .seed = 6});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  ASSERT_EQ(c.ep(0).view().primary(), c.ep(0).id());
  // A non-sequencer's forwards are in flight when the sequencer dies, so
  // none is ever stamped: the view change must drain them, in the same
  // (origin, lseq) order at both survivors.
  for (int r = 0; r < 10; ++r) c.rec(1).multicast("s" + std::to_string(r));
  c.world().crash_site(c.site(0));
  ASSERT_TRUE(c.await_stable_view({1, 2}));
  c.world().run_for(5 * kSecond);
  std::vector<std::string> a;
  std::vector<std::string> b;
  for (const auto& d : c.rec(1).deliveries()) a.push_back(d.payload);
  for (const auto& d : c.rec(2).deliveries()) b.push_back(d.payload);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(c.ep(1).evs_stats().drained_at_view, 10u);
  EXPECT_EQ(c.ep(2).evs_stats().drained_at_view, 10u);
}

TEST(Evs, AppReplyNeverOvertakesItsCause) {
  // Node 1 answers each of node 0's pings the moment it delivers it; under
  // heavy jitter no member may deliver a pong before its ping.
  sim::NetworkConfig net;
  net.mean_jitter_us = 20'000.0;
  EvsCluster c({.sites = 4, .seed = 4, .net = net});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  const auto delivered_at = [&](std::size_t i, const std::string& payload) {
    const auto ds = c.rec(i).deliveries();
    for (std::size_t k = 0; k < ds.size(); ++k)
      if (ds[k].payload == payload) return static_cast<int>(k);
    return -1;
  };
  for (int r = 0; r < 10; ++r) {
    const std::string ping = "ping-" + std::to_string(r);
    const std::string pong = "pong-" + std::to_string(r);
    c.rec(0).multicast(ping);
    bool replied = false;
    ASSERT_TRUE(c.await(
        [&]() {
          if (!replied && delivered_at(1, ping) >= 0) {
            c.rec(1).multicast(pong);
            replied = true;
          }
          for (std::size_t i = 0; i < 4; ++i)
            if (delivered_at(i, pong) < 0) return false;
          return true;
        },
        10 * kSecond, 1 * kMillisecond));
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_LT(delivered_at(i, ping), delivered_at(i, pong))
          << "member " << i << " round " << r;
  }
}

TEST(Evs, MergeRequestedDuringViewChangeIsReissued) {
  EvsCluster c({.sites = 3, .seed = 31});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // Start a view change (crash), then immediately request a merge on a
  // frozen member; the request must be re-issued in the new view with
  // whatever ids still exist (here: all three sv-sets shrink to two).
  c.world().crash_site(c.site(2));
  // Find a frozen moment.
  ASSERT_TRUE(c.await([&]() { return c.ep(0).blocked(); }, 10 * kSecond,
                      1 * kMillisecond));
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  c.world().run_for(5 * kSecond);
  // The queued merge-all used stale (3-wide) ids; it is allowed to be
  // rejected. But the endpoint must not wedge: a fresh merge-all works.
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await(
      [&]() { return c.ep(0).eview().structure.svsets().size() == 1; }));
}

TEST(Evs, StructureNeverGrowsWithoutApplicationAction) {
  // Subviews/sv-sets only merge under application control: a view change
  // alone (join) must never combine existing subviews.
  EvsCluster c({.sites = 4, .spawn_all = false});
  c.spawn_at(c.site(0));
  c.spawn_at(c.site(1));
  c.spawn_at(c.site(2));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  const std::size_t before = c.ep(0).eview().structure.subviews().size();
  EXPECT_EQ(before, 3u);
  c.spawn_at(c.site(3));
  ASSERT_TRUE(c.await_stable_view({0, 1, 2, 3}));
  EXPECT_EQ(c.ep(0).eview().structure.subviews().size(), 4u);
  EXPECT_EQ(c.ep(0).eview().structure.svsets().size(), 4u);
}

TEST(Evs, EvSeqResetsPerView) {
  EvsCluster c({.sites = 2});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await([&]() { return c.ep(0).eview().ev_seq == 1; }));
  c.world().crash_site(c.site(1));
  ASSERT_TRUE(c.await_stable_view({0}));
  EXPECT_EQ(c.ep(0).eview().ev_seq, 0u);
}

TEST(Evs, ContextBytesAccountedInStats) {
  EvsCluster c({.sites = 3});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  EXPECT_GT(c.ep(0).evs_stats().context_bytes, 0u);
}

// Property test: random crashes/partitions with periodic merge attempts;
// structures must stay valid partitions and agree within every stable view.
class EvsRandomFaults : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvsRandomFaults, StructuresStayValidAndConsistent) {
  const std::uint64_t seed = GetParam();
  EvsCluster c({.sites = 4, .seed = seed});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));

  sim::Rng rng(seed * 7919);
  sim::FaultProfile profile;
  profile.mean_interval = 1 * kSecond;
  const SimTime horizon = c.world().scheduler().now() + 8 * kSecond;
  auto plan = sim::random_fault_plan(rng, c.sites(), horizon, profile);
  plan.arm(c.world());

  while (c.world().scheduler().now() < horizon) {
    // Whoever is alive keeps merging and chatting.
    for (std::size_t i = 0; i < 4; ++i) {
      if (!c.world().site_alive(c.site(i))) continue;
      c.rec(i).multicast("t" + std::to_string(i));
      if (rng.bernoulli(0.3)) c.ep(i).request_merge_all();
      // Structures are validated on every application inside the endpoint;
      // this re-checks from the outside.
      c.ep(i).eview().structure.validate(c.ep(i).eview().view.members);
    }
    c.world().run_for(200 * kMillisecond);
  }
  c.world().network().heal();
  ASSERT_TRUE(c.await([&]() {
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < 4; ++i)
      if (c.world().site_alive(c.site(i))) alive.push_back(i);
    if (alive.empty()) return false;
    return c.stable_view_among(alive) && c.structures_agree(alive);
  }));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvsRandomFaults,
                         ::testing::Range<std::uint64_t>(1, 11));

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
}  // namespace evs::test
