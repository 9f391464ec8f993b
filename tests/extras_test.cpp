// Additional coverage: graceful leave under load, the Isis-style
// admission policy under the property oracles, codec round-trip
// properties over random data, and endpoint statistics plumbing.
#include <gtest/gtest.h>

#include "sim/fault.hpp"
#include "support/cluster.hpp"
#include "support/evs_cluster.hpp"
#include "support/oracle.hpp"

namespace evs::test {
namespace {

TEST(Extras, LeaveDuringTrafficPreservesProperties) {
  Cluster c({.sites = 4, .seed = 71});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  for (int n = 0; n < 20; ++n) {
    c.rec(0).multicast("a" + std::to_string(n));
    c.rec(3).multicast("b" + std::to_string(n));
  }
  c.ep(3).leave();  // graceful departure mid-stream
  ASSERT_TRUE(c.await_stable_view({0, 1, 2}));
  c.world().run_for(3 * kSecond);
  EXPECT_TRUE(check_vs_properties(c));
  // Survivors saw all of the survivor's messages.
  std::set<std::string> got;
  for (const auto& d : c.rec(1).deliveries()) got.insert(d.payload);
  for (int n = 0; n < 20; ++n)
    EXPECT_TRUE(got.contains("a" + std::to_string(n)));
}

// The Isis-style one-at-a-time policy must still satisfy the view
// synchrony properties — it only changes *how fast* views grow.
class OneAtATimeFaults : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OneAtATimeFaults, PropertiesHoldUnderThePolicy) {
  ClusterOptions opt{.sites = 4, .seed = GetParam()};
  opt.endpoint.policy = gms::JoinPolicy::OneAtATime;
  Cluster c(opt);
  ASSERT_TRUE(c.await_stable_view(c.all_indices(), 120 * kSecond));

  sim::Rng rng(GetParam() * 887);
  sim::FaultProfile profile;
  profile.mean_interval = 1 * kSecond;
  const SimTime horizon = c.world().scheduler().now() + 6 * kSecond;
  auto plan = sim::random_fault_plan(rng, c.sites(), horizon, profile);
  plan.arm(c.world());
  int n = 0;
  while (c.world().scheduler().now() < horizon) {
    for (std::size_t i = 0; i < 4; ++i) {
      if (c.world().site_alive(c.site(i)))
        c.rec(i).multicast("m" + std::to_string(i) + "-" + std::to_string(n));
    }
    ++n;
    c.world().run_for(200 * kMillisecond);
  }
  c.world().network().heal();
  c.world().run_for(10 * kSecond);
  EXPECT_TRUE(check_vs_properties(c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneAtATimeFaults,
                         ::testing::Range<std::uint64_t>(500, 506));

// Codec property: arbitrary byte strings and value tuples survive a
// round trip exactly, across random lengths and magnitudes.
class CodecRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecRoundTrip, RandomValuesSurvive) {
  sim::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t v64 = rng.next();
    const std::uint32_t v32 = static_cast<std::uint32_t>(rng.next());
    Bytes blob(rng.uniform(300));
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform(256));
    std::string text(rng.uniform(100), 'x');
    for (auto& ch : text) ch = static_cast<char>(rng.uniform_range(32, 126));

    Encoder enc;
    enc.put_varint(v64);
    enc.put_u32(v32);
    enc.put_bytes(blob);
    enc.put_string(text);
    enc.put_u64(v64);

    Decoder dec(enc.buffer());
    EXPECT_EQ(dec.get_varint(), v64);
    EXPECT_EQ(dec.get_u32(), v32);
    EXPECT_EQ(dec.get_bytes(), blob);
    EXPECT_EQ(dec.get_string(), text);
    EXPECT_EQ(dec.get_u64(), v64);
    EXPECT_NO_THROW(dec.expect_end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip,
                         ::testing::Values(1u, 2u, 3u));

// Decoding random garbage must either produce a value or throw
// DecodeError — never crash or read out of bounds.
TEST(Extras, DecoderNeverCrashesOnGarbage) {
  sim::Rng rng(424242);
  for (int round = 0; round < 500; ++round) {
    Bytes garbage(rng.uniform(64));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.uniform(256));
    Decoder dec(garbage);
    try {
      switch (rng.uniform(6)) {
        case 0: (void)dec.get_varint(); break;
        case 1: (void)dec.get_string(); break;
        case 2: (void)dec.get_bytes(); break;
        case 3: (void)gms::Propose::decode(dec); break;
        case 4: (void)gms::Install::decode(dec); break;
        case 5: (void)core::EViewStructure::decode(dec); break;
      }
    } catch (const DecodeError&) {
      // expected for most garbage
    }
  }
  SUCCEED();
}

TEST(Extras, EndpointStatsArePlumbing) {
  Cluster c({.sites = 3, .seed = 72});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  for (int n = 0; n < 10; ++n) c.rec(0).multicast("s" + std::to_string(n));
  c.world().run_for(2 * kSecond);
  const auto& stats = c.ep(0).stats();
  EXPECT_GE(stats.views_installed, 2u);       // singleton + merged
  EXPECT_GE(stats.rounds_completed, 1u);
  EXPECT_EQ(stats.data_multicast, 10u);
  EXPECT_GE(stats.data_delivered, 10u);
  // The coordinator self-acks without serialising; a non-coordinator
  // member's ACK does hit the wire.
  EXPECT_GT(c.ep(1).stats().ack_bytes, 0u);
  EXPECT_GT(c.world().network().stats().bytes_delivered, 0u);
}

TEST(Extras, EvsStatsCountMergesAndRejections) {
  EvsCluster c({.sites = 3, .seed = 73});
  ASSERT_TRUE(c.await_stable_view(c.all_indices()));
  // One valid sv-set merge...
  c.ep(0).request_merge_all();
  ASSERT_TRUE(c.await(
      [&]() { return c.ep(0).eview().structure.svsets().size() == 1; }));
  // ...then a stale request referencing ids that no longer exist.
  c.ep(0).request_sv_set_merge(
      {SvSetId{c.ep(1).id(), 0}, SvSetId{c.ep(2).id(), 0}});
  c.world().run_for(2 * kSecond);
  EXPECT_GE(c.ep(0).evs_stats().merges_requested, 2u);
  EXPECT_GE(c.ep(0).evs_stats().ev_changes_applied, 1u);
  EXPECT_GE(c.ep(0).evs_stats().merges_rejected, 1u);
}

TEST(Extras, SchedulerEventBudgetGuardsLivelock) {
  sim::Scheduler sched;
  // A self-perpetuating zero-delay event chain must trip the budget
  // rather than hang.
  std::function<void()> spin = [&]() { sched.schedule_after(0, spin); };
  sched.schedule_after(0, spin);
  EXPECT_THROW(sched.run(10'000), InvariantViolation);
}

}  // namespace
}  // namespace evs::test
