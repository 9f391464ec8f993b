// Sharded-log semantics over the simulated world: position assignment,
// the global interleaving, coordinator-only writes, seal fencing, fill /
// trim, majority-only serving and post-heal state adoption — one shard
// (= one view-synchronous group) at a time; the multi-shard composition
// is exercised end-to-end by the loopback ctest (log_loopback_test.cpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "log/log_shard.hpp"
#include "support/object_cluster.hpp"

namespace evs::test {
namespace {

using log::LogShard;
using log::LogShardConfig;
using runtime::SvcOp;
using runtime::SvcRequest;
using runtime::SvcResponse;
using runtime::SvcStatus;

LogShardConfig shard_config(const std::vector<SiteId>& universe,
                            std::uint32_t index = 0,
                            std::uint32_t count = 1) {
  LogShardConfig cfg;
  cfg.object.endpoint.universe = universe;
  cfg.shard_index = index;
  cfg.shard_count = count;
  return cfg;
}

/// One svc response slot; svc_request promises exactly one completion.
struct Captured {
  bool done = false;
  SvcResponse resp;
};

runtime::SvcRespondFn capture(Captured& c) {
  return [&c](SvcResponse r) {
    EXPECT_FALSE(c.done);  // exactly-once
    c.resp = std::move(r);
    c.done = true;
  };
}

SvcRequest make_req(SvcOp op, std::string key = {}, std::string value = {}) {
  SvcRequest req;
  req.op = op;
  req.key = std::move(key);
  req.value = std::move(value);
  return req;
}

using Cluster = ObjectCluster<LogShard, LogShardConfig>;

/// Index whose live process is the installed view's coordinator.
std::size_t coordinator_index(Cluster& c,
                              const std::vector<std::size_t>& indices) {
  const ProcessId coord = c.obj(indices.front()).view().id.coordinator;
  for (const std::size_t i : indices) {
    if (c.world().live_process(c.site(i)) == coord) return i;
  }
  ADD_FAILURE() << "coordinator not among live members";
  return indices.front();
}

/// Appends through the shard's svc surface and waits for the ordered
/// completion; returns the response.
SvcResponse append(Cluster& c, std::size_t at, const std::string& record) {
  Captured cap;
  c.obj(at).svc_request(make_req(SvcOp::LogAppend, "k", record),
                        capture(cap));
  EXPECT_TRUE(c.await([&]() { return cap.done; }));
  return cap.resp;
}

SvcResponse read(Cluster& c, std::size_t at, std::uint64_t global) {
  Captured cap;
  c.obj(at).svc_request(
      make_req(SvcOp::LogRead, std::to_string(global)), capture(cap));
  EXPECT_TRUE(cap.done);  // reads answer synchronously
  return cap.resp;
}

TEST(LogShard, AppendsAssignDenseGlobalPositions) {
  Cluster c(3, 1, [](const auto& u) { return shard_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  const std::size_t coord = coordinator_index(c, c.all_indices());

  for (int i = 0; i < 5; ++i) {
    const SvcResponse resp = append(c, coord, "r" + std::to_string(i));
    ASSERT_EQ(resp.status, SvcStatus::Ok);
    // G=1: global position == local position, assigned densely in order.
    EXPECT_EQ(resp.value, std::to_string(i));
  }
  ASSERT_TRUE(c.await([&]() {
    for (const std::size_t i : c.all_indices())
      if (c.obj(i).records() != 5) return false;
    return true;
  }));
  // Every replica agrees on tail and contents; reads serve anywhere.
  for (const std::size_t i : c.all_indices()) {
    EXPECT_EQ(c.obj(i).global_tail(), 5u);
    for (int p = 0; p < 5; ++p)
      EXPECT_EQ(read(c, i, p).value, "Dr" + std::to_string(p));
  }
  // Beyond the tail: not yet assigned — retry, not junk.
  EXPECT_EQ(read(c, coord, 5).status, SvcStatus::Conflict);
}

TEST(LogShard, GlobalPositionsInterleaveByShardIndex) {
  // Shard 1 of G=4 owns the residue class {1, 5, 9, ...}.
  Cluster c(3, 2, [](const auto& u) { return shard_config(u, 1, 4); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  const std::size_t coord = coordinator_index(c, c.all_indices());

  EXPECT_EQ(c.obj(coord).global_tail(), 1u);  // empty shard: next is 0*4+1
  for (int i = 0; i < 3; ++i) {
    const SvcResponse resp = append(c, coord, "x");
    ASSERT_EQ(resp.status, SvcStatus::Ok);
    EXPECT_EQ(resp.value, std::to_string(i * 4 + 1));
  }
  EXPECT_EQ(c.obj(coord).global_tail(), 3u * 4 + 1);
  // A position of another shard's residue class is misrouted here.
  EXPECT_EQ(read(c, coord, 2).status, SvcStatus::Unsupported);
}

TEST(LogShard, WritesRedirectToCoordinatorReadsServeAnywhere) {
  Cluster c(3, 3, [](const auto& u) { return shard_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  const std::size_t coord = coordinator_index(c, c.all_indices());
  const std::size_t follower = (coord + 1) % 3;

  // Typed redirect: the follower names the coordinator's site.
  Captured cap;
  c.obj(follower).svc_request(make_req(SvcOp::LogAppend, "k", "v"),
                              capture(cap));
  ASSERT_TRUE(cap.done);
  EXPECT_EQ(cap.resp.status, SvcStatus::NotLeader);
  EXPECT_EQ(cap.resp.coordinator_site,
            c.obj(follower).view().id.coordinator.site.value);

  ASSERT_EQ(append(c, coord, "v").status, SvcStatus::Ok);
  ASSERT_TRUE(c.await([&]() { return c.obj(follower).records() == 1; }));
  EXPECT_EQ(read(c, follower, 0).value, "Dv");
}

TEST(LogShard, SealFencesAppendsUntilViewChange) {
  Cluster c(3, 4, [](const auto& u) { return shard_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  std::size_t coord = coordinator_index(c, c.all_indices());
  ASSERT_EQ(append(c, coord, "before").status, SvcStatus::Ok);

  // Seal at the installed epoch: the CORFU fence.
  const std::uint64_t epoch = c.obj(coord).view_epoch();
  Captured seal;
  c.obj(coord).svc_request(
      make_req(SvcOp::LogSeal, std::to_string(epoch)), capture(seal));
  ASSERT_TRUE(c.await([&]() { return seal.done; }));
  ASSERT_EQ(seal.resp.status, SvcStatus::Ok);
  ASSERT_TRUE(c.await([&]() {
    for (const std::size_t i : c.all_indices())
      if (!c.obj(i).sealed()) return false;
    return true;
  }));

  // Sealed: appends bounce with the epoch-fence outcome; reads still work.
  Captured fenced;
  c.obj(coord).svc_request(make_req(SvcOp::LogAppend, "k", "during"),
                           capture(fenced));
  ASSERT_TRUE(fenced.done);
  EXPECT_EQ(fenced.resp.status, SvcStatus::InvalidEpoch);
  EXPECT_EQ(read(c, coord, 0).value, "Dbefore");

  // A view change outruns the seal and re-opens the shard.
  const std::size_t victim = (coord + 1) % 3;
  c.world().crash_site(c.site(victim));
  const std::vector<std::size_t> rest = {coord, (coord + 2) % 3};
  ASSERT_TRUE(c.await_all_normal(rest));
  ASSERT_TRUE(c.await([&]() { return !c.obj(coord).sealed(); }));
  coord = coordinator_index(c, rest);
  const SvcResponse after = append(c, coord, "after");
  ASSERT_EQ(after.status, SvcStatus::Ok);
  EXPECT_EQ(after.value, "1");
}

TEST(LogShard, FillPlugsHolesAndTrimDiscardsPrefix) {
  Cluster c(3, 5, [](const auto& u) { return shard_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  const std::size_t coord = coordinator_index(c, c.all_indices());
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(append(c, coord, "r" + std::to_string(i)).status,
              SvcStatus::Ok);

  // Fill position 5: everything up to it becomes junk, the tail advances
  // past it — in-order global readers are unblocked.
  Captured fill;
  c.obj(coord).svc_request(make_req(SvcOp::LogFill, "5"), capture(fill));
  ASSERT_TRUE(c.await([&]() { return fill.done; }));
  ASSERT_EQ(fill.resp.status, SvcStatus::Ok);
  EXPECT_EQ(c.obj(coord).global_tail(), 6u);
  EXPECT_EQ(read(c, coord, 4).value, "F");
  EXPECT_EQ(read(c, coord, 5).value, "F");
  EXPECT_EQ(read(c, coord, 2).value, "Dr2");

  // Filling an already-written position is a no-op, not an overwrite.
  Captured refill;
  c.obj(coord).svc_request(make_req(SvcOp::LogFill, "1"), capture(refill));
  ASSERT_TRUE(c.await([&]() { return refill.done; }));
  EXPECT_EQ(read(c, coord, 1).value, "Dr1");

  // Trim discards the prefix below position 2.
  Captured trim;
  c.obj(coord).svc_request(make_req(SvcOp::LogTrim, "2"), capture(trim));
  ASSERT_TRUE(c.await([&]() { return trim.done; }));
  ASSERT_EQ(trim.resp.status, SvcStatus::Ok);
  EXPECT_EQ(read(c, coord, 0).value, "T");
  EXPECT_EQ(read(c, coord, 1).value, "T");
  EXPECT_EQ(read(c, coord, 2).value, "Dr2");
}

TEST(LogShard, FillFarPastTheTailIsRefused) {
  // A fill mints a junk record for every position it skips: one reaching
  // far past the tail would grow every replica by that much (a position
  // near 2^64 would never finish).
  Cluster c(3, 6, [](const auto& u) { return shard_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  const std::size_t coord = coordinator_index(c, c.all_indices());
  ASSERT_EQ(append(c, coord, "r0").status, SvcStatus::Ok);

  // Refused at admission, past kMaxFillAhead beyond the tail (1).
  for (const std::uint64_t pos :
       {LogShard::kMaxFillAhead + 2, std::uint64_t{3'000'000},
        ~std::uint64_t{0}}) {
    Captured fill;
    c.obj(coord).svc_request(make_req(SvcOp::LogFill, std::to_string(pos)),
                             capture(fill));
    ASSERT_TRUE(c.await([&]() { return fill.done; }));
    ASSERT_EQ(fill.resp.status, SvcStatus::Unsupported) << pos;
  }

  // The same fill ordered around admission (a raw object frame: kind
  // Object, op seq 0, untraced, then the Fill op) is ignored and counted
  // on every replica alike.
  Encoder op;
  op.put_u8(4);  // OpKind::Fill
  op.put_varint(3'000'000);
  Encoder frame;
  frame.put_u8(1);  // FrameKind::Object
  frame.put_varint(0);
  frame.put_varint(0);
  frame.put_bytes(std::move(op).take());
  c.obj(coord).app_multicast(std::move(frame).take());
  ASSERT_TRUE(c.await([&]() {
    for (const std::size_t i : c.all_indices())
      if (c.obj(i).fills_refused() != 1) return false;
    return true;
  }));
  for (const std::size_t i : c.all_indices()) {
    EXPECT_EQ(c.obj(i).records(), 1u);
    EXPECT_EQ(c.obj(i).global_tail(), 1u);
  }

  // A fill at the edge of reach still plugs the holes before it.
  Captured edge;
  c.obj(coord).svc_request(
      make_req(SvcOp::LogFill, std::to_string(LogShard::kMaxFillAhead + 1)),
      capture(edge));
  ASSERT_TRUE(c.await([&]() { return edge.done; }));
  ASSERT_EQ(edge.resp.status, SvcStatus::Ok);
  EXPECT_EQ(c.obj(coord).global_tail(), LogShard::kMaxFillAhead + 2);
  EXPECT_EQ(read(c, coord, LogShard::kMaxFillAhead + 1).value, "F");
}

TEST(LogShard, WritePathMemoryGaugesMatchWhatIsHeld) {
  Cluster c(3, 8, [](const auto& u) { return shard_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  const std::size_t coord = coordinator_index(c, c.all_indices());
  constexpr double kChunk = log::RecordArena::kChunkBytes;

  auto gauge = [&](std::size_t i, const std::string& name) {
    obs::MetricsRegistry registry;
    c.obj(i).export_metrics(registry, "g");
    return registry.gauge("g." + name).value();
  };
  auto unstable_bytes = [&](std::size_t i) {
    double n = 0;
    for (const gms::FlushedMessage& fm : c.obj(i).unstable())
      n += static_cast<double>(fm.payload.size());
    return n;
  };
  // Record bytes as LogRead serves them ("D" + record), trimmed ones none.
  auto record_bytes_read = [&](std::size_t i) {
    double n = 0;
    for (std::uint64_t p = c.obj(i).trim_floor(); p < c.obj(i).global_tail(); ++p)
      n += static_cast<double>(read(c, i, p).value.size() - 1);
    return n;
  };
  auto check = [&](const char* when) {
    for (const std::size_t i : c.all_indices()) {
      EXPECT_EQ(gauge(i, "buffered_bytes"), unstable_bytes(i)) << when;
      const double held = record_bytes_read(i);
      const double arena = gauge(i, "log.record_bytes");
      // Whole chunks: never less than the records, and at most the
      // unused tails of the first and last chunk more (records here are
      // small enough not to strand much else).
      EXPECT_GE(arena, held) << when;
      EXPECT_LT(arena, held + 2 * kChunk) << when;
    }
  };

  for (int n = 0; n < 300; ++n)
    ASSERT_EQ(append(c, coord, std::string(40 + n % 50, 'a')).status,
              SvcStatus::Ok);
  // Bigger than a chunk: gets a chunk of its own size.
  ASSERT_EQ(append(c, coord, std::string(70000, 'z')).status, SvcStatus::Ok);
  ASSERT_TRUE(c.await([&]() {
    for (const std::size_t i : c.all_indices())
      if (c.obj(i).records() != 301) return false;
    return true;
  }));
  EXPECT_GT(unstable_bytes(coord), 0.0);  // the gossip has not caught up
  check("after appends");
  EXPECT_GT(gauge(coord, "log.record_bytes"), 70000.0);

  // Stability gossip empties the flush buffer; the records stay.
  ASSERT_TRUE(c.await([&]() {
    for (const std::size_t i : c.all_indices())
      if (gauge(i, "buffered_bytes") != 0) return false;
    return true;
  }));
  check("after stability");

  // Trimming everything frees every chunk.
  Captured trim;
  c.obj(coord).svc_request(make_req(SvcOp::LogTrim, "301"), capture(trim));
  ASSERT_TRUE(c.await([&]() { return trim.done; }));
  ASSERT_TRUE(c.await([&]() {
    for (const std::size_t i : c.all_indices())
      if (c.obj(i).records() != 0) return false;
    return true;
  }));
  check("after trim");
  for (const std::size_t i : c.all_indices())
    EXPECT_EQ(gauge(i, "log.record_bytes"), 0.0);
}

TEST(LogShard, MinorityPartitionRefusesServiceAndHealsClean) {
  Cluster c(3, 6, [](const auto& u) { return shard_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  std::size_t coord = coordinator_index(c, c.all_indices());

  // Isolate one non-coordinator member; the pair keeps the majority.
  const std::size_t minority = (coord + 1) % 3;
  const std::size_t other = (coord + 2) % 3;
  c.world().network().set_partition(
      {{c.site(coord), c.site(other)}, {c.site(minority)}});
  const std::vector<std::size_t> pair = {coord, other};
  ASSERT_TRUE(c.await_all_normal(pair));
  ASSERT_TRUE(c.await([&]() { return !c.obj(minority).serving_normal(); }));

  // The minority cannot fork the log: no appends, only Unavailable.
  Captured shut;
  c.obj(minority).svc_request(make_req(SvcOp::LogAppend, "k", "forked"),
                              capture(shut));
  ASSERT_TRUE(shut.done);
  EXPECT_EQ(shut.resp.status, SvcStatus::Unavailable);

  // The majority keeps appending.
  coord = coordinator_index(c, pair);
  ASSERT_EQ(append(c, coord, "maj0").status, SvcStatus::Ok);
  ASSERT_EQ(append(c, coord, "maj1").status, SvcStatus::Ok);

  // Heal: the rejoining member adopts the majority's prefix.
  c.world().network().heal();
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.await([&]() { return c.obj(minority).records() == 2; }));
  EXPECT_EQ(read(c, minority, 0).value, "Dmaj0");
  EXPECT_EQ(read(c, minority, 1).value, "Dmaj1");
}

TEST(LogShard, RestartedMemberCatchesUpByStateTransfer) {
  Cluster c(3, 7, [](const auto& u) { return shard_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  std::size_t coord = coordinator_index(c, c.all_indices());

  const std::size_t victim = (coord + 1) % 3;
  c.world().crash_site(c.site(victim));
  const std::vector<std::size_t> rest = {coord, (coord + 2) % 3};
  ASSERT_TRUE(c.await_all_normal(rest));
  coord = coordinator_index(c, rest);
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(append(c, coord, "r" + std::to_string(i)).status,
              SvcStatus::Ok);

  // The restarted incarnation must arrive with the full prefix.
  c.spawn_at(c.site(victim));
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  ASSERT_TRUE(c.await([&]() { return c.obj(victim).records() == 4; }));
  EXPECT_EQ(c.obj(victim).global_tail(), 4u);
  for (int p = 0; p < 4; ++p)
    EXPECT_EQ(read(c, victim, p).value, "Dr" + std::to_string(p));
}

}  // namespace
}  // namespace evs::test
