// Malformed-frame corpus: every decode path must turn hostile bytes into
// a clean DecodeError — never UB, never a crash, never corrupted protocol
// state. The CI ASan/UBSan job runs this same corpus, so an out-of-bounds
// read in any decoder fails loudly there.
//
// Three attack shapes, all deterministic (seeded):
//   - truncation: every strict prefix of a valid frame,
//   - bit flips: 1..8 random flipped bits in a valid frame,
//   - garbage: uniformly random buffers.
// Each shape runs through the raw gms decode switch, the net datagram
// header parser, and a live vsync endpoint (which must count the frame as
// discarded and keep its view intact).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "codec/codec.hpp"
#include "gms/wire.hpp"
#include "log/log_shard.hpp"
#include "net/datagram.hpp"
#include "objects/parallel_db.hpp"
#include "support/cluster.hpp"
#include "svc/protocol.hpp"

namespace evs::test {
namespace {

ProcessId pid(std::uint32_t site, std::uint32_t inc = 1) {
  return ProcessId{SiteId{site}, inc};
}

gms::View sample_view() {
  gms::View view;
  view.id = ViewId{7, pid(1)};
  view.members = {pid(1), pid(2), pid(3)};
  return view;
}

std::vector<gms::FlushedMessage> sample_unstable() {
  return {
      {pid(2), 11, Bytes{0xde, 0xad}},
      {pid(3), 12, Bytes{}},
  };
}

Bytes membership_frame(gms::MembershipKind kind, const auto& msg) {
  Encoder body;
  body.put_u8(static_cast<std::uint8_t>(kind));
  msg.encode(body);
  return gms::frame(gms::Channel::Membership, std::move(body));
}

/// One valid frame per channel / membership kind — the corpus seeds.
std::vector<Bytes> corpus() {
  std::vector<Bytes> frames;
  frames.push_back(gms::frame(gms::Channel::Heartbeat, Encoder{}));
  frames.push_back(gms::frame(gms::Channel::Leave, Encoder{}));

  gms::Propose propose;
  propose.round = gms::RoundId{9, pid(1)};
  propose.members = {pid(1), pid(2), pid(3)};
  frames.push_back(membership_frame(gms::MembershipKind::Propose, propose));

  gms::Ack ack;
  ack.round = gms::RoundId{9, pid(1)};
  ack.prior_view = ViewId{6, pid(2)};
  ack.max_number_seen = 8;
  ack.unstable = sample_unstable();
  ack.context = Bytes{1, 2, 3, 4};
  frames.push_back(membership_frame(gms::MembershipKind::Ack, ack));

  gms::Install install;
  install.round = gms::RoundId{9, pid(1)};
  install.view = sample_view();
  install.contexts = {{pid(2), ViewId{6, pid(2)}, Bytes{5, 6}}};
  install.unions = {{ViewId{6, pid(2)}, sample_unstable()}};
  frames.push_back(membership_frame(gms::MembershipKind::Install, install));

  gms::Nack nack;
  nack.round = gms::RoundId{9, pid(1)};
  nack.max_number_seen = 31;
  frames.push_back(membership_frame(gms::MembershipKind::Nack, nack));

  gms::DataMsg data;
  data.view = ViewId{7, pid(1)};
  data.seq = 42;
  data.payload = Bytes{'h', 'i'};
  Encoder data_body;
  data.encode(data_body);
  frames.push_back(gms::frame(gms::Channel::Data, std::move(data_body)));

  gms::StabilityMsg stab;
  stab.view = ViewId{7, pid(1)};
  stab.delivered_upto = {4, 0, 9};
  Encoder stab_body;
  stab.encode(stab_body);
  frames.push_back(gms::frame(gms::Channel::Stability, std::move(stab_body)));

  return frames;
}

/// Full decode through the same dispatch the endpoint uses. Returns true
/// when the bytes parsed as a complete frame; throws only DecodeError.
bool decode_frame(const Bytes& bytes) {
  Decoder dec(bytes);
  switch (gms::peek_channel(dec)) {
    case gms::Channel::Heartbeat:
    case gms::Channel::Leave:
      break;
    case gms::Channel::Membership:
      switch (static_cast<gms::MembershipKind>(dec.get_u8())) {
        case gms::MembershipKind::Propose:
          gms::Propose::decode(dec);
          break;
        case gms::MembershipKind::Ack:
          gms::Ack::decode(dec);
          break;
        case gms::MembershipKind::Install:
          gms::Install::decode(dec);
          break;
        case gms::MembershipKind::Nack:
          gms::Nack::decode(dec);
          break;
        default:
          throw DecodeError("unknown membership kind");
      }
      break;
    case gms::Channel::Data:
      gms::DataMsg::decode(dec);
      break;
    case gms::Channel::Stability:
      gms::StabilityMsg::decode(dec);
      break;
  }
  return true;
}

/// The property under test: hostile bytes either parse or raise
/// DecodeError. Anything else (other exception, sanitizer abort) fails.
void expect_clean_decode(const Bytes& bytes) {
  try {
    decode_frame(bytes);
  } catch (const DecodeError&) {
    // Expected for malformed input.
  }
}

TEST(MalformedFrame, CorpusSeedsAreValid) {
  for (const Bytes& frame : corpus()) EXPECT_TRUE(decode_frame(frame));
}

TEST(MalformedFrame, EveryTruncationDecodesCleanly) {
  for (const Bytes& frame : corpus()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const Bytes prefix(frame.begin(), frame.begin() + len);
      expect_clean_decode(prefix);
    }
  }
}

TEST(MalformedFrame, BitFlipsDecodeCleanly) {
  std::mt19937_64 rng(0xE55ULL ^ 0xC0FFEE);
  for (const Bytes& frame : corpus()) {
    if (frame.size() < 2) continue;
    for (int round = 0; round < 400; ++round) {
      Bytes mutated = frame;
      std::uniform_int_distribution<int> flips(1, 8);
      const int n = flips(rng);
      for (int i = 0; i < n; ++i) {
        std::uniform_int_distribution<std::size_t> pos(0, mutated.size() - 1);
        std::uniform_int_distribution<int> bit(0, 7);
        mutated[pos(rng)] ^= static_cast<std::uint8_t>(1 << bit(rng));
      }
      expect_clean_decode(mutated);
    }
  }
}

TEST(MalformedFrame, RandomGarbageDecodesCleanly) {
  std::mt19937_64 rng(20260807);
  for (int round = 0; round < 4000; ++round) {
    std::uniform_int_distribution<std::size_t> len_dist(0, 96);
    Bytes garbage(len_dist(rng));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    expect_clean_decode(garbage);
  }
}

TEST(MalformedFrame, DatagramHeaderRejectsGarbage) {
  std::mt19937_64 rng(1996);
  // Every truncation of a valid header parses to nullopt, never UB.
  std::uint8_t header[net::kHeaderSize];
  net::encode_header(net::DatagramHeader{pid(3), 2}, header);
  ASSERT_TRUE(net::parse_header(header, sizeof(header)).has_value());
  for (std::size_t len = 0; len < sizeof(header); ++len)
    EXPECT_FALSE(net::parse_header(header, len).has_value());
  // Random buffers must not parse unless they fake the magic exactly.
  for (int round = 0; round < 2000; ++round) {
    std::uint8_t buf[net::kHeaderSize];
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    const auto parsed = net::parse_header(buf, sizeof(buf));
    if (parsed) {
      EXPECT_EQ(buf[0], static_cast<std::uint8_t>(net::kDatagramMagic & 0xff));
    }
  }
}

TEST(MalformedFrame, DatagramMagicVersioningIsAHardCut) {
  // The v3 envelope: both current magics parse (with the trace context
  // intact), every retired magic is rejected — a mixed-version fleet must
  // fail loudly, not mis-frame.
  std::uint8_t header[net::kHeaderSize];
  const net::DatagramHeader h{pid(3, 2), 5, 7, 0xabcdef0123456789ull,
                              /*coalesced=*/false};
  net::encode_header(h, header);
  EXPECT_EQ(header[0], static_cast<std::uint8_t>(net::kDatagramMagic & 0xff));
  auto parsed = net::parse_header(header, sizeof(header));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);

  net::DatagramHeader batch = h;
  batch.coalesced = true;
  net::encode_header(batch, header);
  EXPECT_EQ(header[0],
            static_cast<std::uint8_t>(net::kDatagramMagicBatch & 0xff));
  parsed = net::parse_header(header, sizeof(header));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->coalesced);
  EXPECT_EQ(parsed->trace, h.trace);

  for (const std::uint32_t old_magic :
       {net::kDatagramMagicV1, net::kDatagramMagicBatchV1,
        net::kDatagramMagicV2, net::kDatagramMagicBatchV2}) {
    net::encode_header(h, header);
    header[0] = static_cast<std::uint8_t>(old_magic);
    header[1] = static_cast<std::uint8_t>(old_magic >> 8);
    header[2] = static_cast<std::uint8_t>(old_magic >> 16);
    header[3] = static_cast<std::uint8_t>(old_magic >> 24);
    EXPECT_FALSE(net::parse_header(header, sizeof(header)).has_value())
        << "magic " << old_magic;
  }
}

// --- Coalesced-datagram sub-frame format (net/datagram.hpp) ---

/// Packs frames into one coalesced payload: [u32 LE len][frame]...
Bytes coalesce_payload(const std::vector<Bytes>& frames) {
  Bytes payload;
  for (const Bytes& frame : frames) {
    const auto len = static_cast<std::uint32_t>(frame.size());
    payload.push_back(static_cast<std::uint8_t>(len));
    payload.push_back(static_cast<std::uint8_t>(len >> 8));
    payload.push_back(static_cast<std::uint8_t>(len >> 16));
    payload.push_back(static_cast<std::uint8_t>(len >> 24));
    payload.insert(payload.end(), frame.begin(), frame.end());
  }
  return payload;
}

/// The split invariant: either the whole payload parses into in-bounds,
/// contiguous, non-empty spans, or it is rejected with `out` cleared.
void expect_clean_split(const Bytes& payload) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  const bool ok =
      net::split_subframes(payload.data(), payload.size(), spans);
  if (!ok) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  ASSERT_FALSE(spans.empty());
  std::size_t expect_offset = net::kSubFramePrefix;
  for (const auto& [offset, length] : spans) {
    EXPECT_EQ(offset, expect_offset);
    EXPECT_GE(length, 1u);
    ASSERT_LE(offset + length, payload.size());
    // Each recovered sub-frame feeds the same decoder the endpoint uses;
    // hostile contents must still only ever raise DecodeError.
    expect_clean_decode(
        Bytes(payload.begin() + static_cast<long>(offset),
              payload.begin() + static_cast<long>(offset + length)));
    expect_offset = offset + length + net::kSubFramePrefix;
  }
  // Full coverage: the last span ends exactly at the payload end.
  EXPECT_EQ(spans.back().first + spans.back().second, payload.size());
}

TEST(MalformedFrame, SubframeRoundTripRecoversCorpus) {
  const std::vector<Bytes> frames = corpus();
  const Bytes payload = coalesce_payload(frames);
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  ASSERT_TRUE(net::split_subframes(payload.data(), payload.size(), spans));
  ASSERT_EQ(spans.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto& [offset, length] = spans[i];
    EXPECT_EQ(Bytes(payload.begin() + static_cast<long>(offset),
                    payload.begin() + static_cast<long>(offset + length)),
              frames[i]);
  }
}

TEST(MalformedFrame, SubframeTruncationIsAllOrNothing) {
  // Every strict prefix of a coalesced payload either ends exactly on a
  // sub-frame boundary (a valid, shorter sequence) or rejects outright —
  // a truncated final sub-frame must never deliver its intact siblings.
  const std::vector<Bytes> frames = corpus();
  const Bytes payload = coalesce_payload(frames);
  std::vector<std::size_t> boundaries;
  std::size_t at = 0;
  for (const Bytes& frame : frames) {
    at += net::kSubFramePrefix + frame.size();
    boundaries.push_back(at);
  }
  for (std::size_t len = 0; len < payload.size(); ++len) {
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    const bool ok = net::split_subframes(payload.data(), len, spans);
    const bool on_boundary =
        std::find(boundaries.begin(), boundaries.end(), len) !=
        boundaries.end();
    EXPECT_EQ(ok, on_boundary && len > 0) << "prefix length " << len;
    expect_clean_split(Bytes(payload.begin(),
                             payload.begin() + static_cast<long>(len)));
  }
}

TEST(MalformedFrame, SubframeBitFlipsSplitCleanly) {
  // Bit flips landing in a length prefix produce garbage lengths (zero,
  // overlong, just-past-the-end); the split must reject or stay in
  // bounds, never read past the payload.
  std::mt19937_64 rng(0xBADC0DE);
  const Bytes payload = coalesce_payload(corpus());
  for (int round = 0; round < 2000; ++round) {
    Bytes mutated = payload;
    std::uniform_int_distribution<int> flips(1, 8);
    const int n = flips(rng);
    for (int i = 0; i < n; ++i) {
      std::uniform_int_distribution<std::size_t> pos(0, mutated.size() - 1);
      std::uniform_int_distribution<int> bit(0, 7);
      mutated[pos(rng)] ^= static_cast<std::uint8_t>(1 << bit(rng));
    }
    expect_clean_split(mutated);
  }
}

TEST(MalformedFrame, SubframeGarbageSplitsCleanly) {
  std::mt19937_64 rng(0x5EEDF00D);
  for (int round = 0; round < 4000; ++round) {
    std::uniform_int_distribution<std::size_t> len_dist(0, 128);
    Bytes garbage(len_dist(rng));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    expect_clean_split(garbage);
  }
  // Targeted garbage lengths: zero, max-u32 and one-past-the-end.
  for (const std::uint32_t evil : {0u, 0xffffffffu, 5u}) {
    Bytes payload = coalesce_payload({Bytes{1, 2, 3, 4}});
    payload[0] = static_cast<std::uint8_t>(evil);
    payload[1] = static_cast<std::uint8_t>(evil >> 8);
    payload[2] = static_cast<std::uint8_t>(evil >> 16);
    payload[3] = static_cast<std::uint8_t>(evil >> 24);
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    EXPECT_FALSE(net::split_subframes(payload.data(), payload.size(), spans))
        << "length " << evil;
    EXPECT_TRUE(spans.empty());
  }
}

// --- External-client svc wire protocol (svc/protocol.hpp) ---
//
// The front door faces arbitrary internet clients, so its decoders get
// the same three attack shapes as the member-to-member wire: truncation,
// bit flips, and raw garbage, against every request/response variant.

/// One valid body per request op and response status — the svc corpus.
std::vector<Bytes> svc_corpus() {
  using runtime::SvcOp;
  using runtime::SvcRequest;
  using runtime::SvcResponse;
  std::vector<Bytes> bodies;
  std::uint64_t id = 1000;
  const auto req = [&](SvcOp op, std::uint64_t epoch, std::string key = {},
                       std::string value = {}, std::uint64_t trace_id = 0,
                       bool sampled = false) {
    SvcRequest r;
    r.op = op;
    r.view_epoch = epoch;
    r.key = std::move(key);
    r.value = std::move(value);
    r.trace_id = trace_id;
    r.sampled = sampled;
    bodies.push_back(svc::encode_request(++id, r));
  };
  // A sampled trace context rides two of the seeds, so the truncation and
  // bit-flip shapes also sweep across the trace_id/trace_flags bytes.
  req(SvcOp::Get, 7, "some-key", "", 0x1122334455667788ull, true);
  req(SvcOp::Put, 42, "k", "a value with some length to flip bits in");
  req(SvcOp::Lock, 3, "", "", 0xfeedfacefeedfaceull, true);
  req(SvcOp::Unlock, 3);
  req(SvcOp::Append, 0, "", "appended tail");
  bodies.push_back(svc::encode_response(++id, SvcResponse::ok(9, "value")));
  bodies.push_back(svc::encode_response(++id, SvcResponse::conflict(250)));
  bodies.push_back(svc::encode_response(++id, SvcResponse::invalid_epoch(10)));
  bodies.push_back(svc::encode_response(++id, SvcResponse::unavailable(50)));
  bodies.push_back(svc::encode_response(++id, SvcResponse::unsupported()));
  return bodies;
}

/// Hostile svc bytes must parse (as a request or a response) or raise
/// DecodeError — both decoders run because a fuzzed body's origin is
/// exactly what a confused or malicious client gets wrong.
void expect_clean_svc_decode(const Bytes& body) {
  try {
    svc::decode_request(body);
  } catch (const DecodeError&) {
  }
  try {
    svc::decode_response(body);
  } catch (const DecodeError&) {
  }
}

TEST(MalformedFrame, SvcCorpusSeedsAreValid) {
  const std::vector<Bytes> bodies = svc_corpus();
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NO_THROW(svc::decode_request(bodies[i])) << i;
  for (std::size_t i = 5; i < bodies.size(); ++i)
    EXPECT_NO_THROW(svc::decode_response(bodies[i])) << i;
}

TEST(MalformedFrame, SvcEveryTruncationDecodesCleanly) {
  for (const Bytes& body : svc_corpus()) {
    for (std::size_t len = 0; len < body.size(); ++len)
      expect_clean_svc_decode(Bytes(body.begin(), body.begin() + len));
  }
}

TEST(MalformedFrame, SvcBitFlipsDecodeCleanly) {
  std::mt19937_64 rng(0x57C0DE);
  for (const Bytes& body : svc_corpus()) {
    for (int round = 0; round < 400; ++round) {
      Bytes mutated = body;
      std::uniform_int_distribution<int> flips(1, 8);
      const int n = flips(rng);
      for (int i = 0; i < n; ++i) {
        std::uniform_int_distribution<std::size_t> pos(0, mutated.size() - 1);
        std::uniform_int_distribution<int> bit(0, 7);
        mutated[pos(rng)] ^= static_cast<std::uint8_t>(1 << bit(rng));
      }
      expect_clean_svc_decode(mutated);
    }
  }
}

TEST(MalformedFrame, SvcRandomGarbageDecodesCleanly) {
  std::mt19937_64 rng(0xF40D);
  for (int round = 0; round < 4000; ++round) {
    std::uniform_int_distribution<std::size_t> len_dist(0, 96);
    Bytes garbage(len_dist(rng));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    expect_clean_svc_decode(garbage);
  }
}

TEST(MalformedFrame, SvcTraceContextRoundTripsAndBadFlagsReject) {
  using runtime::SvcOp;
  using runtime::SvcRequest;
  // Round trip: trace id and the sampled flag survive the codec.
  SvcRequest r;
  r.op = SvcOp::Lock;
  r.view_epoch = 3;
  r.trace_id = 0xabcdef0123456789ull;
  r.sampled = true;
  const Bytes body = svc::encode_request(55, r);
  const svc::WireRequest back = svc::decode_request(body);
  EXPECT_EQ(back.request_id, 55u);
  EXPECT_EQ(back.req.trace_id, r.trace_id);
  EXPECT_TRUE(back.req.sampled);

  // A Lock request carries nothing after the trace flags, so the flags
  // byte is the body's last; every unknown flag bit must be rejected
  // (forward-compat: old servers fail loudly on flags they cannot honour).
  for (int bit = 1; bit < 8; ++bit) {
    Bytes tampered = body;
    tampered.back() |= static_cast<std::uint8_t>(1 << bit);
    EXPECT_THROW(svc::decode_request(tampered), DecodeError) << "bit " << bit;
  }
  // Truncating anywhere inside the 9 trace bytes decodes cleanly.
  for (std::size_t cut = body.size() - 9; cut < body.size(); ++cut)
    expect_clean_svc_decode(Bytes(body.begin(), body.begin() + cut));

  // An unsampled request encodes flag byte 0 and decodes unsampled.
  r.sampled = false;
  r.trace_id = 0;
  const svc::WireRequest plain = svc::decode_request(svc::encode_request(56, r));
  EXPECT_EQ(plain.req.trace_id, 0u);
  EXPECT_FALSE(plain.req.sampled);
}

TEST(MalformedFrame, SvcFramingNeverReadsPastOrStalls) {
  // Garbage length prefixes: zero and over-cap must be Malformed (drop
  // the connection), in-cap short reads must be NeedMore, and a frame
  // extracted must exactly match what append_frame wrote.
  std::string buf;
  const Bytes body = svc_corpus().front();
  svc::append_frame(buf, body);
  std::size_t offset = 0;
  Bytes out;
  ASSERT_EQ(svc::next_frame(buf, offset, out), svc::FrameStatus::Frame);
  EXPECT_EQ(out, body);

  std::mt19937_64 rng(0xF4A3E);
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = buf;
    std::uniform_int_distribution<std::size_t> pos(0, mutated.size() - 1);
    mutated[pos(rng)] ^= static_cast<char>(1 << (rng() % 8));
    std::size_t off = 0;
    Bytes extracted;
    // Any verdict is fine; the property is bounded reads and no throw.
    while (off < mutated.size() &&
           svc::next_frame(mutated, off, extracted) ==
               svc::FrameStatus::Frame) {
    }
  }
  for (const std::uint32_t evil : {0u, 0xffffffffu, 0x10001u}) {
    std::string evil_buf;
    evil_buf.push_back(static_cast<char>(evil));
    evil_buf.push_back(static_cast<char>(evil >> 8));
    evil_buf.push_back(static_cast<char>(evil >> 16));
    evil_buf.push_back(static_cast<char>(evil >> 24));
    evil_buf += "payload";
    std::size_t off = 0;
    Bytes extracted;
    EXPECT_EQ(svc::next_frame(evil_buf, off, extracted),
              svc::FrameStatus::Malformed)
        << evil;
  }
}

// A live endpoint fed undecodable bytes must count them as discarded and
// keep functioning — state isolation, not just memory safety.
TEST(MalformedFrame, EndpointDiscardsAndStaysLive) {
  Cluster c({.sites = 2});
  ASSERT_TRUE(c.await_stable_view({0, 1}));
  const ProcessId peer = c.world().live_process(c.site(1));

  std::mt19937_64 rng(7);
  std::uint64_t injected = 0;
  auto inject = [&](const Bytes& bytes) {
    // Only inject bytes that are provably undecodable so the discard
    // counter must move and no protocol transition can fire.
    try {
      decode_frame(bytes);
      return;
    } catch (const DecodeError&) {
    }
    c.ep(0).on_message(peer, bytes);
    ++injected;
  };

  for (const Bytes& frame : corpus()) {
    for (std::size_t len = 1; len < frame.size(); ++len)
      inject(Bytes(frame.begin(), frame.begin() + len));
    for (int round = 0; round < 50; ++round) {
      Bytes mutated = frame;
      if (mutated.empty()) continue;
      std::uniform_int_distribution<std::size_t> pos(0, mutated.size() - 1);
      mutated[pos(rng)] ^= 0xff;
      inject(mutated);
    }
  }
  ASSERT_GT(injected, 0u);
  EXPECT_EQ(c.ep(0).stats().messages_discarded, injected);

  // The group must still be able to change views after the bombardment.
  const ViewId before = c.ep(0).view().id;
  c.world().crash_site(c.site(1));
  ASSERT_TRUE(c.await_stable_view({0}));
  EXPECT_NE(c.ep(0).view().id, before);
}

// ---------------------------------------------------------------------
// Object snapshot decoders. The settle engine installs whatever snapshot
// the classification hands it (and, behind a durable store, whatever a
// crashed process left on disk), so install_state / merge_cluster_states
// face torn and bit-flipped bytes exactly like the wire decoders: the
// contract is DecodeError-or-success with the object state untouched on
// rejection — never a crash, never a half-installed object.

struct FuzzLogShard : log::LogShard {
  using log::LogShard::LogShard;
  using log::LogShard::install_state;
  using log::LogShard::merge_cluster_states;
  using log::LogShard::snapshot_state;
};

struct FuzzParallelDb : objects::ParallelDb {
  using objects::ParallelDb::install_state;
  using objects::ParallelDb::merge_cluster_states;
  using objects::ParallelDb::ParallelDb;
  using objects::ParallelDb::snapshot_state;
};

FuzzLogShard make_shard() { return FuzzLogShard(log::LogShardConfig{}); }
FuzzParallelDb make_db() { return FuzzParallelDb(app::GroupObjectConfig{}); }

/// A populated LogShard snapshot, hand-encoded in the wire format
/// (version, next_local, trim_floor, sealed_epoch, slot count, slots).
Bytes shard_seed() {
  Encoder enc;
  enc.put_varint(17);  // version
  enc.put_varint(6);   // next_local
  enc.put_varint(2);   // trim_floor
  enc.put_varint(1);   // sealed_epoch
  enc.put_varint(4);   // slots
  for (std::uint64_t local = 2; local < 6; ++local) {
    enc.put_varint(local);
    enc.put_u8(local == 3 ? 1 : 0);  // one filled hole
    enc.put_string(local == 3 ? "" : "rec" + std::to_string(local));
  }
  return std::move(enc).take();
}

/// A populated ParallelDb snapshot (version, entry count, entries).
Bytes db_seed() {
  Encoder enc;
  enc.put_varint(9);
  enc.put_varint(3);
  for (const char* key : {"alpha", "beta", "gamma"}) {
    enc.put_string(key);
    enc.put_string(std::string("value-of-") + key);
  }
  return std::move(enc).take();
}

/// Installs `snapshot` into a fresh object; on DecodeError asserts the
/// object is still bit-identical to a never-touched one (no partial
/// mutation). Returns whether the install was accepted.
template <typename MakeObject>
bool install_or_reject(MakeObject make, const Bytes& snapshot) {
  auto obj = make();
  const Bytes before = obj.snapshot_state();
  try {
    obj.install_state(snapshot);
    return true;
  } catch (const DecodeError&) {
    EXPECT_EQ(obj.snapshot_state(), before)
        << "rejected snapshot left a partial install behind";
    return false;
  }
}

TEST(MalformedSnapshot, SeedsInstallAndRoundTrip) {
  auto shard = make_shard();
  shard.install_state(shard_seed());
  EXPECT_EQ(shard.local_tail(), 6u);
  EXPECT_EQ(shard.trim_floor(), 2u);
  EXPECT_EQ(shard.records(), 4u);
  EXPECT_EQ(shard.snapshot_state(), shard_seed());

  auto db = make_db();
  db.install_state(db_seed());
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.get("beta"), "value-of-beta");
  EXPECT_EQ(db.snapshot_state(), db_seed());
}

TEST(MalformedSnapshot, GappedSlotListRejected) {
  // The shard_seed format with local 3 missing: slots 2, 4, 5 under
  // trim_floor 2 and next_local 6. A shard is dense by construction, so
  // this is corruption — installing it would answer "filled" for a
  // position nobody filled.
  Encoder enc;
  enc.put_varint(17);  // version
  enc.put_varint(6);   // next_local
  enc.put_varint(2);   // trim_floor
  enc.put_varint(1);   // sealed_epoch
  enc.put_varint(3);   // slots
  for (const std::uint64_t local : {2, 4, 5}) {
    enc.put_varint(local);
    enc.put_u8(0);
    enc.put_string("rec" + std::to_string(local));
  }
  const Bytes gapped = std::move(enc).take();
  EXPECT_FALSE(install_or_reject(make_shard, gapped));
  auto shard = make_shard();
  EXPECT_THROW(shard.merge_cluster_states({shard_seed(), gapped}), DecodeError);
}

TEST(MalformedSnapshot, EveryTruncationRejectsCleanly) {
  const Bytes shard_full = shard_seed();
  for (std::size_t len = 0; len < shard_full.size(); ++len)
    EXPECT_FALSE(install_or_reject(
        make_shard, Bytes(shard_full.begin(), shard_full.begin() + len)))
        << "truncation to " << len << "B installed";
  const Bytes db_full = db_seed();
  for (std::size_t len = 0; len < db_full.size(); ++len)
    EXPECT_FALSE(install_or_reject(
        make_db, Bytes(db_full.begin(), db_full.begin() + len)))
        << "truncation to " << len << "B installed";
}

TEST(MalformedSnapshot, BitFlipsRejectOrInstallAtomically) {
  std::mt19937_64 rng(0x5709);
  for (const Bytes& seed : {shard_seed(), db_seed()}) {
    const bool is_shard = seed == shard_seed();
    for (int round = 0; round < 600; ++round) {
      Bytes mutated = seed;
      std::uniform_int_distribution<int> flips(1, 8);
      const int n = flips(rng);
      for (int i = 0; i < n; ++i) {
        std::uniform_int_distribution<std::size_t> pos(0, mutated.size() - 1);
        std::uniform_int_distribution<int> bit(0, 7);
        mutated[pos(rng)] ^= static_cast<std::uint8_t>(1 << bit(rng));
      }
      // Either a clean install of whatever the flip means, or a clean
      // reject with the object untouched — install_or_reject asserts it.
      if (is_shard)
        install_or_reject(make_shard, mutated);
      else
        install_or_reject(make_db, mutated);
    }
  }
}

TEST(MalformedSnapshot, RandomGarbageRejectsCleanly) {
  std::mt19937_64 rng(0xBAD5EED);
  for (int round = 0; round < 2000; ++round) {
    std::uniform_int_distribution<std::size_t> len_dist(0, 128);
    Bytes garbage(len_dist(rng));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    install_or_reject(make_shard, garbage);
    install_or_reject(make_db, garbage);
  }
}

TEST(MalformedSnapshot, MergeRejectsCorruptCandidates) {
  // A truncated or flipped candidate must fail the merge with a
  // DecodeError (counted as snapshot_decode_errors upstream) — it must
  // never win the merge and poison the subsequent install.
  std::mt19937_64 rng(0x4D454747);
  for (int round = 0; round < 400; ++round) {
    for (const bool is_shard : {true, false}) {
      const Bytes good = is_shard ? shard_seed() : db_seed();
      Bytes bad = good;
      std::uniform_int_distribution<int> mode(0, 1);
      if (mode(rng) == 0 && bad.size() > 1) {
        std::uniform_int_distribution<std::size_t> cut(0, bad.size() - 1);
        bad.resize(cut(rng));
      } else {
        std::uniform_int_distribution<std::size_t> pos(0, bad.size() - 1);
        bad[pos(rng)] ^= 0xff;
      }
      try {
        if (is_shard) {
          auto shard = make_shard();
          const Bytes merged = shard.merge_cluster_states({good, bad});
          EXPECT_TRUE(install_or_reject(make_shard, merged))
              << "merge produced an uninstallable winner";
        } else {
          auto db = make_db();
          const Bytes merged = db.merge_cluster_states({good, bad});
          EXPECT_TRUE(install_or_reject(make_db, merged))
              << "merge produced an uninstallable winner";
        }
      } catch (const DecodeError&) {
        // The corrupt candidate was detected — the counted-error path.
      }
    }
  }
}

TEST(MalformedSnapshot, MergeOfNothingThrows) {
  auto shard = make_shard();
  EXPECT_THROW(shard.merge_cluster_states({}), DecodeError);
  auto db = make_db();
  // ParallelDb's union-merge of zero candidates is legitimately empty.
  const Bytes merged = db.merge_cluster_states({});
  EXPECT_TRUE(install_or_reject(make_db, merged));
}

}  // namespace
}  // namespace evs::test
