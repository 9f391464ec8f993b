// Client front door tests: the svc wire protocol (round trips and
// rejection of malformed bodies), the SvcServer's admission control and
// exactly-one-typed-response promise over real loopback sockets on its
// own epoll loop, and the view-epoch fencing rule end-to-end through
// simulated group objects (MergeableKv, LockManager, ReplicatedFile).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "obs/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "objects/lock_manager.hpp"
#include "objects/mergeable_kv.hpp"
#include "objects/replicated_file.hpp"
#include "support/object_cluster.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc_client.hpp"

namespace evs::test {
namespace {

using runtime::SvcOp;
using runtime::SvcRequest;
using runtime::SvcRespondFn;
using runtime::SvcResponse;
using runtime::SvcStatus;

// ------------------------------------------------------------- protocol ---

SvcRequest make_request(SvcOp op, std::uint64_t epoch, std::string key = {},
                        std::string value = {}) {
  SvcRequest req;
  req.op = op;
  req.view_epoch = epoch;
  req.key = std::move(key);
  req.value = std::move(value);
  return req;
}

TEST(SvcProtocol, RequestRoundTripsEveryOp) {
  const SvcRequest cases[] = {
      make_request(SvcOp::Get, 7, "a-key"),
      make_request(SvcOp::Put, 0, "k", std::string(300, 'v')),
      make_request(SvcOp::Lock, 12),
      make_request(SvcOp::Unlock, 12),
      make_request(SvcOp::Append, 3, "", "tail"),
      make_request(SvcOp::LogAppend, 0, "routing-key", "record"),
      make_request(SvcOp::LogRead, 2, "17"),
      make_request(SvcOp::LogTail, 0),
      make_request(SvcOp::LogSeal, 9, "5"),
      make_request(SvcOp::LogTrim, 0, "8"),
      make_request(SvcOp::LogFill, 0, "21"),
  };
  std::uint64_t id = 100;
  for (SvcRequest req : cases) {
    // The group field rides on every op (multi-group hosts demux by it).
    req.group = GroupId{static_cast<std::uint32_t>(id % 3)};
    const svc::WireRequest back =
        svc::decode_request(svc::encode_request(++id, req));
    EXPECT_EQ(back.request_id, id);
    EXPECT_EQ(back.req.op, req.op);
    EXPECT_EQ(back.req.group, req.group);
    EXPECT_EQ(back.req.view_epoch, req.view_epoch);
    EXPECT_EQ(back.req.key, req.key);
    EXPECT_EQ(back.req.value, req.value);
  }
}

TEST(SvcProtocol, ResponseRoundTripsEveryStatus) {
  const SvcResponse cases[] = {
      SvcResponse::ok(42, "payload"),     SvcResponse::ok(1),
      SvcResponse::conflict(250),         SvcResponse::invalid_epoch(43),
      SvcResponse::unavailable(50),       SvcResponse::unsupported(),
      SvcResponse::not_leader(3, 44),
  };
  std::uint64_t id = 7;
  for (const SvcResponse& resp : cases) {
    const svc::WireResponse back =
        svc::decode_response(svc::encode_response(++id, resp));
    EXPECT_EQ(back.request_id, id);
    EXPECT_EQ(back.resp.status, resp.status);
    EXPECT_EQ(back.resp.value, resp.value);
    EXPECT_EQ(back.resp.view_epoch, resp.view_epoch);
    EXPECT_EQ(back.resp.retry_after_ms, resp.retry_after_ms);
    EXPECT_EQ(back.resp.coordinator_site, resp.coordinator_site);
  }
}

TEST(SvcProtocol, RejectsBadTagsAndTrailingBytes) {
  // Unknown op tag.
  Bytes req = svc::encode_request(1, make_request(SvcOp::Get, 0, "k"));
  req[8] = 0x77;  // op byte follows the u64 request_id
  EXPECT_THROW(svc::decode_request(req), DecodeError);
  // Unknown status tag.
  Bytes resp = svc::encode_response(1, SvcResponse::ok(1));
  resp[8] = 0x00;
  EXPECT_THROW(svc::decode_response(resp), DecodeError);
  // Trailing bytes after a complete body.
  req = svc::encode_request(1, make_request(SvcOp::Lock, 0));
  req.push_back(0);
  EXPECT_THROW(svc::decode_request(req), DecodeError);
  resp = svc::encode_response(1, SvcResponse::unsupported());
  resp.push_back(9);
  EXPECT_THROW(svc::decode_response(resp), DecodeError);
}

TEST(SvcProtocol, FramingExtractsAndRejects) {
  std::string buf;
  const Bytes a = svc::encode_request(1, make_request(SvcOp::Get, 0, "x"));
  const Bytes b = svc::encode_request(2, make_request(SvcOp::Lock, 5));
  svc::append_frame(buf, a);
  svc::append_frame(buf, b);

  std::size_t offset = 0;
  Bytes body;
  ASSERT_EQ(svc::next_frame(buf, offset, body), svc::FrameStatus::Frame);
  EXPECT_EQ(body, a);
  ASSERT_EQ(svc::next_frame(buf, offset, body), svc::FrameStatus::Frame);
  EXPECT_EQ(body, b);
  EXPECT_EQ(svc::next_frame(buf, offset, body), svc::FrameStatus::NeedMore);
  EXPECT_EQ(offset, buf.size());

  // Every strict prefix of one frame is NeedMore, never a bogus Frame.
  std::string one;
  svc::append_frame(one, a);
  for (std::size_t len = 0; len < one.size(); ++len) {
    std::size_t off = 0;
    EXPECT_EQ(svc::next_frame(one.substr(0, len), off, body),
              svc::FrameStatus::NeedMore);
  }

  // Zero and over-cap lengths are Malformed, not a wait-for-more stall.
  std::string evil(4, '\0');  // length prefix 0
  std::size_t off = 0;
  EXPECT_EQ(svc::next_frame(evil, off, body), svc::FrameStatus::Malformed);
  std::string huge;
  svc::append_frame(huge, Bytes{1});
  huge[2] = '\x7f';  // length prefix far above kMaxFrameBytes
  off = 0;
  EXPECT_EQ(svc::next_frame(huge, off, body), svc::FrameStatus::Malformed);
}

// ------------------------------------------------------------ SvcServer ---

constexpr std::uint32_t kLoopbackIp = (127u << 24) | 1u;

/// A nonblocking loopback client speaking the svc framing.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ::fcntl(fd_, F_SETFL, O_NONBLOCK);
  }
  ~TestClient() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_request(std::uint64_t id, const SvcRequest& req) {
    std::string frame;
    svc::append_frame(frame, svc::encode_request(id, req));
    send_raw(frame);
  }

  void send_raw(const std::string& bytes) { out_ += bytes; }

  /// Pumps the loop until `count` responses have arrived (or a deadline).
  bool pump_until(net::EventLoop& loop, std::size_t count,
                  int max_iterations = 2000) {
    for (int i = 0; i < max_iterations && responses.size() < count; ++i) {
      while (sent_ < out_.size()) {
        const ssize_t n = ::send(fd_, out_.data() + sent_,
                                 out_.size() - sent_, MSG_NOSIGNAL);
        if (n <= 0) break;
        sent_ += static_cast<std::size_t>(n);
      }
      loop.run_for(kMillisecond);
      char buf[4096];
      while (fd_ >= 0) {
        const ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n > 0) {
          in_.append(buf, static_cast<std::size_t>(n));
        } else {
          if (n == 0) closed_by_server = true;
          break;
        }
      }
      std::size_t offset = 0;
      Bytes body;
      while (svc::next_frame(in_, offset, body) == svc::FrameStatus::Frame)
        responses.push_back(svc::decode_response(body));
      in_.erase(0, offset);
      if (closed_by_server) break;
    }
    return responses.size() >= count;
  }

  const SvcResponse* response_for(std::uint64_t id) const {
    for (const svc::WireResponse& r : responses) {
      if (r.request_id == id) return &r.resp;
    }
    return nullptr;
  }

  std::vector<svc::WireResponse> responses;
  bool closed_by_server = false;

 private:
  int fd_ = -1;
  std::string in_;
  std::string out_;
  std::size_t sent_ = 0;
};

TEST(SvcServer, PipelinedRequestsCompleteAndMatchByRequestId) {
  net::EventLoop loop;
  svc::SvcServer server(loop, kLoopbackIp, 0);
  ASSERT_NE(server.bound_port(), 0);
  server.set_handler([](SvcRequest req, SvcRespondFn respond) {
    respond(SvcResponse::ok(req.view_epoch, req.key + "=" + req.value));
  });

  TestClient client(server.bound_port());
  client.send_request(11, make_request(SvcOp::Put, 3, "a", "1"));
  client.send_request(12, make_request(SvcOp::Put, 3, "b", "2"));
  client.send_request(13, make_request(SvcOp::Get, 3, "c"));
  ASSERT_TRUE(client.pump_until(loop, 3));
  ASSERT_NE(client.response_for(12), nullptr);
  EXPECT_EQ(client.response_for(12)->value, "b=2");
  EXPECT_EQ(client.response_for(13)->value, "c=");
  EXPECT_EQ(server.stats().requests_ok, 3u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
}

TEST(SvcServer, DeferredCompletionStillDelivers) {
  net::EventLoop loop;
  svc::SvcServer server(loop, kLoopbackIp, 0);
  std::vector<SvcRespondFn> held;
  server.set_handler([&held](SvcRequest, SvcRespondFn respond) {
    held.push_back(std::move(respond));
  });

  TestClient client(server.bound_port());
  client.send_request(1, make_request(SvcOp::Get, 0, "k"));
  EXPECT_FALSE(client.pump_until(loop, 1, 20));
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(server.pending(), 1u);
  held[0](SvcResponse::ok(9, "later"));
  ASSERT_TRUE(client.pump_until(loop, 1));
  EXPECT_EQ(client.responses[0].resp.value, "later");
  EXPECT_EQ(server.pending(), 0u);
}

TEST(SvcServer, PerConnectionInflightCapShedsWithRetryAfter) {
  net::EventLoop loop;
  svc::SvcServerConfig config;
  config.max_inflight_per_conn = 2;
  config.shed_retry_after_ms = 77;
  svc::SvcServer server(loop, kLoopbackIp, 0, config);
  std::vector<SvcRespondFn> held;
  server.set_handler([&held](SvcRequest, SvcRespondFn respond) {
    held.push_back(std::move(respond));
  });

  TestClient client(server.bound_port());
  for (std::uint64_t id = 1; id <= 3; ++id)
    client.send_request(id, make_request(SvcOp::Get, 0, "k"));
  // Only the shed response arrives; the two admitted ones are held.
  ASSERT_TRUE(client.pump_until(loop, 1));
  const SvcResponse* shed = client.response_for(3);
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->status, SvcStatus::Unavailable);
  EXPECT_EQ(shed->retry_after_ms, 77u);
  EXPECT_EQ(server.stats().requests_shed, 1u);
  // The admitted requests still complete normally afterwards.
  for (SvcRespondFn& respond : held) respond(SvcResponse::ok(1));
  ASSERT_TRUE(client.pump_until(loop, 3));
  EXPECT_EQ(server.stats().requests_ok, 2u);
}

TEST(SvcServer, GlobalPendingCapShedsAcrossConnections) {
  net::EventLoop loop;
  svc::SvcServerConfig config;
  config.max_pending = 1;
  svc::SvcServer server(loop, kLoopbackIp, 0, config);
  std::vector<SvcRespondFn> held;
  server.set_handler([&held](SvcRequest, SvcRespondFn respond) {
    held.push_back(std::move(respond));
  });

  TestClient first(server.bound_port());
  TestClient second(server.bound_port());
  first.send_request(1, make_request(SvcOp::Get, 0, "k"));
  EXPECT_FALSE(first.pump_until(loop, 1, 20));  // admitted and held
  second.send_request(2, make_request(SvcOp::Get, 0, "k"));
  ASSERT_TRUE(second.pump_until(loop, 1));
  EXPECT_EQ(second.responses[0].resp.status, SvcStatus::Unavailable);
  EXPECT_EQ(server.stats().requests_shed, 1u);
  ASSERT_EQ(held.size(), 1u);
  held[0](SvcResponse::ok(1));
  ASSERT_TRUE(first.pump_until(loop, 1));
}

TEST(SvcServer, RequestTimeoutAnswersUnavailableAndDropsLateCompletion) {
  net::EventLoop loop;
  svc::SvcServerConfig config;
  config.request_timeout = 20 * kMillisecond;
  svc::SvcServer server(loop, kLoopbackIp, 0, config);
  std::vector<SvcRespondFn> held;
  server.set_handler([&held](SvcRequest, SvcRespondFn respond) {
    held.push_back(std::move(respond));
  });

  TestClient client(server.bound_port());
  client.send_request(5, make_request(SvcOp::Get, 0, "k"));
  ASSERT_TRUE(client.pump_until(loop, 1));
  EXPECT_EQ(client.responses[0].resp.status, SvcStatus::Unavailable);
  EXPECT_EQ(server.stats().requests_timed_out, 1u);
  EXPECT_EQ(server.pending(), 0u);
  // The node answering after the deadline must be a silent no-op.
  ASSERT_EQ(held.size(), 1u);
  held[0](SvcResponse::ok(1, "too late"));
  loop.run_for(5 * kMillisecond);
  EXPECT_EQ(client.responses.size(), 1u);
  EXPECT_EQ(server.stats().requests_ok, 0u);
}

TEST(SvcServer, CompletionAfterDisconnectIsOrphaned) {
  net::EventLoop loop;
  svc::SvcServer server(loop, kLoopbackIp, 0);
  std::vector<SvcRespondFn> held;
  server.set_handler([&held](SvcRequest, SvcRespondFn respond) {
    held.push_back(std::move(respond));
  });

  TestClient client(server.bound_port());
  client.send_request(1, make_request(SvcOp::Get, 0, "k"));
  EXPECT_FALSE(client.pump_until(loop, 1, 20));
  ASSERT_EQ(held.size(), 1u);
  client.close();
  loop.run_for(10 * kMillisecond);  // server notices the hangup
  EXPECT_EQ(server.connections(), 0u);
  held[0](SvcResponse::ok(1));
  EXPECT_EQ(server.stats().responses_orphaned, 1u);
  EXPECT_EQ(server.pending(), 0u);
}

TEST(SvcServer, DroppedRepliesStillEndTheirTracedRequests) {
  // A traced request whose reply is never written, because its client
  // hung up or its connection was closed as a slow consumer, still ends
  // in one RequestReplied: a checker fed the bus holds no state for it.
  net::EventLoop loop;
  svc::SvcServerConfig config;
  config.max_out_bytes = 1024;
  svc::SvcServer server(loop, kLoopbackIp, 0, config);
  obs::TraceBus bus;
  bus.set_enabled(true);
  obs::LiveChecker checker;
  bus.set_observer([&checker](const obs::TraceEvent& e) { checker.observe(e); });
  server.set_trace(&bus, ProcessId{SiteId{0}, 1});
  std::vector<SvcRespondFn> held;
  server.set_handler([&held](SvcRequest, SvcRespondFn respond) {
    held.push_back(std::move(respond));
  });

  constexpr int kRounds = 20;
  SvcRequest req = make_request(SvcOp::Get, 0, "k");
  req.sampled = true;
  for (int round = 0; round < kRounds; ++round) {
    held.clear();
    TestClient client(server.bound_port());
    for (std::uint64_t id = 1; id <= 3; ++id) {
      req.trace_id = 3 * static_cast<std::uint64_t>(round) + id;
      client.send_request(id, req);
    }
    for (int i = 0; i < 100 && held.size() < 3; ++i)
      client.pump_until(loop, 1, 1);
    ASSERT_EQ(held.size(), 3u);
    held[1](SvcResponse::ok(1, "small"));  // queued, not yet written
    held[2](SvcResponse::ok(1, std::string(2048, 'v')));  // overflows
    EXPECT_EQ(server.connections(), 0u);
    held[0](SvcResponse::ok(1));  // its connection is gone: orphaned
    EXPECT_EQ(checker.tracked(), 1u);  // the process, no open request
  }
  EXPECT_EQ(server.stats().responses_orphaned,
            static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(server.stats().slow_consumer_closed,
            static_cast<std::uint64_t>(kRounds));
  std::size_t admitted = 0, replied = 0;
  for (const obs::TraceEvent& e : bus.events()) {
    admitted += e.kind == obs::EventKind::RequestAdmitted;
    replied += e.kind == obs::EventKind::RequestReplied;
  }
  EXPECT_EQ(admitted, 3u * kRounds);
  EXPECT_EQ(replied, 3u * kRounds);
  EXPECT_TRUE(checker.healthy());
}

TEST(SvcServer, MalformedFramesDropTheConnection) {
  net::EventLoop loop;
  svc::SvcServer server(loop, kLoopbackIp, 0);
  server.set_handler([](SvcRequest, SvcRespondFn respond) {
    respond(SvcResponse::ok(1));
  });

  {
    // Zero-length frame prefix.
    TestClient client(server.bound_port());
    client.send_raw(std::string(4, '\0'));
    client.pump_until(loop, 1, 50);
    EXPECT_TRUE(client.closed_by_server);
  }
  {
    // Valid framing, undecodable body (bad op tag).
    TestClient client(server.bound_port());
    Bytes body = svc::encode_request(1, make_request(SvcOp::Get, 0, "k"));
    body[8] = 0x66;
    std::string frame;
    svc::append_frame(frame, body);
    client.send_raw(frame);
    client.pump_until(loop, 1, 50);
    EXPECT_TRUE(client.closed_by_server);
  }
  EXPECT_EQ(server.stats().dropped_malformed, 2u);
  EXPECT_EQ(server.connections(), 0u);
}

TEST(SvcServer, ConnectionCapShedsExtraAccepts) {
  net::EventLoop loop;
  svc::SvcServerConfig config;
  config.max_connections = 1;
  svc::SvcServer server(loop, kLoopbackIp, 0, config);
  server.set_handler([](SvcRequest, SvcRespondFn respond) {
    respond(SvcResponse::ok(1));
  });

  TestClient keeper(server.bound_port());
  keeper.send_request(1, make_request(SvcOp::Get, 0, "k"));
  ASSERT_TRUE(keeper.pump_until(loop, 1));

  TestClient extra(server.bound_port());
  extra.send_request(2, make_request(SvcOp::Get, 0, "k"));
  extra.pump_until(loop, 1, 50);
  EXPECT_TRUE(extra.closed_by_server);
  EXPECT_TRUE(extra.responses.empty());
  EXPECT_EQ(server.stats().connections_shed, 1u);

  // The admitted connection is unaffected.
  keeper.send_request(3, make_request(SvcOp::Get, 0, "k"));
  ASSERT_TRUE(keeper.pump_until(loop, 2));
}

TEST(SvcServer, NoHandlerShedsInsteadOfHanging) {
  net::EventLoop loop;
  svc::SvcServer server(loop, kLoopbackIp, 0);
  TestClient client(server.bound_port());
  client.send_request(1, make_request(SvcOp::Get, 0, "k"));
  ASSERT_TRUE(client.pump_until(loop, 1));
  EXPECT_EQ(client.responses[0].resp.status, SvcStatus::Unavailable);
  EXPECT_EQ(server.stats().requests_shed, 1u);
}

TEST(SvcServer, ExportsCountersAndLatencyHistogram) {
  net::EventLoop loop;
  svc::SvcServer server(loop, kLoopbackIp, 0);
  server.set_handler([](SvcRequest, SvcRespondFn respond) {
    respond(SvcResponse::ok(1));
  });
  TestClient client(server.bound_port());
  client.send_request(1, make_request(SvcOp::Get, 0, "k"));
  ASSERT_TRUE(client.pump_until(loop, 1));

  obs::MetricsRegistry registry;
  server.export_metrics(registry);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"svc.requests_ok\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("svc.latency_us"), std::string::npos) << json;
  EXPECT_NE(json.find("\"svc.connections\":1"), std::string::npos) << json;
}

// ------------------------------------------------------- reply path ---

/// A raw nonblocking loopback connection to `port`, for tests that need
/// socket options TestClient does not expose. `rcvbuf` > 0 caps the
/// receive buffer before the handshake fixes the window scale.
int connect_raw(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0)
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  return fd;
}

std::string request_frame(std::uint64_t id, const SvcRequest& req) {
  std::string frame;
  svc::append_frame(frame, svc::encode_request(id, req));
  return frame;
}

/// Reads what `fd` has and appends every complete response to `out`;
/// returns the bytes read.
std::size_t read_responses(int fd, std::string& in,
                           std::vector<svc::WireResponse>& out,
                           std::size_t max_bytes = 64 * 1024) {
  std::string buf(max_bytes, '\0');
  const ssize_t n = ::recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
  if (n <= 0) return 0;
  in.append(buf.data(), static_cast<std::size_t>(n));
  std::size_t offset = 0;
  Bytes body;
  while (svc::next_frame(in, offset, body) == svc::FrameStatus::Frame)
    out.push_back(svc::decode_response(body));
  in.erase(0, offset);
  return static_cast<std::size_t>(n);
}

TEST(SvcServer, PipelinedCompletionsLeaveInOneWrite) {
  net::EventLoop loop;
  svc::SvcServer server(loop, kLoopbackIp, 0);
  server.set_handler([](SvcRequest, SvcRespondFn respond) {
    respond(SvcResponse::ok(1));
  });
  TestClient client(server.bound_port());
  for (std::uint64_t id = 1; id <= 3; ++id)
    client.send_request(id, make_request(SvcOp::Get, 0, "k"));
  ASSERT_TRUE(client.pump_until(loop, 3));
  // One segment in, one read; three completions in that pass, one write.
  EXPECT_EQ(server.stats().read_calls, 1u);
  EXPECT_EQ(server.stats().send_calls, 1u);

  obs::MetricsRegistry registry;
  server.export_metrics(registry);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"svc.send_calls\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"svc.read_calls\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"svc.out_buffered_bytes\":0"), std::string::npos)
      << json;
}

TEST(SvcServer, RepliesLeaveOnlyAfterTheDurableStage) {
  // The store's group commit is a Durable-stage hook: a reply may reach
  // the client only after it ran, even when the node answered at once.
  net::EventLoop loop;
  svc::SvcServer server(loop, kLoopbackIp, 0);
  bool answered = false;
  server.set_handler([&answered](SvcRequest, SvcRespondFn respond) {
    answered = true;
    respond(SvcResponse::ok(1));
  });
  const int fd = connect_raw(server.bound_port());
  // Registered after the server's Reply hook: the stage, not the
  // registration order, puts it first.
  int durable_runs_after_answer = 0;
  ssize_t visible_at_durable = 0;
  const auto hook = loop.add_flush_hook(
      net::EventLoop::FlushStage::Durable, [&]() {
        if (!answered || durable_runs_after_answer++ > 0) return;
        char byte = 0;
        visible_at_durable = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
      });
  const std::string frame =
      request_frame(1, make_request(SvcOp::Get, 0, "k"));
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  std::string in;
  std::vector<svc::WireResponse> responses;
  for (int i = 0; i < 2000 && responses.empty(); ++i) {
    loop.run_for(kMillisecond);
    read_responses(fd, in, responses);
  }
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_GE(durable_runs_after_answer, 1);
  EXPECT_EQ(visible_at_durable, -1)
      << "reply bytes were readable before the Durable stage ran";
  loop.remove_flush_hook(hook);
  ::close(fd);
}

TEST(SvcServer, PipelinedReplyIsNotHeldForTheDelayedAck) {
  // The client keeps its ACKs delayed and pipelines requests in pairs; the
  // node answers the first of a pair at once and the second a loop
  // iteration later, so the second reply is written while the first is
  // still unacknowledged. With Nagle on it waits for the client's
  // delayed-ACK timer (40 ms or more); without, it leaves at once.
  net::EventLoop loop;
  svc::SvcServer server(loop, kLoopbackIp, 0);
  server.set_handler([&loop](SvcRequest req, SvcRespondFn respond) {
    if (req.key == "first") {
      respond(SvcResponse::ok(1));
      return;
    }
    loop.set_timer(kMillisecond, [respond = std::move(respond)]() {
      respond(SvcResponse::ok(1));
    });
  });
  const int fd = connect_raw(server.bound_port());
  const int delayed = 0;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &delayed, sizeof(delayed));
  constexpr int kPairs = 9;
  std::vector<SimDuration> second_reply_us;
  std::string in;
  std::uint64_t id = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    const std::string frames =
        request_frame(id + 1, make_request(SvcOp::Get, 0, "first")) +
        request_frame(id + 2, make_request(SvcOp::Get, 0, "second"));
    id += 2;
    ASSERT_EQ(::send(fd, frames.data(), frames.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frames.size()));
    const SimTime sent = loop.now();
    std::vector<svc::WireResponse> responses;
    while (responses.size() < 2 && loop.now() - sent < 500 * kMillisecond) {
      loop.run_for(200);
      if (read_responses(fd, in, responses) > 0) {
        // The kernel re-enables quick ACKs on its own; clear it again
        // after every read so the first reply stays unacknowledged.
        ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &delayed,
                     sizeof(delayed));
      }
    }
    ASSERT_EQ(responses.size(), 2u);
    second_reply_us.push_back(loop.now() - sent);
  }
  std::sort(second_reply_us.begin(), second_reply_us.end());
  EXPECT_LT(second_reply_us[kPairs / 2], 15 * kMillisecond)
      << "the second reply of a pair waited for the client's delayed ACK";
  ::close(fd);
}

/// The server's end of `client_fd`'s loopback connection: in this process,
/// the socket whose peer address is the client's local one.
int accepted_end(int client_fd) {
  sockaddr_in local{};
  socklen_t len = sizeof(local);
  if (::getsockname(client_fd, reinterpret_cast<sockaddr*>(&local), &len) != 0)
    return -1;
  for (int fd = 3; fd < 1024; ++fd) {
    if (fd == client_fd) continue;
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) ==
            0 &&
        peer_len == sizeof(peer) && peer.sin_port == local.sin_port &&
        peer.sin_addr.s_addr == local.sin_addr.s_addr)
      return fd;
  }
  return -1;
}

TEST(SvcServer, ReplyBacklogStaysBoundedForASteadySlowReader) {
  // A client that reads steadily but never catches up: the server always
  // has unsent replies, yet never more than max_out_bytes of them. The
  // reply buffer must hold only that unsent tail, not everything written
  // since the connection last drained.
  net::EventLoop loop;
  svc::SvcServerConfig config;
  config.max_out_bytes = 32 * 1024;
  svc::SvcServer server(loop, kLoopbackIp, 0, config);
  const std::string value(200, 'v');
  server.set_handler([&value](SvcRequest, SvcRespondFn respond) {
    respond(SvcResponse::ok(1, value));
  });
  std::string reply;
  svc::append_frame(reply, svc::encode_response(1, SvcResponse::ok(1, value)));
  const std::size_t frame = reply.size();

  const int fd = connect_raw(server.bound_port(), /*rcvbuf=*/4096);
  for (int i = 0; i < 100 && server.connections() == 0; ++i)
    loop.run_for(kMillisecond);
  const int server_fd = accepted_end(fd);
  ASSERT_GE(server_fd, 0);
  // Small kernel buffers on both ends, so the backlog lands in the
  // server's own buffer within a few dozen replies.
  const int sndbuf = 4096;
  ::setsockopt(server_fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));

  std::size_t requested = 0;
  std::size_t read_bytes = 0;
  std::size_t peak_buffered = 0;
  int samples = 0;
  int backlogged_samples = 0;
  std::string in;
  std::vector<svc::WireResponse> responses;
  const std::string get = request_frame(1, make_request(SvcOp::Get, 0, "k"));
  for (int i = 0; i < 20000 && read_bytes < 4 * config.max_out_bytes; ++i) {
    // Unsent replies still in the server process: everything asked for
    // and not yet read, minus what sits in either kernel's queue. Top it
    // up to a third of the cap, well clear of the slow-consumer guard.
    int inq = 0;
    int outq = 0;
    ::ioctl(fd, SIOCINQ, &inq);
    ::ioctl(server_fd, SIOCOUTQ, &outq);
    const std::ptrdiff_t held =
        static_cast<std::ptrdiff_t>(requested * frame - read_bytes) - inq -
        outq;
    if (held < static_cast<std::ptrdiff_t>(config.max_out_bytes / 3)) {
      std::string batch;
      for (int k = 0; k < 8; ++k) batch += get;
      ASSERT_EQ(::send(fd, batch.data(), batch.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(batch.size()));
      requested += 8;
    }
    loop.run_for(200);
    read_bytes += read_responses(fd, in, responses, 1024);
    const std::size_t buffered = server.out_buffered_bytes();
    peak_buffered = std::max(peak_buffered, buffered);
    ++samples;
    if (buffered > 0) ++backlogged_samples;
  }
  EXPECT_GE(read_bytes, 4 * config.max_out_bytes);
  EXPECT_EQ(server.stats().slow_consumer_closed, 0u);
  // The scenario held: the server was behind at nearly every sample...
  EXPECT_GT(backlogged_samples, samples * 9 / 10);
  // ...and its buffer never outgrew the cap by more than one frame.
  EXPECT_LE(peak_buffered, config.max_out_bytes + frame);
  obs::MetricsRegistry registry;
  server.export_metrics(registry);
  EXPECT_LE(registry.gauge("svc.out_buffered_bytes").value(),
            static_cast<double>(config.max_out_bytes + frame));
  ::close(fd);
}

// ------------------------------------------------------------ SvcClient ---

// Runs `loop` on its own thread for the blocking SDK; joins on scope exit,
// so handler-side state may be read once it is gone. Servers must be
// built before it starts and outlive it.
class LoopThread {
 public:
  explicit LoopThread(net::EventLoop& loop)
      : loop_(loop), thread_([&loop] { loop.run(); }) {}
  ~LoopThread() {
    loop_.request_stop();
    thread_.join();
  }

 private:
  net::EventLoop& loop_;
  std::thread thread_;
};

TEST(SvcClient, RefencesOnInvalidEpochAndWaitsOutUnavailable) {
  constexpr std::uint64_t kEpoch = 7;
  net::EventLoop loop;
  svc::SvcServer server(loop, kLoopbackIp, 0);
  std::vector<SvcRequest> seen;  // loop thread only, until the join
  server.set_handler([&](SvcRequest req, SvcRespondFn respond) {
    seen.push_back(req);
    switch (seen.size()) {
      case 1:
        respond(SvcResponse::invalid_epoch(kEpoch));
        break;
      case 3:
        respond(SvcResponse::unavailable(/*retry_after_ms=*/5));
        break;
      default:
        respond(SvcResponse::ok(req.view_epoch, req.key));
    }
  });
  {
    LoopThread thread(loop);
    tools::SvcClient client(tools::SvcAddr{"127.0.0.1", server.bound_port()});
    const SvcResponse put = client.call(make_request(SvcOp::Put, 0, "a", "1"));
    EXPECT_EQ(put.status, SvcStatus::Ok);
    EXPECT_EQ(client.fenced_epoch(), kEpoch);
    const SvcResponse get = client.call(make_request(SvcOp::Get, 0, "b"));
    EXPECT_EQ(get.status, SvcStatus::Ok);
    EXPECT_EQ(get.value, "b");
  }
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].view_epoch, 0u);
  EXPECT_EQ(seen[1].view_epoch, kEpoch);  // the retry carries the new fence
  EXPECT_EQ(seen[2].view_epoch, kEpoch);
  EXPECT_EQ(seen[3].key, "b");  // retried after the backoff
  EXPECT_EQ(server.stats().connections_accepted, 1u);
}

TEST(SvcClient, ReturnsNotLeaderAtOnce) {
  net::EventLoop loop;
  svc::SvcServer server(loop, kLoopbackIp, 0);
  int requests = 0;
  server.set_handler([&](SvcRequest, SvcRespondFn respond) {
    ++requests;
    respond(SvcResponse::not_leader(2, 0));
  });
  {
    LoopThread thread(loop);
    tools::SvcClient client(tools::SvcAddr{"127.0.0.1", server.bound_port()});
    const SvcResponse resp = client.call(make_request(SvcOp::Put, 0, "a", "1"));
    EXPECT_EQ(resp.status, SvcStatus::NotLeader);
    EXPECT_EQ(resp.coordinator_site, 2u);
  }
  EXPECT_EQ(requests, 1);
}

TEST(SvcClient, ReconnectsAConnectionClosedMidCall) {
  // The first server takes the request and, instead of answering, is torn
  // down (closing the client's connection) and replaced by a second one
  // on the same port, which answers.
  net::EventLoop loop;
  auto server = std::make_unique<svc::SvcServer>(loop, kLoopbackIp, 0);
  const std::uint16_t port = server->bound_port();
  int answered_by_second = 0;
  server->set_handler([&](SvcRequest, SvcRespondFn) {
    loop.post([&] {
      server.reset();
      server = std::make_unique<svc::SvcServer>(loop, kLoopbackIp, port);
      server->set_handler([&](SvcRequest req, SvcRespondFn respond) {
        ++answered_by_second;
        respond(SvcResponse::ok(req.view_epoch, "second"));
      });
    });
  });
  {
    LoopThread thread(loop);
    tools::SvcClient client(tools::SvcAddr{"127.0.0.1", port});
    const SvcResponse resp = client.call(make_request(SvcOp::Get, 0, "k"));
    EXPECT_EQ(resp.status, SvcStatus::Ok);
    EXPECT_EQ(resp.value, "second");
  }
  EXPECT_EQ(answered_by_second, 1);
  EXPECT_EQ(server->stats().connections_accepted, 1u);
}

// ----------------------------------------------- group objects + fencing ---

app::GroupObjectConfig plain_config(const std::vector<SiteId>& universe) {
  app::GroupObjectConfig cfg;
  cfg.endpoint.universe = universe;
  return cfg;
}

/// Issues one svc_request against a sim-hosted object, capturing the
/// (possibly deferred) typed response.
struct Capture {
  std::optional<SvcResponse> response;
  SvcRespondFn fn() {
    return [this](SvcResponse r) {
      ASSERT_FALSE(response.has_value()) << "second response for one request";
      response = std::move(r);
    };
  }
};

TEST(SvcObjects, KvGetPutRoundTripThroughTheGroup) {
  ObjectCluster<objects::MergeableKv, app::GroupObjectConfig> c(
      3, 11, [](const auto& u) { return plain_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));

  Capture get0;
  c.obj(0).svc_request(make_request(SvcOp::Get, 0, "greeting"), get0.fn());
  ASSERT_TRUE(get0.response.has_value());  // reads answer synchronously
  EXPECT_EQ(get0.response->status, SvcStatus::Ok);
  EXPECT_EQ(get0.response->value, "");  // absent key reads empty
  const std::uint64_t epoch = get0.response->view_epoch;
  EXPECT_GT(epoch, 0u);

  Capture put;
  c.obj(0).svc_request(make_request(SvcOp::Put, epoch, "greeting", "hello"),
                       put.fn());
  ASSERT_TRUE(c.await([&]() { return put.response.has_value(); }));
  EXPECT_EQ(put.response->status, SvcStatus::Ok);
  EXPECT_EQ(put.response->view_epoch, epoch);

  // The write is ordered group-wide: another member serves it.
  ASSERT_TRUE(c.await([&]() {
    return c.obj(2).get("greeting").value_or("") == "hello";
  }));
  Capture get2;
  c.obj(2).svc_request(make_request(SvcOp::Get, epoch, "greeting"), get2.fn());
  ASSERT_TRUE(get2.response.has_value());
  EXPECT_EQ(get2.response->value, "hello");
}

TEST(SvcObjects, StaleEpochIsRejectedWithCurrentEpoch) {
  ObjectCluster<objects::MergeableKv, app::GroupObjectConfig> c(
      3, 12, [](const auto& u) { return plain_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  const std::uint64_t epoch = c.obj(0).view_epoch();

  Capture stale;
  c.obj(0).svc_request(
      make_request(SvcOp::Put, epoch + 7, "k", "v"), stale.fn());
  ASSERT_TRUE(stale.response.has_value());
  EXPECT_EQ(stale.response->status, SvcStatus::InvalidEpoch);
  EXPECT_EQ(stale.response->view_epoch, epoch);
  // The rejected write never entered the total order.
  EXPECT_FALSE(c.obj(0).get("k").has_value());
}

TEST(SvcObjects, InFlightPutIsFencedAcrossViewChange) {
  ObjectCluster<objects::MergeableKv, app::GroupObjectConfig> c(
      3, 13, [](const auto& u) { return plain_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));

  // View synchrony delivers every message in the view it was sent in: even
  // across a partition a member's own forward self-loopbacks and is drained
  // in the dying view, completing with Ok under the old epoch. The only way
  // an op stays in flight across a view change is to submit it while the
  // endpoint is *blocked* for the flush — then it rides app_queue_ into the
  // next view and the fence answers before the re-send delivers. Cut the
  // sequencer (p0) off alone: the survivors' round coordinator blocks while
  // waiting for its peer's ack over the network, an observable window (a
  // lone member acks its own propose in a single event and never shows it).
  const std::size_t victim = 1;
  const std::uint64_t epoch = c.obj(victim).view_epoch();

  c.world().network().set_partition({{c.site(0)}, {c.site(1), c.site(2)}});
  ASSERT_TRUE(c.await([&]() { return c.obj(victim).blocked(); },
                      120 * kSecond, kMillisecond / 4));
  ASSERT_EQ(c.obj(victim).view_epoch(), epoch);  // new view not yet installed

  Capture put;
  c.obj(victim).svc_request(make_request(SvcOp::Put, epoch, "fenced", "value"),
                            put.fn());
  EXPECT_FALSE(put.response.has_value());  // genuinely in flight

  // The view change fences the response with the *new* epoch...
  ASSERT_TRUE(c.await([&]() { return put.response.has_value(); }));
  EXPECT_EQ(put.response->status, SvcStatus::InvalidEpoch);
  EXPECT_GT(put.response->view_epoch, epoch);
  EXPECT_EQ(put.response->view_epoch, c.obj(victim).view_epoch());

  // ...but the queued multicast still delivers in the next view: only the
  // response was fenced, the operation itself is not lost.
  ASSERT_TRUE(c.await([&]() {
    return c.obj(victim).get("fenced").value_or("") == "value";
  }));
}

TEST(SvcObjects, TracedRequestAttributesPhaseLatencies) {
  ObjectCluster<objects::MergeableKv, app::GroupObjectConfig> c(
      3, 16, [](const auto& u) { return plain_config(u); });
  c.world().trace_bus().set_enabled(true);
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));
  const std::size_t victim = 1;
  const std::uint64_t epoch = c.obj(victim).view_epoch();

  // Happy path: a sampled Put runs order -> deliver -> apply, so the order
  // and apply histograms populate and RequestOrdered/Applied land on the
  // bus under the request's trace id; the fence histogram stays empty.
  SvcRequest traced = make_request(SvcOp::Put, epoch, "k", "v");
  traced.trace_id = 0x0badc0ffee0ddf00ull;
  traced.sampled = true;
  Capture put;
  c.obj(victim).svc_request(traced, put.fn());
  ASSERT_TRUE(c.await([&]() { return put.response.has_value(); }));
  EXPECT_EQ(put.response->status, SvcStatus::Ok);
  EXPECT_GE(c.obj(victim).order_latency().count(), 1u);
  EXPECT_GE(c.obj(victim).apply_latency().count(), 1u);
  EXPECT_EQ(c.obj(victim).fence_latency().count(), 0u);
  bool saw_ordered = false, saw_applied = false;
  for (const obs::TraceEvent& e : c.world().trace_bus().events()) {
    if (e.seq != traced.trace_id) continue;
    saw_ordered |= e.kind == obs::EventKind::RequestOrdered;
    saw_applied |= e.kind == obs::EventKind::RequestApplied;
  }
  EXPECT_TRUE(saw_ordered);
  EXPECT_TRUE(saw_applied);

  // Fence path: same blocked-endpoint window as InFlightPutIsFenced...
  // above, but with a sampled request — the view-change fence must
  // attribute the wait to the fence histogram and emit RequestFenced.
  c.world().network().set_partition({{c.site(0)}, {c.site(1), c.site(2)}});
  ASSERT_TRUE(c.await([&]() { return c.obj(victim).blocked(); },
                      120 * kSecond, kMillisecond / 4));
  ASSERT_EQ(c.obj(victim).view_epoch(), epoch);

  SvcRequest fenced = make_request(SvcOp::Put, epoch, "fenced", "value");
  fenced.trace_id = 0x7ace7ace7ace7aceull;
  fenced.sampled = true;
  Capture blocked_put;
  c.obj(victim).svc_request(fenced, blocked_put.fn());
  EXPECT_FALSE(blocked_put.response.has_value());  // genuinely in flight

  ASSERT_TRUE(c.await([&]() { return blocked_put.response.has_value(); }));
  EXPECT_EQ(blocked_put.response->status, SvcStatus::InvalidEpoch);
  EXPECT_GT(blocked_put.response->view_epoch, epoch);
  EXPECT_GE(c.obj(victim).fence_latency().count(), 1u);
  bool saw_fenced = false;
  for (const obs::TraceEvent& e : c.world().trace_bus().events()) {
    saw_fenced |= e.seq == fenced.trace_id &&
                  e.kind == obs::EventKind::RequestFenced;
  }
  EXPECT_TRUE(saw_fenced);
}

TEST(SvcObjects, LockConflictCarriesLeaseRetryHint) {
  ObjectCluster<objects::LockManager, app::GroupObjectConfig> c(
      3, 14, [](const auto& u) { return plain_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));

  Capture lock0;
  c.obj(0).svc_request(make_request(SvcOp::Lock, 0), lock0.fn());
  ASSERT_TRUE(c.await([&]() { return lock0.response.has_value(); }));
  EXPECT_EQ(lock0.response->status, SvcStatus::Ok);
  EXPECT_EQ(lock0.response->value, to_string(c.obj(0).id()));
  ASSERT_TRUE(c.await([&]() { return c.obj(1).holder().has_value(); }));

  // A competing client through another member: Conflict with the
  // remaining lease as its retry hint.
  Capture lock1;
  c.obj(1).svc_request(make_request(SvcOp::Lock, 0), lock1.fn());
  ASSERT_TRUE(c.await([&]() { return lock1.response.has_value(); }));
  EXPECT_EQ(lock1.response->status, SvcStatus::Conflict);
  EXPECT_GT(lock1.response->retry_after_ms, 0u);

  // Get reports the holder; Unlock by the holder frees it.
  Capture who;
  c.obj(2).svc_request(make_request(SvcOp::Get, 0), who.fn());
  ASSERT_TRUE(who.response.has_value());
  EXPECT_EQ(who.response->value, to_string(c.obj(0).id()));

  Capture unlock;
  c.obj(0).svc_request(make_request(SvcOp::Unlock, 0), unlock.fn());
  ASSERT_TRUE(c.await([&]() { return unlock.response.has_value(); }));
  EXPECT_EQ(unlock.response->status, SvcStatus::Ok);
  ASSERT_TRUE(c.await([&]() { return !c.obj(2).holder().has_value(); }));
}

objects::ReplicatedFileConfig file_config(const std::vector<SiteId>& u) {
  objects::ReplicatedFileConfig cfg;
  cfg.object.endpoint.universe = u;
  return cfg;
}

TEST(SvcObjects, FileServesPutAppendAndMinorityUnavailable) {
  ObjectCluster<objects::ReplicatedFile, objects::ReplicatedFileConfig> c(
      3, 15, [](const auto& u) { return file_config(u); });
  ASSERT_TRUE(c.await_all_normal(c.all_indices()));

  Capture put;
  c.obj(0).svc_request(make_request(SvcOp::Put, 0, "", "hello"), put.fn());
  ASSERT_TRUE(c.await([&]() { return put.response.has_value(); }));
  EXPECT_EQ(put.response->status, SvcStatus::Ok);

  Capture append;
  c.obj(1).svc_request(make_request(SvcOp::Append, 0, "", " world"),
                       append.fn());
  ASSERT_TRUE(c.await([&]() { return append.response.has_value(); }));
  EXPECT_EQ(append.response->status, SvcStatus::Ok);
  ASSERT_TRUE(c.await([&]() { return c.obj(2).content() == "hello world"; }));

  // Unsupported op against this object type.
  Capture lock;
  c.obj(0).svc_request(make_request(SvcOp::Lock, 0), lock.fn());
  ASSERT_TRUE(lock.response.has_value());
  EXPECT_EQ(lock.response->status, SvcStatus::Unsupported);

  // Quorum loss: the minority member keeps serving reads but answers
  // writes Unavailable{retry} — typed, never a hang.
  c.world().network().set_partition({{c.site(2)}, {c.site(0), c.site(1)}});
  ASSERT_TRUE(c.await([&]() {
    return c.obj(2).view().size() == 1 && !c.obj(2).blocked();
  }));
  Capture read;
  c.obj(2).svc_request(make_request(SvcOp::Get, 0), read.fn());
  ASSERT_TRUE(read.response.has_value());
  EXPECT_EQ(read.response->status, SvcStatus::Ok);
  EXPECT_EQ(read.response->value, "hello world");  // stale reads allowed
  Capture write;
  c.obj(2).svc_request(make_request(SvcOp::Put, 0, "", "minority"),
                       write.fn());
  ASSERT_TRUE(write.response.has_value());
  EXPECT_EQ(write.response->status, SvcStatus::Unavailable);
  EXPECT_GT(write.response->retry_after_ms, 0u);
}

}  // namespace
}  // namespace evs::test
