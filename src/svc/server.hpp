// Client front door, part 3: the per-node service endpoint.
//
// One SvcServer per node serves the external-client request/response
// protocol (svc/protocol.hpp) on a TCP listen socket, driven entirely by
// the node's existing epoll EventLoop — no threads, on the node's one TCP
// connection engine (net/tcp_server.hpp), which the admin plane shares.
// Connections are persistent and requests may be pipelined; responses
// carry the client's request_id, so they complete in any order.
//
// Admission control and backpressure are first-class, not best-effort:
//
//   * connection cap         — accepts past max_connections are shed at
//                              the engine (closed immediately);
//   * per-connection cap     — more than max_inflight_per_conn
//                              unanswered requests on one connection get
//                              Unavailable{retry_after_ms} without ever
//                              reaching the node;
//   * bounded request queue  — more than max_pending requests in flight
//                              across all connections likewise shed with
//                              Unavailable{retry_after_ms};
//   * request timeout        — a request the node has not answered within
//                              request_timeout is answered
//                              Unavailable{retry_after_ms} (the late
//                              completion is then dropped), so a wedged
//                              replica can never hang a client;
//   * slow-consumer guard    — a connection whose unread response backlog
//                              exceeds max_out_bytes is closed rather than
//                              buffering without bound.
//
// Every outcome is counted (SvcStats) and exported through
// export_metrics() under the "svc." prefix — requests_ok / _conflict /
// _stale_epoch / _shed and friends plus an end-to-end latency histogram —
// so /metrics shows exactly how the front door is treating clients.
//
// Replies are written once per connection per loop iteration. A
// completion only appends its frame to the connection's out buffer; the
// engine's Reply-stage flush hook then hands each dirty connection's bytes
// to the kernel in one send(2). That stage runs after the store's group
// commit (Durable) and before the transport's datagrams (Wire) — see
// net::EventLoop::FlushStage — so a reply never leaves ahead of the sync
// that makes its write durable, and never queues behind the multicast
// batch. Pipelined completions of one iteration leave as one segment, so
// the engine's TCP_NODELAY adds no syscalls or packets; it only stops
// Nagle from holding a reply until the client's delayed ACK. The engine
// reports how many bytes each write took, which is when a reply is timed
// (reply_us) and traced (RequestReplied). A reply dropped with its
// connection is traced then, so every traced request admitted here ends
// in one RequestReplied.
//
// Requests are routed to the hosted node through a Handler wired to
// runtime::Node::svc_request. The handler's respond callback may fire
// synchronously (reads, rejections) or later (ordered writes); a
// completion that outlives its connection is counted responses_orphaned
// and dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/svc.hpp"
#include "svc/protocol.hpp"

namespace evs::svc {

struct SvcServerConfig {
  /// Simultaneous client connections; extra accepts are shed.
  std::size_t max_connections = 1024;
  /// Unanswered requests allowed per connection before shedding.
  std::size_t max_inflight_per_conn = 64;
  /// Unanswered requests allowed across all connections before shedding.
  std::size_t max_pending = 4096;
  /// Unread response backlog per connection before the slow consumer is
  /// closed.
  std::size_t max_out_bytes = 4 * 1024 * 1024;
  /// Hint carried in shed responses (Unavailable{retry_after_ms}).
  std::uint64_t shed_retry_after_ms = 50;
  /// Deadline for the node to answer one request, in microseconds of loop
  /// time; 0 disables the timeout.
  SimDuration request_timeout = 10'000'000;
};

struct SvcStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_shed = 0;     // over max_connections
  std::uint64_t dropped_malformed = 0;    // bad frame / undecodable request
  std::uint64_t requests_ok = 0;          // responses by status...
  std::uint64_t requests_conflict = 0;
  std::uint64_t requests_stale_epoch = 0;
  std::uint64_t requests_unavailable = 0;
  std::uint64_t requests_unsupported = 0;
  std::uint64_t requests_not_leader = 0;  // write redirected to coordinator
  std::uint64_t requests_shed = 0;        // admission control; never reached
                                          // the node (also Unavailable on
                                          // the wire, counted here instead)
  std::uint64_t requests_timed_out = 0;   // node missed request_timeout
  std::uint64_t responses_orphaned = 0;   // completed after conn close
  std::uint64_t slow_consumer_closed = 0;
  std::uint64_t send_calls = 0;           // send(2) calls writing replies
  std::uint64_t read_calls = 0;           // read(2) calls reading requests
};

class SvcServer {
 public:
  /// Routes one decoded request into the node; must call the respond
  /// callback exactly once (see runtime::Node::svc_request).
  using Handler =
      std::function<void(runtime::SvcRequest, runtime::SvcRespondFn)>;

  /// Binds ip:port (host byte order; port 0 picks an ephemeral port, see
  /// bound_port()) and registers with the loop. Throws InvariantViolation
  /// on bind/listen failure.
  SvcServer(net::EventLoop& loop, std::uint32_t ip, std::uint16_t port,
            SvcServerConfig config = {});
  ~SvcServer();
  SvcServer(const SvcServer&) = delete;
  SvcServer& operator=(const SvcServer&) = delete;

  std::uint16_t bound_port() const { return engine_.bound_port(); }

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Wires the trace bus the server reports request lifecycle events to
  /// (RequestAdmitted at dispatch, RequestReplied when the response frame
  /// is handed to the kernel or dropped with its connection). The server
  /// has no protocol identity of its own, so the host passes the hosted
  /// node's — events of both layers then collate under one process in
  /// the merged trace. Null disables emission.
  void set_trace(obs::TraceBus* bus, ProcessId self) {
    trace_ = bus;
    self_ = self;
  }

  /// The server's counters, connection and syscall counts included.
  SvcStats stats() const;
  const SvcServerConfig& config() const { return config_; }
  std::size_t connections() const { return engine_.size(); }
  /// Requests currently awaiting a node response.
  std::size_t pending() const { return pending_; }
  /// Reply bytes held across all connections, not yet taken by the kernel
  /// (the svc.out_buffered_bytes gauge).
  std::size_t out_buffered_bytes() const {
    return engine_.out_buffered_bytes();
  }

  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "svc") const;

 private:
  /// A node-answered reply whose frame sits in Conn::out; it is timed
  /// (reply_us) and traced (RequestReplied) once its last byte is sent.
  struct QueuedReply {
    std::size_t end = 0;  // offset in `out` just past the frame
    SimTime completed = 0;
    std::uint64_t trace = 0;  // effective trace context (0 = untraced)
    std::uint64_t request_id = 0;
    runtime::SvcStatus status = runtime::SvcStatus::Ok;
  };

  /// The server's share of a connection slot.
  struct ConnState {
    std::vector<QueuedReply> replies;  // answered frames in `out`, in order
    std::size_t inflight = 0;
  };
  using Engine = net::TcpServer<ConnState>;
  using Conn = Engine::Conn;

  /// One in-flight request's identity, shared with the respond closure and
  /// the timeout timer. `alive` mirrors the server's lifetime so a
  /// completion arriving after teardown is a no-op, not a wild pointer.
  struct RequestCtx {
    SvcServer* server = nullptr;
    std::shared_ptr<bool> alive;
    Engine::Handle conn;
    std::uint64_t request_id = 0;
    /// Effective trace context of the request (0 = untraced).
    std::uint64_t trace = 0;
    SimTime start = 0;
    runtime::TimerId timer = 0;
    bool done = false;
  };

  /// Parses and dispatches every complete frame of one read pass.
  /// `arrival` is when the pass started — the origin of the
  /// admission-wait histogram.
  void on_data(Conn& conn, SimTime arrival);
  /// Admits + dispatches one decoded request; returns false when the
  /// connection was closed underneath (stop parsing its buffer).
  bool dispatch(Conn& conn, std::uint64_t request_id, runtime::SvcRequest req,
                SimTime arrival);
  static void complete(const std::shared_ptr<RequestCtx>& ctx,
                       runtime::SvcResponse resp, bool timed_out);
  void count_response(const runtime::SvcResponse& resp);
  /// Appends one response frame to `conn.out` for the next reply flush.
  /// Returns false when the backlog passed max_out_bytes and the engine
  /// closed the slow consumer.
  bool queue_response(Conn& conn, std::uint64_t request_id,
                      const runtime::SvcResponse& resp);
  /// One write took `sent` bytes of `conn.out`: times and traces the
  /// replies it completed.
  void on_sent(Conn& conn, std::size_t sent);
  /// `conn` closes: traces the replies it still held as done.
  void on_close(Conn& conn);
  /// Records RequestReplied for a traced request (`trace` != 0).
  void trace_replied(std::uint64_t trace, std::uint64_t request_id,
                     runtime::SvcStatus status);

  net::EventLoop& loop_;
  SvcServerConfig config_;
  Handler handler_;
  std::size_t pending_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  SvcStats stats_;
  /// Per-phase attribution: admit_us (socket arrival to node dispatch),
  /// latency_us (dispatch to node completion — the node's share, the
  /// ordering/fence spans inside it are the group object's histograms),
  /// reply_us (completion to the frame's last byte handed to the kernel,
  /// recorded at flush time).
  obs::Histogram admit_us_;
  obs::Histogram latency_us_;
  obs::Histogram reply_us_;
  obs::TraceBus* trace_ = nullptr;
  ProcessId self_{};

  Engine engine_;  // last: destroyed first, closing every connection
};

}  // namespace evs::svc
