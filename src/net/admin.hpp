// The per-node admin plane: live observability plus the control surface.
//
// A tiny HTTP/1.0 text server on one TCP listen socket, driven entirely
// by the node's existing epoll EventLoop — no threads, no allocation on
// the wire path, nothing shared with the UDP transport.
//
// Read side (GET):
//
//   GET /status        — one JSON object: runtime identity (site,
//                        incarnation, ports, uptime) plus whatever the
//                        hosted node reports through
//                        runtime::Node::admin_status_json() (view id,
//                        mode, subview/sv-set structure, member list).
//   GET /metrics       — MetricsRegistry snapshot as JSON. The registry
//                        is refreshed through a caller-supplied hook
//                        right before serialising, so scrapes always see
//                        live counters, not the last export.
//   GET /metrics.prom  — the same snapshot as Prometheus text exposition
//                        (MetricsRegistry::to_prometheus()).
//   GET /trace?since=N — incremental JSONL tail of the TraceBus: events
//                        with recording index >= N (capped per response),
//                        each line carrying an "i" index field; the
//                        X-Evs-Next-Since response header is the N to
//                        pass on the next poll.
//   GET /trace?req=T   — the same tail filtered to the Request* lifecycle
//                        events of trace id T (combinable with since=),
//                        i.e. the hops one sampled client request took
//                        through this node.
//   GET /health        — the online oracle checker's verdict (a JSON
//                        object from obs::LiveChecker::health_json):
//                        events checked, entries tracked, violations
//                        total / per group, recent violation summaries.
//                        Always HTTP 200; the body's "healthy" flag
//                        carries the verdict.
//
// Write side (POST) — the paper's application-control calls, exposed so
// an operator, orchestrator or tools/evs_ctl can drive Figure-1 mode
// transitions (Reconfigure / Reconcile) from outside the process:
//
//   POST /join             — nudge an immediate reconfiguration round
//   POST /leave            — announce departure and halt the node
//   POST /merge-all        — collapse the whole e-view structure
//   POST /merge?svset=<id>,<id>,... — SV-SetMerge of the listed sv-sets
//
// Commands are routed through a host-supplied callback (NetRuntime wires
// it to runtime::Node::admin_command) and require a shared-secret token
// (config line `admin_token <secret>`), carried either in an
// X-Admin-Token request header or a `token=<secret>` form body. Without
// a configured token the write side is disabled entirely (403). Requests
// failing authentication are 401; both are counted in
// admin.dropped_unauthorized. Accepted and rejected commands are counted
// in admin.commands_*.
//
// The receive path is hardened the same way udp_transport's is: requests
// are read into a bounded buffer, anything malformed (bad request line,
// unknown method, unparseable Content-Length) is counted and the
// connection dropped with a terse error, bodies over the cap are 413'd,
// and a cap on simultaneous connections sheds load instead of queueing
// it. Connections run on the node's one TCP engine (net/tcp_server.hpp):
// a response is queued whole and leaves in the Reply flush stage, the
// engine closes the connection once it has drained (HTTP/1.0
// `Connection: close`), and a response that overruns the socket buffer
// finishes under EPOLLOUT — a slow scraper never blocks the loop.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/event_loop.hpp"
#include "net/tcp_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace evs::net {

struct AdminStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t dropped_malformed = 0;     // bad request line / method / query
  std::uint64_t dropped_oversize = 0;      // request or body exceeded its cap
  std::uint64_t dropped_overload = 0;      // connection cap reached
  std::uint64_t dropped_unauthorized = 0;  // POST without a valid token
  std::uint64_t not_found = 0;             // unknown path (404 served)
  std::uint64_t commands_ok = 0;           // POST commands accepted
  std::uint64_t commands_rejected = 0;     // authenticated but refused (400)
};

/// Outcome of one admin-plane control command, as reported by the host's
/// command callback.
struct AdminCommandResult {
  bool ok = false;
  std::string message;  // human-readable rejection reason when !ok
};

/// Stable numeric code for an admin command name, recorded in the `seq`
/// field of EventKind::AdminCommand trace events (0 = unknown).
std::uint64_t admin_command_code(const std::string& name);

class AdminServer {
 public:
  /// Longest request (line + headers) accepted before 400 + drop.
  static constexpr std::size_t kMaxRequestBytes = 4096;
  /// Longest POST body accepted before 413 + drop.
  static constexpr std::size_t kMaxBodyBytes = 1024;
  /// Simultaneous connections served; extra accepts are shed immediately.
  static constexpr std::size_t kMaxConnections = 32;
  /// Trace events per /trace response; pollers page with ?since=.
  static constexpr std::size_t kMaxTraceEvents = 4096;

  /// Binds ip:port (host byte order; port 0 picks an ephemeral port, see
  /// bound_port()) and registers with the loop. Throws InvariantViolation
  /// on bind/listen failure.
  AdminServer(EventLoop& loop, std::uint32_t ip, std::uint16_t port);
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  std::uint16_t bound_port() const { return engine_.bound_port(); }

  /// Supplies the /status body (a complete JSON object).
  void set_status(std::function<std::string()> fn) { status_ = std::move(fn); }

  /// Wires /metrics[.prom] to `registry`; `refresh` (may be empty) runs
  /// before every serialisation so exports are current at scrape time.
  void set_metrics(const obs::MetricsRegistry* registry,
                   std::function<void()> refresh) {
    registry_ = registry;
    refresh_ = std::move(refresh);
  }

  /// Wires /trace to `bus` (served 503 until set).
  void set_trace(const obs::TraceBus* bus) { trace_ = bus; }

  /// Supplies the /health body (a complete JSON object; served 503 until
  /// set). NetRuntime wires this to its online LiveChecker.
  void set_health(std::function<std::string()> fn) { health_ = std::move(fn); }

  /// Arms the write side: POST commands are only accepted when the
  /// request carries `token`. An empty token keeps the plane read-only.
  void set_token(std::string token) { token_ = std::move(token); }

  /// Routes authenticated POST commands; receives the command name
  /// ("join", "leave", "merge-all", "merge") and its argument text (the
  /// svset= query value for /merge, empty otherwise). Served 503 until
  /// set.
  using CommandFn =
      std::function<AdminCommandResult(const std::string& name,
                                       const std::string& arg)>;
  void set_command(CommandFn fn) { command_ = std::move(fn); }

  /// The server's counters, connection counts included.
  AdminStats stats() const;
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "admin") const;

 private:
  struct NoExtra {};
  using Engine = TcpServer<NoExtra>;
  using Conn = Engine::Conn;

  void on_data(Conn& conn);
  /// Parses conn.in once the header section is complete; responds, or
  /// returns with nothing queued while POST body bytes are still owed.
  void handle_request(Conn& conn, std::size_t body_at);
  void serve_get(Conn& conn, const std::string& path,
                 const std::string& query);
  /// Authenticates and dispatches one POST command.
  void handle_command(Conn& conn, const std::string& path,
                      const std::string& query, const std::string& headers,
                      const std::string& body);
  /// Counts one refused request in `counter` and answers it `code`.
  void refuse(Conn& conn, std::uint64_t& counter, int code,
              std::string message);
  /// Queues the whole response and closes the connection once it drained.
  void respond(Conn& conn, int code, const std::string& content_type,
               std::string body, const std::string& extra_headers = {});

  std::function<std::string()> status_;
  std::function<std::string()> health_;
  const obs::MetricsRegistry* registry_ = nullptr;
  std::function<void()> refresh_;
  const obs::TraceBus* trace_ = nullptr;
  std::string token_;
  CommandFn command_;

  AdminStats stats_;
  Engine engine_;
};

}  // namespace evs::net
