#include "svc/server.hpp"

#include <utility>
#include <vector>

#include "common/check.hpp"

namespace evs::svc {

using runtime::SvcRequest;
using runtime::SvcRespondFn;
using runtime::SvcResponse;
using runtime::SvcStatus;

SvcServer::SvcServer(net::EventLoop& loop, std::uint32_t ip,
                     std::uint16_t port, SvcServerConfig config)
    : loop_(loop),
      config_(config),
      engine_(loop, ip, port, "svc", config_.max_connections,
              config_.max_out_bytes,
              {.on_data = [this](Conn& conn,
                                 SimTime arrival) { on_data(conn, arrival); },
               .on_sent = [this](Conn& conn,
                                 std::size_t sent) { on_sent(conn, sent); },
               .on_close = [this](Conn& conn) { on_close(conn); }}) {}

SvcServer::~SvcServer() {
  *alive_ = false;  // completions and timers in flight become no-ops
}

SvcStats SvcServer::stats() const {
  SvcStats stats = stats_;
  const net::TcpStats& tcp = engine_.stats();
  stats.connections_accepted = tcp.accepted;
  stats.connections_shed = tcp.shed;
  stats.slow_consumer_closed = tcp.overflow_closed;
  stats.send_calls = tcp.send_calls;
  stats.read_calls = tcp.read_calls;
  return stats;
}

void SvcServer::on_data(Conn& conn, SimTime arrival) {
  // Every dispatch may close this connection (a synchronous completion
  // can hit the slow-consumer guard), so the slot is looked up again per
  // frame and consumed bytes are erased only at the end.
  const Engine::Handle handle = Engine::handle(conn);
  std::size_t offset = 0;
  for (Conn* c; (c = engine_.find(handle)) != nullptr;) {
    Bytes body;
    const FrameStatus status = next_frame(c->in, offset, body);
    if (status == FrameStatus::NeedMore) {
      c->in.erase(0, offset);
      return;
    }
    WireRequest wire;
    bool well_formed = status == FrameStatus::Frame;
    if (well_formed) {
      try {
        wire = decode_request(body);
      } catch (const DecodeError&) {
        well_formed = false;
      }
    }
    if (!well_formed) {
      ++stats_.dropped_malformed;
      engine_.close(*c);
      return;
    }
    if (!dispatch(*c, wire.request_id, std::move(wire.req), arrival)) return;
  }
}

bool SvcServer::dispatch(Conn& conn, std::uint64_t request_id, SvcRequest req,
                         SimTime arrival) {
  // Admission control: shed with a retry hint instead of queueing beyond
  // the caps; the request never reaches the node.
  if (!handler_ || conn.extra.inflight >= config_.max_inflight_per_conn ||
      pending_ >= config_.max_pending) {
    ++stats_.requests_shed;
    return queue_response(
        conn, request_id,
        SvcResponse::unavailable(config_.shed_retry_after_ms));
  }

  ++conn.extra.inflight;
  ++pending_;
  auto ctx = std::make_shared<RequestCtx>();
  ctx->server = this;
  ctx->alive = alive_;
  ctx->conn = Engine::handle(conn);
  ctx->request_id = request_id;
  ctx->trace = runtime::effective_trace(req);
  ctx->start = loop_.now();
  admit_us_.record(static_cast<double>(ctx->start - arrival));
  if (ctx->trace != 0 && trace_ != nullptr && trace_->enabled()) {
    trace_->record({ctx->start, self_, obs::EventKind::RequestAdmitted, {}, {},
                    ctx->trace, static_cast<std::uint64_t>(req.op),
                    request_id});
  }
  if (config_.request_timeout > 0) {
    ctx->timer = loop_.set_timer(config_.request_timeout, [ctx]() {
      complete(ctx, SvcResponse::unavailable(
                        ctx->alive && *ctx->alive
                            ? ctx->server->config_.shed_retry_after_ms
                            : 0),
               /*timed_out=*/true);
    });
  }
  handler_(std::move(req),
           [ctx](SvcResponse resp) { complete(ctx, std::move(resp), false); });
  return engine_.find(ctx->conn) != nullptr;
}

void SvcServer::complete(const std::shared_ptr<RequestCtx>& ctx,
                         SvcResponse resp, bool timed_out) {
  if (ctx->done) return;  // late completion after timeout, or double call
  ctx->done = true;
  if (!ctx->alive || !*ctx->alive) return;  // server torn down
  SvcServer* server = ctx->server;
  if (ctx->timer != 0 && !timed_out) server->loop_.cancel_timer(ctx->timer);
  if (timed_out) ++server->stats_.requests_timed_out;
  EVS_CHECK(server->pending_ > 0);
  --server->pending_;
  server->latency_us_.record(
      static_cast<double>(server->loop_.now() - ctx->start));
  server->count_response(resp);
  Conn* conn = server->engine_.find(ctx->conn);
  if (conn == nullptr) {
    ++server->stats_.responses_orphaned;
    server->trace_replied(ctx->trace, ctx->request_id, resp.status);
    return;
  }
  EVS_CHECK(conn->extra.inflight > 0);
  --conn->extra.inflight;
  if (!server->queue_response(*conn, ctx->request_id, resp)) {
    server->trace_replied(ctx->trace, ctx->request_id, resp.status);
    return;
  }
  conn->extra.replies.push_back({conn->out.size(), server->loop_.now(),
                                 ctx->trace, ctx->request_id, resp.status});
}

void SvcServer::count_response(const SvcResponse& resp) {
  switch (resp.status) {
    case SvcStatus::Ok: ++stats_.requests_ok; break;
    case SvcStatus::Conflict: ++stats_.requests_conflict; break;
    case SvcStatus::InvalidEpoch: ++stats_.requests_stale_epoch; break;
    case SvcStatus::Unavailable: ++stats_.requests_unavailable; break;
    case SvcStatus::Unsupported: ++stats_.requests_unsupported; break;
    case SvcStatus::NotLeader: ++stats_.requests_not_leader; break;
  }
}

bool SvcServer::queue_response(Conn& conn, std::uint64_t request_id,
                               const SvcResponse& resp) {
  append_frame(conn.out, encode_response(request_id, resp));
  return engine_.queued(conn);
}

void SvcServer::on_sent(Conn& conn, std::size_t sent) {
  const SimTime now = loop_.now();
  std::vector<QueuedReply>& replies = conn.extra.replies;
  std::size_t done = 0;
  for (; done < replies.size() && replies[done].end <= sent; ++done) {
    const QueuedReply& reply = replies[done];
    reply_us_.record(static_cast<double>(now - reply.completed));
    trace_replied(reply.trace, reply.request_id, reply.status);
  }
  replies.erase(replies.begin(),
                replies.begin() + static_cast<std::ptrdiff_t>(done));
  for (QueuedReply& reply : replies) reply.end -= sent;
}

void SvcServer::on_close(Conn& conn) {
  for (const QueuedReply& reply : conn.extra.replies)
    trace_replied(reply.trace, reply.request_id, reply.status);
}

void SvcServer::trace_replied(std::uint64_t trace, std::uint64_t request_id,
                              SvcStatus status) {
  if (trace == 0 || trace_ == nullptr || !trace_->enabled()) return;
  trace_->record({loop_.now(), self_, obs::EventKind::RequestReplied, {}, {},
                  trace, static_cast<std::uint64_t>(status), request_id});
}

void SvcServer::export_metrics(obs::MetricsRegistry& registry,
                               const std::string& prefix) const {
  const SvcStats s = stats();
  for (const auto& [name, value] : {
           std::pair{"connections_accepted", s.connections_accepted},
           {"connections_shed", s.connections_shed},
           {"dropped_malformed", s.dropped_malformed},
           {"requests_ok", s.requests_ok},
           {"requests_conflict", s.requests_conflict},
           {"requests_stale_epoch", s.requests_stale_epoch},
           {"requests_unavailable", s.requests_unavailable},
           {"requests_unsupported", s.requests_unsupported},
           {"requests_not_leader", s.requests_not_leader},
           {"requests_shed", s.requests_shed},
           {"requests_timed_out", s.requests_timed_out},
           {"responses_orphaned", s.responses_orphaned},
           {"slow_consumer_closed", s.slow_consumer_closed},
           {"send_calls", s.send_calls},
           {"read_calls", s.read_calls},
       })
    registry.counter(prefix + "." + name).set(value);
  registry.gauge(prefix + ".out_buffered_bytes")
      .set(static_cast<double>(out_buffered_bytes()));
  registry.gauge(prefix + ".connections")
      .set(static_cast<double>(connections()));
  registry.gauge(prefix + ".pending").set(static_cast<double>(pending_));
  registry.histogram(prefix + ".admit_us") = admit_us_;
  registry.histogram(prefix + ".latency_us") = latency_us_;
  registry.histogram(prefix + ".reply_us") = reply_us_;
}

}  // namespace evs::svc
