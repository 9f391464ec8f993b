#include "svc/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
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
      listener_(
          loop, ip, port,
          net::TcpListener::Callbacks{
              .at_capacity =
                  [this]() {
                    return connections_.size() >= config_.max_connections;
                  },
              .on_connection = [this](int fd) { on_connection(fd); },
              .on_shed = [this]() { ++stats_.connections_shed; },
          },
          "svc") {
  flush_hook_ = loop_.add_flush_hook(net::EventLoop::FlushStage::Reply,
                                     [this]() { flush_replies(); });
}

SvcServer::~SvcServer() {
  loop_.remove_flush_hook(flush_hook_);
  *alive_ = false;  // completions and timers in flight become no-ops
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (const int fd : fds) {
    loop_.remove_fd(fd);
    ::close(fd);
  }
  connections_.clear();
}

void SvcServer::on_connection(int fd) {
  ++stats_.connections_accepted;
  Conn conn;
  conn.gen = next_conn_gen_++;
  connections_.emplace(fd, std::move(conn));
  loop_.add_fd(fd, [this, fd]() { on_readable(fd); });
}

void SvcServer::on_readable(int fd) {
  // One arrival stamp per socket pass: every frame parsed below waited at
  // least from here, so pipelined requests see their queueing delay.
  const SimTime arrival = loop_.now();
  {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Conn& conn = it->second;
    // Read straight into the buffer, stopping at the first short read:
    // the socket is then empty, and the loop is level-triggered, so the
    // read(2) that would only return EAGAIN is never made.
    constexpr std::size_t kReadChunk = 4096;
    for (;;) {
      const std::size_t used = conn.in.size();
      conn.in.resize(used + kReadChunk);
      ++stats_.read_calls;
      const ssize_t n = ::read(fd, conn.in.data() + used, kReadChunk);
      conn.in.resize(used + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
      if (n == 0) {  // peer closed
        close_connection(fd);
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        close_connection(fd);  // reset etc.
        return;
      }
      if (static_cast<std::size_t>(n) < kReadChunk) break;
    }
  }
  // Parse complete frames. Every dispatch may mutate connections_ (a
  // synchronous completion can hit the slow-consumer guard or a broken
  // pipe and close this very connection), so the Conn is re-looked-up
  // per frame and consumed bytes erased only at the end.
  std::size_t offset = 0;
  for (;;) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Conn& conn = it->second;
    Bytes body;
    const FrameStatus status =
        next_frame(conn.in, offset, body, config_.max_frame_bytes);
    if (status == FrameStatus::NeedMore) break;
    if (status == FrameStatus::Malformed) {
      ++stats_.dropped_malformed;
      close_connection(fd);
      return;
    }
    WireRequest wire;
    try {
      wire = decode_request(body);
    } catch (const DecodeError&) {
      ++stats_.dropped_malformed;
      close_connection(fd);
      return;
    }
    if (!dispatch(fd, wire.request_id, std::move(wire.req), arrival)) return;
  }
  const auto it = connections_.find(fd);
  if (it != connections_.end() && offset > 0) it->second.in.erase(0, offset);
}

bool SvcServer::dispatch(int fd, std::uint64_t request_id, SvcRequest req,
                         SimTime arrival) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return false;
  Conn& conn = it->second;

  // Admission control: shed with a retry hint instead of queueing beyond
  // the caps; the request never reaches the node.
  if (!handler_ || conn.inflight >= config_.max_inflight_per_conn ||
      pending_ >= config_.max_pending) {
    ++stats_.requests_shed;
    return queue_response(
        fd, conn, request_id,
        SvcResponse::unavailable(config_.shed_retry_after_ms));
  }

  ++conn.inflight;
  ++pending_;
  auto ctx = std::make_shared<RequestCtx>();
  ctx->server = this;
  ctx->alive = alive_;
  ctx->fd = fd;
  ctx->gen = conn.gen;
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
  return connections_.contains(fd);
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
  const auto it = server->connections_.find(ctx->fd);
  if (it == server->connections_.end() || it->second.gen != ctx->gen) {
    ++server->stats_.responses_orphaned;
    return;
  }
  Conn& conn = it->second;
  EVS_CHECK(conn.inflight > 0);
  --conn.inflight;
  if (!server->queue_response(ctx->fd, conn, ctx->request_id, resp)) return;
  conn.replies.push_back({conn.out.size(), server->loop_.now(), ctx->trace,
                          ctx->request_id, resp.status});
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

bool SvcServer::queue_response(int fd, Conn& conn, std::uint64_t request_id,
                               const SvcResponse& resp) {
  append_frame(conn.out, encode_response(request_id, resp));
  if (conn.out.size() > config_.max_out_bytes) {
    // The client is not reading its responses; buffering without bound
    // would let one slow consumer eat the node's memory.
    ++stats_.slow_consumer_closed;
    close_connection(fd);
    return false;
  }
  // A connection under write interest waits for on_writable instead: its
  // socket is full, and a write now would only return EAGAIN.
  if (!conn.want_write) mark_dirty(fd, conn);
  return true;
}

void SvcServer::mark_dirty(int fd, Conn& conn) {
  if (conn.dirty) return;
  conn.dirty = true;
  dirty_.push_back(fd);
}

void SvcServer::flush_replies() {
  for (const int fd : dirty_) {
    const auto it = connections_.find(fd);
    if (it == connections_.end() || !it->second.dirty) continue;
    it->second.dirty = false;
    write_out(fd, it->second);
  }
  dirty_.clear();
}

void SvcServer::write_out(int fd, Conn& conn) {
  ++stats_.send_calls;
  const ssize_t n =
      ::send(fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    close_connection(fd);  // broken pipe etc.
    return;
  }
  const std::size_t sent = n > 0 ? static_cast<std::size_t>(n) : 0;
  const SimTime now = loop_.now();
  std::size_t done = 0;
  for (; done < conn.replies.size() && conn.replies[done].end <= sent; ++done) {
    const QueuedReply& reply = conn.replies[done];
    reply_us_.record(static_cast<double>(now - reply.completed));
    if (reply.trace != 0 && trace_ != nullptr && trace_->enabled()) {
      trace_->record({now, self_, obs::EventKind::RequestReplied, {}, {},
                      reply.trace, static_cast<std::uint64_t>(reply.status),
                      reply.request_id});
    }
  }
  conn.replies.erase(conn.replies.begin(),
                     conn.replies.begin() + static_cast<std::ptrdiff_t>(done));
  for (QueuedReply& reply : conn.replies) reply.end -= sent;
  // Keep only the unsent tail, so `out` is bounded by max_out_bytes even
  // for a client that reads steadily but never catches up.
  conn.out.erase(0, sent);
  // A short write means the socket buffer is full: finish under write
  // interest instead of retrying into EAGAIN.
  const bool blocked = !conn.out.empty();
  if (blocked != conn.want_write) {
    conn.want_write = blocked;
    loop_.set_writable(fd, blocked ? std::function<void()>(
                                         [this, fd]() { on_writable(fd); })
                                   : std::function<void()>());
  }
}

void SvcServer::on_writable(int fd) {
  // Only mark it: replies completed earlier in this iteration may sit in
  // `out` behind the backlog, and must wait for the Durable stage.
  const auto it = connections_.find(fd);
  if (it != connections_.end()) mark_dirty(fd, it->second);
}

void SvcServer::close_connection(int fd) {
  loop_.remove_fd(fd);
  ::close(fd);
  // In-flight completions for this connection find a missing fd (or a
  // different generation after reuse) and count responses_orphaned.
  connections_.erase(fd);
}

std::size_t SvcServer::out_buffered_bytes() const {
  std::size_t bytes = 0;
  for (const auto& [fd, conn] : connections_) bytes += conn.out.size();
  return bytes;
}

void SvcServer::export_metrics(obs::MetricsRegistry& registry,
                               const std::string& prefix) const {
  registry.counter(prefix + ".connections_accepted")
      .set(stats_.connections_accepted);
  registry.counter(prefix + ".connections_shed").set(stats_.connections_shed);
  registry.counter(prefix + ".dropped_malformed").set(stats_.dropped_malformed);
  registry.counter(prefix + ".requests_ok").set(stats_.requests_ok);
  registry.counter(prefix + ".requests_conflict").set(stats_.requests_conflict);
  registry.counter(prefix + ".requests_stale_epoch")
      .set(stats_.requests_stale_epoch);
  registry.counter(prefix + ".requests_unavailable")
      .set(stats_.requests_unavailable);
  registry.counter(prefix + ".requests_unsupported")
      .set(stats_.requests_unsupported);
  registry.counter(prefix + ".requests_not_leader")
      .set(stats_.requests_not_leader);
  registry.counter(prefix + ".requests_shed").set(stats_.requests_shed);
  registry.counter(prefix + ".requests_timed_out")
      .set(stats_.requests_timed_out);
  registry.counter(prefix + ".responses_orphaned")
      .set(stats_.responses_orphaned);
  registry.counter(prefix + ".slow_consumer_closed")
      .set(stats_.slow_consumer_closed);
  registry.counter(prefix + ".send_calls").set(stats_.send_calls);
  registry.counter(prefix + ".read_calls").set(stats_.read_calls);
  registry.gauge(prefix + ".out_buffered_bytes")
      .set(static_cast<double>(out_buffered_bytes()));
  registry.gauge(prefix + ".connections")
      .set(static_cast<double>(connections_.size()));
  registry.gauge(prefix + ".pending").set(static_cast<double>(pending_));
  registry.histogram(prefix + ".admit_us") = admit_us_;
  registry.histogram(prefix + ".latency_us") = latency_us_;
  registry.histogram(prefix + ".reply_us") = reply_us_;
}

}  // namespace evs::svc
