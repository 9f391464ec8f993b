// The node's one TCP connection engine, shared by both front doors.
//
// The HTTP admin plane (net/admin.hpp) and the binary client service
// (svc/server.hpp) differ only in what their bytes mean. Everything about
// moving those bytes lives here, once:
//
//   * the listen socket: non-blocking and CLOEXEC, bound to ip:port (port
//     0 picks an ephemeral port), registered with the single epoll
//     EventLoop, accept4() drained on every wake. Past the owner's
//     connection cap a new connection is *shed* (closed at once; the
//     client retries) instead of queued. Accepted sockets get TCP_NODELAY:
//     writes below carry whole replies, so Nagle could only delay them;
//   * the connection map. Each connection is stamped with a generation,
//     and a Handle names (fd, generation), so a late completion can never
//     write into an unrelated client that reused the fd number;
//   * the read pass: straight into Conn::in, stopping at the first short
//     read (the socket is then empty and the loop is level-triggered, so
//     the read that would only return EAGAIN is never made). EOF or a
//     real error closes the connection;
//   * the write path. An owner appends to Conn::out and calls queued(),
//     which lists the connection as dirty; nothing is written there. The
//     engine's Reply-stage flush hook (net::EventLoop::FlushStage) then
//     hands each dirty connection's bytes to the kernel in one send(2), so
//     a reply leaves after the store's group commit and before the
//     transport's datagrams. A short write keeps only the unsent tail and
//     arms EPOLLOUT; EPOLLOUT only marks the connection dirty again;
//   * an owner-given cap on Conn::out (0 = none) that closes a consumer
//     which stops reading, and close-after-drain for one-shot protocols;
//   * closing every connection on teardown.
//
// The owner sees its connections through three callbacks: on_data after
// a read pass, on_sent after each send(2) with the bytes it took, and
// on_close before a connection closes (not at teardown).
// `Extra` is the owner's own per-connection state, kept in the slot.
#pragma once

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "net/event_loop.hpp"

namespace evs::net {

/// Connection-level counters of one TcpServer.
struct TcpStats {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;             // accepts past the connection cap
  std::uint64_t overflow_closed = 0;  // out buffer passed its cap
  std::uint64_t read_calls = 0;       // read(2) calls on connections
  std::uint64_t send_calls = 0;       // send(2) calls on connections
};

namespace tcp {

/// A listening socket bound to ip:port (host byte order), non-blocking
/// and CLOEXEC. Throws InvariantViolation on failure; `tag` names the
/// owner in the message.
int listen_on(std::uint32_t ip, std::uint16_t port, const std::string& tag);
/// The port `fd` is bound to (the ephemeral one when bound to port 0).
std::uint16_t local_port(int fd);
/// The next pending connection, non-blocking, CLOEXEC and TCP_NODELAY;
/// -1 once the accept queue is empty (or on a transient error).
int accept_one(int listen_fd);
/// Reads `fd` into the tail of `in` until a short read, counting each
/// read(2). False at EOF or on a real error: the connection is over.
bool read_pass(int fd, std::string& in, std::uint64_t& read_calls);
/// One send(2) of `out`: the bytes the kernel took (0 when its buffer is
/// full), or -1 on a real error.
long send_once(int fd, const std::string& out);

}  // namespace tcp

template <class Extra>
class TcpServer {
 public:
  struct Conn {
    int fd = -1;
    std::uint64_t gen = 0;
    std::string in;   // bytes read and not yet consumed by the owner
    std::string out;  // bytes the kernel has not taken yet
    Extra extra{};
    bool dirty = false;       // listed for the next Reply-stage flush
    bool want_write = false;  // EPOLLOUT armed: the socket was full
    bool closing = false;     // close once `out` drains; input is dropped
  };

  /// Names a connection across callbacks and timers; one that has closed
  /// (or whose fd number was reused since) is not found.
  struct Handle {
    int fd = -1;
    std::uint64_t gen = 0;
  };

  struct Callbacks {
    /// A read pass that began at `arrival` appended bytes to conn.in. The
    /// owner consumes what it can parse; it may queue, close or leave the
    /// rest for the next pass.
    std::function<void(Conn& conn, SimTime arrival)> on_data;
    /// One send(2) took `sent` bytes (possibly 0) from the front of
    /// conn.out; runs before they are erased. May be empty.
    std::function<void(Conn& conn, std::size_t sent)> on_sent;
    /// The connection closes when this returns; what is left in conn.out
    /// is dropped. May be empty.
    std::function<void(Conn& conn)> on_close;
  };

  /// Binds ip:port (port 0 picks an ephemeral port, see bound_port()) and
  /// registers with the loop. Past `max_connections` accepts are shed;
  /// a connection whose `out` passes `max_out_bytes` (0 = no cap) is
  /// closed. Throws InvariantViolation on bind/listen failure.
  TcpServer(EventLoop& loop, std::uint32_t ip, std::uint16_t port,
            const std::string& tag, std::size_t max_connections,
            std::size_t max_out_bytes, Callbacks callbacks)
      : loop_(loop),
        max_connections_(max_connections),
        max_out_bytes_(max_out_bytes),
        callbacks_(std::move(callbacks)),
        listen_fd_(tcp::listen_on(ip, port, tag)),
        bound_port_(tcp::local_port(listen_fd_)) {
    loop_.add_fd(listen_fd_, [this]() { on_accept(); });
    flush_hook_ = loop_.add_flush_hook(EventLoop::FlushStage::Reply,
                                       [this]() { flush(); });
  }

  ~TcpServer() {
    loop_.remove_flush_hook(flush_hook_);
    loop_.remove_fd(listen_fd_);
    ::close(listen_fd_);
    for (auto& [fd, conn] : conns_) {
      loop_.remove_fd(fd);
      ::close(fd);
    }
  }

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t bound_port() const { return bound_port_; }
  std::size_t size() const { return conns_.size(); }
  const TcpStats& stats() const { return stats_; }

  static Handle handle(const Conn& conn) { return {conn.fd, conn.gen}; }

  Conn* find(Handle h) {
    const auto it = conns_.find(h.fd);
    return it == conns_.end() || it->second.gen != h.gen ? nullptr
                                                         : &it->second;
  }

  /// Call after appending to conn.out: lists the connection for the next
  /// Reply-stage flush. Returns false, with the connection closed, when
  /// `out` passed the cap.
  bool queued(Conn& conn) {
    if (max_out_bytes_ != 0 && conn.out.size() > max_out_bytes_) {
      ++stats_.overflow_closed;
      close(conn);
      return false;
    }
    if (!conn.want_write) list(conn);
    return true;
  }

  /// Closes the connection once `out` has drained; input that arrives
  /// meanwhile is read and dropped.
  void close_after_drain(Conn& conn) {
    conn.closing = true;
    if (!conn.want_write) list(conn);
  }

  /// Closes now; `conn` is gone when this returns.
  void close(Conn& conn) {
    if (callbacks_.on_close) callbacks_.on_close(conn);
    const int fd = conn.fd;
    loop_.remove_fd(fd);
    ::close(fd);
    conns_.erase(fd);
  }

  /// Bytes queued across all connections that the kernel has not taken.
  std::size_t out_buffered_bytes() const {
    std::size_t bytes = 0;
    for (const auto& [fd, conn] : conns_) bytes += conn.out.size();
    return bytes;
  }

 private:
  void on_accept() {
    for (int fd; (fd = tcp::accept_one(listen_fd_)) >= 0;) {
      if (conns_.size() >= max_connections_) {
        ::close(fd);
        ++stats_.shed;
        continue;
      }
      ++stats_.accepted;
      Conn& conn = conns_[fd];
      conn.fd = fd;
      conn.gen = next_gen_++;
      loop_.add_fd(fd, [this, fd]() { on_readable(fd); });
    }
  }

  void on_readable(int fd) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    // One arrival stamp per pass: everything parsed from it waited at
    // least from here.
    const SimTime arrival = loop_.now();
    if (!tcp::read_pass(fd, conn.in, stats_.read_calls)) {
      close(conn);
      return;
    }
    if (conn.closing) {
      conn.in.clear();
      return;
    }
    callbacks_.on_data(conn, arrival);
  }

  /// Lists the connection for the next flush. Callers skip a connection
  /// under write interest: its socket is full, and EPOLLOUT lists it.
  void list(Conn& conn) {
    if (conn.dirty) return;
    conn.dirty = true;
    dirty_.push_back(handle(conn));
  }

  /// The Reply-stage flush hook: one send(2) per dirty connection.
  void flush() {
    flushing_.swap(dirty_);
    for (const Handle h : flushing_) {
      Conn* conn = find(h);
      if (conn == nullptr || !conn->dirty) continue;
      conn->dirty = false;
      write_out(*conn);
    }
    flushing_.clear();
  }

  void write_out(Conn& conn) {
    if (!conn.out.empty()) {
      ++stats_.send_calls;
      const long n = tcp::send_once(conn.fd, conn.out);
      if (n < 0) {
        close(conn);  // broken pipe, reset: nothing more can reach it
        return;
      }
      const auto sent = static_cast<std::size_t>(n);
      if (callbacks_.on_sent) callbacks_.on_sent(conn, sent);
      // Keep only the unsent tail, so `out` stays bounded by the cap even
      // for a client that reads steadily but never catches up.
      conn.out.erase(0, sent);
    }
    if (conn.out.empty() && conn.closing) {
      close(conn);
      return;
    }
    // A short write means the socket buffer is full: finish under write
    // interest instead of retrying into EAGAIN.
    const bool blocked = !conn.out.empty();
    if (blocked == conn.want_write) return;
    conn.want_write = blocked;
    const int fd = conn.fd;
    loop_.set_writable(fd, blocked ? std::function<void()>(
                                         [this, fd]() { on_writable(fd); })
                                   : nullptr);
  }

  void on_writable(int fd) {
    // Only mark it: bytes queued earlier in this iteration may sit in
    // `out` behind the backlog, and must wait for the Durable stage.
    const auto it = conns_.find(fd);
    if (it != conns_.end()) list(it->second);
  }

  EventLoop& loop_;
  const std::size_t max_connections_;
  const std::size_t max_out_bytes_;
  Callbacks callbacks_;
  const int listen_fd_;
  const std::uint16_t bound_port_;
  std::unordered_map<int, Conn> conns_;
  std::uint64_t next_gen_ = 1;
  std::vector<Handle> dirty_;
  std::vector<Handle> flushing_;  // dirty_ as taken by the running flush
  EventLoop::FlushHookId flush_hook_ = 0;
  TcpStats stats_;
};

}  // namespace evs::net
