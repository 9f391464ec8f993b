#include "svc_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "svc/protocol.hpp"

namespace evs::tools {

using runtime::SvcRequest;
using runtime::SvcResponse;
using runtime::SvcStatus;

namespace {

constexpr std::size_t kMaxAttempts = 32;
/// First reconnect/retry backoff; doubles per consecutive failure up to
/// kMaxBackoffMs. A server's retry_after_ms hint replaces the base (still
/// jittered).
constexpr std::uint64_t kBaseBackoffMs = 10;
constexpr std::uint64_t kMaxBackoffMs = 640;
constexpr std::uint64_t kCallTimeoutMs = 15'000;
/// Per-socket-operation timeout (connect / send / recv).
constexpr std::uint64_t kIoTimeoutMs = 2'000;

std::uint64_t now_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000'000;
}

/// Polls `fd` for `events` with a deadline; false on timeout/error.
bool wait_fd(int fd, short events, std::uint64_t timeout_ms) {
  pollfd pfd{fd, events, 0};
  const int rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
  return rc > 0 && (pfd.revents & (events | POLLERR | POLLHUP)) == events;
}

}  // namespace

SvcClient::SvcClient(SvcAddr addr)
    : addr_(std::move(addr)), rng_((now_ms() * 2654435761ULL) | 1) {}

SvcClient::~SvcClient() { disconnect(); }

std::uint64_t SvcClient::next_jitter(std::uint64_t bound_ms) {
  // xorshift64*: cheap, seedable, good enough to decorrelate clients.
  rng_ ^= rng_ >> 12;
  rng_ ^= rng_ << 25;
  rng_ ^= rng_ >> 27;
  const std::uint64_t r = rng_ * 2685821657736338717ULL;
  return bound_ms == 0 ? 0 : r % bound_ms;
}

void SvcClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool SvcClient::ensure_connected() {
  if (fd_ >= 0) return true;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr_.port);
  if (::inet_pton(AF_INET, addr_.host.c_str(), &sa.sin_addr) != 1) {
    disconnect();
    return false;
  }
  const int rc =
      ::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc < 0 && errno != EINPROGRESS) {
    disconnect();
    return false;
  }
  if (rc < 0) {
    if (!wait_fd(fd_, POLLOUT, kIoTimeoutMs)) {
      disconnect();
      return false;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      disconnect();
      return false;
    }
  }
  return true;
}

std::optional<SvcResponse> SvcClient::exchange(const SvcRequest& req) {
  const std::uint64_t request_id = next_request_id_++;
  std::string out;
  svc::append_frame(out, svc::encode_request(request_id, req));
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (wait_fd(fd_, POLLOUT, kIoTimeoutMs)) continue;
    }
    return std::nullopt;
  }
  std::string in;
  std::size_t off = 0;
  char buf[16 * 1024];
  for (;;) {
    Bytes body;
    const svc::FrameStatus st = svc::next_frame(in, off, body);
    if (st == svc::FrameStatus::Malformed) return std::nullopt;
    if (st == svc::FrameStatus::Frame) {
      try {
        svc::WireResponse wire = svc::decode_response(body);
        // One request in flight, but a previous call may have abandoned
        // a response on this connection; skip ids that are not ours.
        if (wire.request_id == request_id) return wire.resp;
        continue;
      } catch (const DecodeError&) {
        return std::nullopt;
      }
    }
    if (!wait_fd(fd_, POLLIN, kIoTimeoutMs)) return std::nullopt;
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return std::nullopt;
    in.append(buf, static_cast<std::size_t>(n));
  }
}

void SvcClient::sleep_backoff(std::uint64_t hint_ms, std::uint32_t streak) {
  std::uint64_t base = hint_ms;
  if (base == 0) {
    base = kBaseBackoffMs;
    for (std::uint32_t i = 0; i < streak && base < kMaxBackoffMs; ++i)
      base *= 2;
  }
  base = std::min(base, kMaxBackoffMs);
  // Full jitter: sleep U(1, base) — decorrelates retrying clients while
  // keeping the server's retry_after_ms hint an upper bound.
  const std::uint64_t sleep_ms = 1 + next_jitter(base);
  timespec ts{static_cast<time_t>(sleep_ms / 1'000),
              static_cast<long>((sleep_ms % 1'000) * 1'000'000)};
  ::nanosleep(&ts, nullptr);
}

SvcResponse SvcClient::call(SvcRequest req, bool fence) {
  const std::uint64_t deadline = now_ms() + kCallTimeoutMs;
  std::uint32_t fail_streak = 0;
  SvcResponse last = SvcResponse::unavailable(kBaseBackoffMs);
  for (std::size_t attempt = 0; attempt < kMaxAttempts && now_ms() < deadline;
       ++attempt) {
    req.view_epoch = fence ? epoch_ : 0;
    std::optional<SvcResponse> resp;
    if (ensure_connected()) resp = exchange(req);
    if (!resp) {
      disconnect();
      sleep_backoff(0, ++fail_streak);
      continue;
    }
    last = *resp;
    switch (resp->status) {
      case SvcStatus::Ok:
        if (fence) epoch_ = resp->view_epoch;
        return last;
      case SvcStatus::Unsupported:
      case SvcStatus::NotLeader:
        return last;  // retrying here cannot help
      case SvcStatus::InvalidEpoch:
        // Re-fence and go again: the server told us the epoch it will
        // accept. (A sealed log shard repeats this answer until a view
        // change; the attempt budget bounds that loop.)
        epoch_ = resp->view_epoch;
        fail_streak = 0;
        sleep_backoff(kBaseBackoffMs, 0);
        continue;
      case SvcStatus::Unavailable:
      case SvcStatus::Conflict:
        sleep_backoff(resp->retry_after_ms, ++fail_streak);
        continue;
    }
  }
  return last;
}

}  // namespace evs::tools
