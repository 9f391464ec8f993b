#include "net/tcp_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/check.hpp"

namespace evs::net::tcp {

namespace {

bool transient(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

}  // namespace

int listen_on(std::uint32_t ip, std::uint16_t port, const std::string& tag) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  EVS_CHECK_MSG(fd >= 0, tag + ": socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ip);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    ::close(fd);
    EVS_CHECK_MSG(false, tag + ": cannot bind " + tag + " port");
  }
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  EVS_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  return ntohs(addr.sin_port);
}

int accept_one(int listen_fd) {
  const int fd =
      ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) return -1;
  // Nagle would hold a reply written while an earlier one is still
  // unacknowledged until the peer's delayed ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool read_pass(int fd, std::string& in, std::uint64_t& read_calls) {
  constexpr std::size_t kChunk = 4096;
  for (;;) {
    const std::size_t used = in.size();
    in.resize(used + kChunk);
    ++read_calls;
    const ssize_t n = ::read(fd, in.data() + used, kChunk);
    in.resize(used + static_cast<std::size_t>(n > 0 ? n : 0));
    if (n == 0) return false;  // peer closed
    if (n < 0) return transient(errno);
    if (static_cast<std::size_t>(n) < kChunk) return true;
  }
}

long send_once(int fd, const std::string& out) {
  const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
  if (n >= 0) return n;
  return transient(errno) ? 0 : -1;
}

}  // namespace evs::net::tcp
