// Unit tests for the admin plane (net/admin.hpp): route handling and
// refresh-at-scrape behaviour, /trace?since= paging semantics, the POST
// control side (token auth, bounded bodies, command routing and its
// counters), and the udp_transport-style hardening of the receive path —
// malformed request lines, oversized requests, partial requests whose
// client vanishes, and the connection cap — all driven through real
// loopback sockets against the server's own epoll loop, single-threaded.
// Responses larger than the socket buffers are checked against slow and
// vanishing readers too.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sstream>
#include <string>
#include <vector>

#include "net/admin.hpp"
#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace evs::net {
namespace {

constexpr std::uint32_t kLoopbackIp = (127u << 24) | 1u;

/// A blocking client socket connected to the server's loopback port.
int connect_client(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  return fd;
}

/// Sends `request` raw, then pumps the loop until the server closes the
/// connection, returning everything it sent back.
std::string roundtrip(EventLoop& loop, std::uint16_t port,
                      const std::string& request) {
  const int fd = connect_client(port);
  std::size_t sent = 0;
  std::string response;
  char buf[4096];
  for (int i = 0; i < 400; ++i) {
    loop.run_for(kMillisecond);
    while (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 && sent == request.size()) {
      break;  // server closed: response complete
    }
  }
  ::close(fd);
  return response;
}

TEST(AdminServer, StatusIsLiveAtEveryScrape) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  ASSERT_NE(server.bound_port(), 0);
  int calls = 0;
  server.set_status([&calls]() {
    ++calls;
    return "{\"scrape\":" + std::to_string(calls) + "}";
  });

  std::string r = roundtrip(loop, server.bound_port(),
                            "GET /status HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 200 OK"), std::string::npos) << r;
  EXPECT_NE(r.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(r.find("{\"scrape\":1}"), std::string::npos) << r;
  r = roundtrip(loop, server.bound_port(), "GET /status HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("{\"scrape\":2}"), std::string::npos) << r;
  EXPECT_EQ(server.stats().requests_ok, 2u);
  EXPECT_EQ(server.stats().connections_accepted, 2u);
}

TEST(AdminServer, Serves503UntilProvidersAreWired) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  for (const char* path : {"/status", "/metrics", "/metrics.prom", "/trace"}) {
    const std::string r = roundtrip(
        loop, server.bound_port(),
        std::string("GET ") + path + " HTTP/1.0\r\n\r\n");
    EXPECT_NE(r.find("HTTP/1.0 503"), std::string::npos) << path << ": " << r;
  }
  EXPECT_EQ(server.stats().requests_ok, 0u);
}

TEST(AdminServer, MetricsRefreshHookRunsBeforeEveryScrape) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  obs::MetricsRegistry registry;
  std::uint64_t live_value = 41;
  server.set_metrics(&registry, [&]() {
    registry.counter("transport.dropped_malformed").set(++live_value);
  });

  std::string r = roundtrip(loop, server.bound_port(),
                            "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("\"transport.dropped_malformed\":42"), std::string::npos)
      << r;
  r = roundtrip(loop, server.bound_port(),
                "GET /metrics.prom HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << r;
  EXPECT_NE(r.find("# TYPE transport_dropped_malformed counter"),
            std::string::npos)
      << r;
  EXPECT_NE(r.find("transport_dropped_malformed 43"), std::string::npos) << r;
}

TEST(AdminServer, UnknownPathIs404AndCounted) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  const std::string r =
      roundtrip(loop, server.bound_port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 404 Not Found"), std::string::npos) << r;
  EXPECT_EQ(server.stats().not_found, 1u);
}

TEST(AdminServer, MalformedRequestsAreDroppedAndCounted) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  server.set_status([]() { return std::string("{}"); });
  const std::vector<std::string> bad = {
      "PUT /status HTTP/1.0\r\n\r\n",        // unsupported method
      "GET /status\r\n\r\n",                 // two tokens
      "GET /status SMTP/1.0\r\n\r\n",        // not HTTP
      "GET /status HTTP/1.0 extra\r\n\r\n",  // four tokens
      "complete garbage\r\n\r\n",
      "GET /trace?since=12x HTTP/1.0\r\n\r\n",  // bad query (trace wired)
  };
  obs::TraceBus bus;
  server.set_trace(&bus);
  for (const std::string& request : bad) {
    const std::string r = roundtrip(loop, server.bound_port(), request);
    EXPECT_NE(r.find("HTTP/1.0 400 Bad Request"), std::string::npos)
        << request << " -> " << r;
  }
  EXPECT_EQ(server.stats().dropped_malformed, bad.size());
  EXPECT_EQ(server.stats().requests_ok, 0u);

  // The server still serves well-formed requests afterwards.
  const std::string r =
      roundtrip(loop, server.bound_port(), "GET /status HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 200 OK"), std::string::npos) << r;
}

TEST(AdminServer, OversizedRequestIsDroppedAndCounted) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  // Headers exceeding the buffer cap with no terminating blank line.
  std::string request = "GET /status HTTP/1.0\r\nX-Filler: ";
  request.append(AdminServer::kMaxRequestBytes, 'x');
  const std::string r = roundtrip(loop, server.bound_port(), request);
  EXPECT_NE(r.find("HTTP/1.0 400"), std::string::npos) << r.substr(0, 100);
  EXPECT_NE(r.find("request too large"), std::string::npos);
  EXPECT_EQ(server.stats().dropped_oversize, 1u);
}

TEST(AdminServer, PartialRequestWhoseClientVanishesIsCleanedUp) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  server.set_status([]() { return std::string("{}"); });
  const int fd = connect_client(server.bound_port());
  const std::string partial = "GET /sta";  // no terminator
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  for (int i = 0; i < 20; ++i) loop.run_for(kMillisecond);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
  ::close(fd);  // client gives up mid-request
  for (int i = 0; i < 20; ++i) loop.run_for(kMillisecond);
  // No response was owed; the connection slot is free again.
  const std::string r =
      roundtrip(loop, server.bound_port(), "GET /status HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 200 OK"), std::string::npos) << r;
  EXPECT_EQ(server.stats().requests_ok, 1u);
}

TEST(AdminServer, TraceSincePagingSemantics) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  obs::TraceBus bus;
  bus.set_enabled(true);
  server.set_trace(&bus);
  for (std::uint64_t i = 0; i < 5; ++i)
    bus.record({static_cast<SimTime>(i),
                ProcessId{SiteId{0}, 1},
                obs::EventKind::MessageSent,
                {},
                ProcessId{SiteId{0}, 1},
                i});

  std::string r = roundtrip(loop, server.bound_port(),
                            "GET /trace HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("X-Evs-Next-Since: 5"), std::string::npos) << r;
  EXPECT_NE(r.find("{\"i\":0,"), std::string::npos);
  EXPECT_NE(r.find("{\"i\":4,"), std::string::npos);

  r = roundtrip(loop, server.bound_port(),
                "GET /trace?since=3 HTTP/1.0\r\n\r\n");
  EXPECT_EQ(r.find("{\"i\":0,"), std::string::npos) << r;
  EXPECT_NE(r.find("{\"i\":3,"), std::string::npos);
  EXPECT_NE(r.find("{\"i\":4,"), std::string::npos);
  EXPECT_NE(r.find("X-Evs-Next-Since: 5"), std::string::npos);

  // Caught up: empty page, next-since echoes the request.
  r = roundtrip(loop, server.bound_port(),
                "GET /trace?since=5 HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("X-Evs-Next-Since: 5"), std::string::npos) << r;
  EXPECT_NE(r.find("Content-Length: 0"), std::string::npos);
}

TEST(AdminServer, TraceSinceOverflowIsRejectedNotWrapped) {
  // since=2^64 used to wrap to 0 and replay the entire trace; overflow
  // must be a 400 like any other malformed query.
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  obs::TraceBus bus;
  bus.set_enabled(true);
  server.set_trace(&bus);
  bus.record({0, ProcessId{SiteId{0}, 1}, obs::EventKind::MessageSent});

  std::string r =
      roundtrip(loop, server.bound_port(),
                "GET /trace?since=18446744073709551616 HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 400"), std::string::npos) << r;
  EXPECT_EQ(r.find("{\"i\":0,"), std::string::npos) << "trace replayed: " << r;
  r = roundtrip(loop, server.bound_port(),
                "GET /trace?since=99999999999999999999999 HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 400"), std::string::npos) << r;
  EXPECT_EQ(server.stats().dropped_malformed, 2u);

  // The largest representable value still parses.
  r = roundtrip(loop, server.bound_port(),
                "GET /trace?since=18446744073709551615 HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 200"), std::string::npos) << r;
}

TEST(AdminServer, PostWithoutConfiguredTokenIs403) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  server.set_command([](const std::string&, const std::string&) {
    return AdminCommandResult{true, {}};
  });
  const std::string r =
      roundtrip(loop, server.bound_port(),
                "POST /merge-all HTTP/1.0\r\nX-Admin-Token: guess\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 403"), std::string::npos) << r;
  EXPECT_EQ(server.stats().dropped_unauthorized, 1u);
  EXPECT_EQ(server.stats().commands_ok, 0u);
}

TEST(AdminServer, PostWithWrongOrMissingTokenIs401) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  server.set_token("hunter2");
  server.set_command([](const std::string&, const std::string&) {
    return AdminCommandResult{true, {}};
  });
  std::string r = roundtrip(loop, server.bound_port(),
                            "POST /join HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 401"), std::string::npos) << r;
  r = roundtrip(loop, server.bound_port(),
                "POST /join HTTP/1.0\r\nX-Admin-Token: wrong\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 401"), std::string::npos) << r;
  EXPECT_EQ(server.stats().dropped_unauthorized, 2u);
  EXPECT_EQ(server.stats().commands_ok, 0u);
}

TEST(AdminServer, PostCommandsRouteToTheHandler) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  server.set_token("hunter2");
  std::vector<std::pair<std::string, std::string>> seen;
  server.set_command([&](const std::string& name, const std::string& arg) {
    seen.emplace_back(name, arg);
    return AdminCommandResult{true, {}};
  });

  std::string r =
      roundtrip(loop, server.bound_port(),
                "POST /merge-all HTTP/1.0\r\nX-Admin-Token: hunter2\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 200"), std::string::npos) << r;
  EXPECT_NE(r.find("\"command\": \"merge-all\""), std::string::npos) << r;

  // The token may ride in the form body instead of a header.
  const std::string body = "token=hunter2";
  r = roundtrip(loop, server.bound_port(),
                "POST /merge?svset=ss(p0.1,1),ss(p1.1,0) HTTP/1.0\r\n"
                "Content-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(r.find("HTTP/1.0 200"), std::string::npos) << r;

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::string>{"merge-all", ""}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::string>{
                         "merge", "ss(p0.1,1),ss(p1.1,0)"}));
  EXPECT_EQ(server.stats().commands_ok, 2u);
}

TEST(AdminServer, RejectedCommandsAre400AndCounted) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  server.set_token("hunter2");
  server.set_command([](const std::string&, const std::string&) {
    return AdminCommandResult{false, "node has left the group"};
  });
  const std::string r =
      roundtrip(loop, server.bound_port(),
                "POST /leave HTTP/1.0\r\nX-Admin-Token: hunter2\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 400"), std::string::npos) << r;
  EXPECT_NE(r.find("node has left the group"), std::string::npos) << r;
  EXPECT_EQ(server.stats().commands_rejected, 1u);
  EXPECT_EQ(server.stats().commands_ok, 0u);
}

TEST(AdminServer, PostBodyIsBoundedAndContentLengthValidated) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  server.set_token("hunter2");
  server.set_command([](const std::string&, const std::string&) {
    return AdminCommandResult{true, {}};
  });

  // Declared body over the cap: refused up front, before any body bytes.
  std::string r = roundtrip(
      loop, server.bound_port(),
      "POST /join HTTP/1.0\r\nContent-Length: " +
          std::to_string(AdminServer::kMaxBodyBytes + 1) + "\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 413"), std::string::npos) << r;
  EXPECT_EQ(server.stats().dropped_oversize, 1u);

  // Unparseable and overflowing Content-Length values are malformed.
  r = roundtrip(loop, server.bound_port(),
                "POST /join HTTP/1.0\r\nContent-Length: twelve\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 400"), std::string::npos) << r;
  r = roundtrip(
      loop, server.bound_port(),
      "POST /join HTTP/1.0\r\nContent-Length: 18446744073709551616\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 400"), std::string::npos) << r;
  EXPECT_EQ(server.stats().dropped_malformed, 2u);
  EXPECT_EQ(server.stats().commands_ok, 0u);
}

TEST(AdminServer, PostBodyMayArriveAfterTheHeaders) {
  // The command must wait for the declared body (the token rides in it)
  // instead of authenticating against a half-received request.
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  server.set_token("hunter2");
  int commands = 0;
  server.set_command([&](const std::string&, const std::string&) {
    ++commands;
    return AdminCommandResult{true, {}};
  });

  const int fd = connect_client(server.bound_port());
  const std::string head =
      "POST /merge-all HTTP/1.0\r\nContent-Length: 13\r\n\r\n";
  ASSERT_EQ(::send(fd, head.data(), head.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(head.size()));
  for (int i = 0; i < 20; ++i) loop.run_for(kMillisecond);
  EXPECT_EQ(commands, 0) << "dispatched before the body arrived";

  const std::string body = "token=hunter2";
  ASSERT_EQ(::send(fd, body.data(), body.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(body.size()));
  std::string response;
  char buf[1024];
  for (int i = 0; i < 400 && response.find("200") == std::string::npos; ++i) {
    loop.run_for(kMillisecond);
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos) << response;
  EXPECT_EQ(commands, 1);
}

TEST(AdminServer, CommandQueriesAreStrict) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  server.set_token("hunter2");
  server.set_command([](const std::string&, const std::string&) {
    return AdminCommandResult{true, {}};
  });
  // /merge needs ?svset=, the parameterless commands refuse any query,
  // and unknown POST paths are 404.
  std::string r =
      roundtrip(loop, server.bound_port(),
                "POST /merge HTTP/1.0\r\nX-Admin-Token: hunter2\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 400"), std::string::npos) << r;
  r = roundtrip(loop, server.bound_port(),
                "POST /join?now=1 HTTP/1.0\r\nX-Admin-Token: hunter2\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 400"), std::string::npos) << r;
  EXPECT_EQ(server.stats().dropped_malformed, 2u);
  r = roundtrip(loop, server.bound_port(),
                "POST /status HTTP/1.0\r\nX-Admin-Token: hunter2\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 404"), std::string::npos) << r;
  EXPECT_EQ(server.stats().not_found, 1u);
  EXPECT_EQ(server.stats().commands_ok, 0u);
}

TEST(AdminServer, ConnectionCapShedsExtraClients) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  std::vector<int> clients;
  for (std::size_t i = 0; i < AdminServer::kMaxConnections + 3; ++i) {
    clients.push_back(connect_client(server.bound_port()));
    // Step between connects so the accept queue never outgrows the listen
    // backlog (which would stall blocking connects, not shed them).
    loop.run_for(kMillisecond);
    loop.run_for(kMillisecond);
  }
  EXPECT_EQ(server.stats().connections_accepted, AdminServer::kMaxConnections);
  EXPECT_EQ(server.stats().dropped_overload, 3u);
  for (const int fd : clients) ::close(fd);
}

TEST(AdminServer, ExportMetricsPublishesItsOwnCounters) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  roundtrip(loop, server.bound_port(), "GET /nope HTTP/1.0\r\n\r\n");
  obs::MetricsRegistry registry;
  server.export_metrics(registry);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"admin.connections_accepted\":1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"admin.not_found\":1"), std::string::npos);
  EXPECT_NE(json.find("\"admin.dropped_malformed\":0"), std::string::npos);
  EXPECT_NE(json.find("\"admin.dropped_unauthorized\":0"), std::string::npos);
  EXPECT_NE(json.find("\"admin.commands_ok\":0"), std::string::npos);
  EXPECT_NE(json.find("\"admin.commands_rejected\":0"), std::string::npos);
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

/// A /trace response far larger than the socket buffers below.
void record_trace_events(obs::TraceBus& bus, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i)
    bus.record({static_cast<SimTime>(i),
                ProcessId{SiteId{0}, 1},
                obs::EventKind::MessageSent,
                {},
                ProcessId{SiteId{0}, 1},
                i});
}

/// Connects a client with a 4 KB receive window, shrinks the server end's
/// send buffer to 4 KB, and sends `request` without reading: the server
/// can hand the kernel only the head of a large response, and keeps the
/// tail. Returns the client fd; `server_fd` is the accepted end.
int stalled_request(EventLoop& loop, std::uint16_t port,
                    const std::string& request, int& server_fd) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int small = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  server_fd = -1;
  for (int i = 0; i < 100 && server_fd < 0; ++i) {
    loop.run_for(kMillisecond);
    server_fd = accepted_end(fd);
  }
  EXPECT_GE(server_fd, 0);
  ::setsockopt(server_fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  for (int i = 0; i < 50; ++i) loop.run_for(kMillisecond);
  return fd;
}

/// Bytes of the response sitting in either kernel's queue.
std::size_t queued_in_kernels(int client_fd, int server_fd) {
  int inq = 0;
  int outq = 0;
  ::ioctl(client_fd, SIOCINQ, &inq);
  ::ioctl(server_fd, SIOCOUTQ, &outq);
  return static_cast<std::size_t>(inq) + static_cast<std::size_t>(outq);
}

TEST(AdminServer, SlowReaderReceivesAPartiallyWrittenResponseWhole) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  obs::TraceBus bus;
  bus.set_enabled(true);
  server.set_trace(&bus);
  record_trace_events(bus, 3000);
  const std::string request = "GET /trace?since=0 HTTP/1.0\r\n\r\n";
  // The reference copy, read by a client that keeps up.
  const std::string expected = roundtrip(loop, server.bound_port(), request);
  const std::size_t header_end = expected.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos) << expected.substr(0, 200);
  const std::size_t body_size = expected.size() - header_end - 4;
  ASSERT_NE(expected.find("Content-Length: " + std::to_string(body_size) +
                          "\r\n"),
            std::string::npos);
  ASSERT_GT(expected.size(), 64u * 1024);

  int server_fd = -1;
  const int fd = stalled_request(loop, server.bound_port(), request, server_fd);
  ASSERT_GE(server_fd, 0);
  // Nothing read yet: the kernels hold only the head, the server the rest.
  EXPECT_LT(queued_in_kernels(fd, server_fd), expected.size());

  std::string got;
  bool closed = false;
  char buf[4096];
  for (int i = 0; i < 20000 && !closed; ++i) {
    loop.run_for(200);
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        got.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      closed = n == 0;
      break;
    }
  }
  EXPECT_TRUE(closed) << "the server did not close after the response";
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected) << "the response arrived altered";
  EXPECT_EQ(server.stats().requests_ok, 2u);
  ::close(fd);
}

TEST(AdminServer, PeerThatResetsMidResponseIsClosedNotRetried) {
  EventLoop loop;
  AdminServer server(loop, kLoopbackIp, 0);
  obs::TraceBus bus;
  bus.set_enabled(true);
  server.set_trace(&bus);
  record_trace_events(bus, 3000);
  int server_fd = -1;
  const int fd = stalled_request(loop, server.bound_port(),
                                 "GET /trace?since=0 HTTP/1.0\r\n\r\n",
                                 server_fd);
  ASSERT_GE(server_fd, 0);
  // The response is under way, its tail still held by the server.
  int inq = 0;
  ::ioctl(fd, SIOCINQ, &inq);
  ASSERT_GT(inq, 0);
  EXPECT_LT(queued_in_kernels(fd, server_fd), 64u * 1024);
  // Reset: close with a zero linger time sends RST, not FIN.
  const linger reset{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(fd);
  // A writer that retried the dead socket would fire on every pass.
  std::size_t fired = 0;
  for (int i = 0; i < 50; ++i) fired += loop.run_for(kMillisecond);
  EXPECT_LT(fired, 10u) << "the reset connection kept the loop busy";
  // The server closed its end (no socket was opened since, so the number
  // cannot have been reused)...
  EXPECT_EQ(::fcntl(server_fd, F_GETFD), -1);
  // ...and serves the next client.
  const std::string r =
      roundtrip(loop, server.bound_port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.0 404"), std::string::npos) << r;
}

TEST(AdminCommandCode, IsStablePerCommand) {
  EXPECT_EQ(admin_command_code("join"), 1u);
  EXPECT_EQ(admin_command_code("leave"), 2u);
  EXPECT_EQ(admin_command_code("merge-all"), 3u);
  EXPECT_EQ(admin_command_code("merge"), 4u);
  EXPECT_EQ(admin_command_code("reboot"), 0u);
}

}  // namespace
}  // namespace evs::net
