// Shared scaffolding for the plain-main() loopback runners: writing node
// configs, spawning real evs_node processes with their stdout piped back,
// pumping that output until a predicate holds, reading the TCP ports the
// nodes bound, reaping, running helper tools to completion, scraping the
// admin plane, and a blocking svc client that dies loudly on a hung
// request.
//
// Admin and svc listeners are configured on port 0 and the runners read
// the ports the nodes print, so no other process can take them between a
// probe and the bind. UDP peer ports still come from free_port(): every
// node must know them before any starts, so that narrower race remains.
//
// die() is the one failure path: it runs the runner's on-fail hook (an
// artifact scrape while the nodes are still up), then SIGKILLs and reaps
// every node the runner registered in g_children, so a failing run ends
// at once instead of leaving its fleet running and holding stderr open.
#pragma once

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runtime/svc.hpp"
#include "svc/protocol.hpp"

namespace evs::loopback {

struct Child {
  pid_t pid = -1;
  int out_fd = -1;
  std::string out;  // everything the node printed so far
  bool exited = false;
  int exit_status = -1;
};

/// Runs first on failure, while the fleet is still up (e.g. scrapes every
/// node's /metrics into $EVS_LOOPBACK_ARTIFACTS, or dumps node output).
inline std::function<void()> g_on_fail;
/// The runner's fleet; die() kills and reaps whatever of it still runs.
inline std::vector<Child>* g_children = nullptr;

inline void kill_children() {
  if (g_children == nullptr) return;
  for (Child& child : *g_children) {
    if (child.pid <= 0 || child.exited) continue;
    ::kill(child.pid, SIGKILL);  // also ends a SIGSTOPped node
    ::waitpid(child.pid, nullptr, 0);
    child.exited = true;
  }
}

[[noreturn]] inline void die(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  if (g_on_fail) g_on_fail();
  kill_children();
  std::exit(1);
}

/// An unused UDP port, for peer lines: nothing holds it between this
/// probe and the node's bind, so a concurrent socket may take it first.
inline std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) die("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    die("bind() failed");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    die("getsockname() failed");
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// Writes a config to `path`: `self`, one peer line per UDP port, an
/// admin / svc line per (site, port) entry (port 0: the node listens on an
/// ephemeral port and prints it), then the raw `extra` lines.
inline void write_config(const std::string& path, int self,
                         const std::vector<std::uint16_t>& peers,
                         const std::map<int, std::uint16_t>& admin,
                         const std::map<int, std::uint16_t>& svc,
                         const std::string& extra = {}) {
  std::ofstream os(path);
  os << "self " << self << "\n";
  for (std::size_t j = 0; j < peers.size(); ++j)
    os << "peer " << j << " 127.0.0.1:" << peers[j] << "\n";
  for (const auto& [site, port] : admin)
    os << "admin " << site << " 127.0.0.1:" << port << "\n";
  for (const auto& [site, port] : svc)
    os << "svc " << site << " 127.0.0.1:" << port << "\n";
  os << extra;
  if (!os.flush()) die("cannot write " + path);
}

[[noreturn]] inline void exec_args(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  std::perror("execv");
  _exit(127);
}

/// Forks `args` (args[0] is the binary) with stdout on a non-blocking
/// pipe; EVS_TRACE_OUT=`trace_dir` in the child unless it is empty.
inline Child spawn_node(const std::vector<std::string>& args,
                        const std::string& trace_dir = {}) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) die("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) die("fork() failed");
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    if (!trace_dir.empty()) ::setenv("EVS_TRACE_OUT", trace_dir.c_str(), 1);
    exec_args(args);
  }
  ::close(pipe_fds[1]);
  ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
  Child child;
  child.pid = pid;
  child.out_fd = pipe_fds[0];
  return child;
}

/// Reads whatever the children have printed; true if any data arrived.
inline bool drain(std::vector<Child>& children, int timeout_ms) {
  std::vector<pollfd> fds;
  for (Child& c : children)
    if (c.out_fd >= 0) fds.push_back({c.out_fd, POLLIN, 0});
  if (fds.empty()) return false;
  if (::poll(fds.data(), fds.size(), timeout_ms) <= 0) return false;
  bool got = false;
  for (Child& c : children) {
    if (c.out_fd < 0) continue;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(c.out_fd, buf, sizeof(buf));
      if (n > 0) {
        c.out.append(buf, static_cast<std::size_t>(n));
        got = true;
      } else if (n == 0) {
        ::close(c.out_fd);
        c.out_fd = -1;
        break;
      } else {
        break;  // EAGAIN
      }
    }
  }
  return got;
}

/// Pumps child output until `pred()` holds or ~timeout_ms passes.
inline bool await(std::vector<Child>& children, int timeout_ms,
                  const std::function<bool()>& pred) {
  for (int waited = 0; waited < timeout_ms;) {
    if (pred()) return true;
    drain(children, 50);
    waited += 50;
  }
  return pred();
}

inline bool contains_after(const std::string& text, std::size_t offset,
                           const std::string& needle) {
  return text.find(needle, offset) != std::string::npos;
}

inline void dump_outputs(const std::vector<Child>& children) {
  for (int i = 0; i < static_cast<int>(children.size()); ++i)
    std::fprintf(stderr, "--- node%d output ---\n%s\n", i,
                 children[i].out.c_str());
}

/// The port on the `<plane> site=<n> port=<p>` line `child` printed (one
/// per TCP listener evs_node bound: "admin" or "svc"); 0 until that line
/// is complete.
inline std::uint16_t printed_port(const Child& child,
                                  const std::string& plane) {
  const std::string& out = child.out;
  const std::string needle = plane + " site=";
  for (std::size_t at = out.find(needle); at != std::string::npos;
       at = out.find(needle, at + 1)) {
    if (at != 0 && out[at - 1] != '\n') continue;
    const std::size_t eol = out.find('\n', at);
    const std::size_t port = out.find(" port=", at);
    if (eol == std::string::npos || port > eol) return 0;
    return static_cast<std::uint16_t>(std::atoi(out.c_str() + port + 6));
  }
  return 0;
}

/// Pumps output until children[i] printed its `plane` port; returns it.
inline std::uint16_t await_port(std::vector<Child>& children, int i,
                                const std::string& plane) {
  std::uint16_t port = 0;
  if (!await(children, 30000, [&]() {
        return (port = printed_port(children.at(i), plane)) != 0;
      })) {
    dump_outputs(children);
    die("node" + std::to_string(i) + " never printed its " + plane + " port");
  }
  return port;
}

/// Waits for `child` to exit and collects the rest of its output.
inline void reap(Child& child) {
  int status = 0;
  if (::waitpid(child.pid, &status, 0) == child.pid) {
    child.exited = true;
    child.exit_status = status;
  }
  while (child.out_fd >= 0) {
    char buf[4096];
    const ssize_t n = ::read(child.out_fd, buf, sizeof(buf));
    if (n > 0) {
      child.out.append(buf, static_cast<std::size_t>(n));
    } else {
      ::close(child.out_fd);
      child.out_fd = -1;
    }
  }
}

/// Runs `args` to completion; its exit code, or -1 if it did not exit.
inline int run_and_wait(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid < 0) die("fork() failed");
  if (pid == 0) exec_args(args);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Removes the files evs_node's trace dump (obs::dump_run) writes under
/// `stem`, so a passing runner can rmdir its scratch directory.
inline void remove_node_dumps(const std::string& stem) {
  for (const char* suffix :
       {".trace.jsonl", ".chrome.json", ".metrics.json", ".metrics.prom"})
    ::unlink((stem + suffix).c_str());
}

/// Blocking loopback HTTP/1.0 GET with a receive timeout; returns the
/// whole response (headers + body) or "" on any failure.
inline std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return {};
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

/// Extracts `"key":<number>` from a JSON /metrics body; -1 if absent.
inline long long json_number(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(body.c_str() + at + needle.size());
}

/// A blocking external client on one persistent TCP connection. Every
/// receive runs under a hard deadline: a request that is not answered
/// with a typed response in time is the failure mode the runners exist
/// to catch, so it dies loudly instead of waiting.
class SvcClient {
 public:
  explicit SvcClient(std::uint16_t port) : port_(port) {}
  ~SvcClient() { close_fd(); }

  /// Drops the connection; the next one goes to `port` (a respawned
  /// node's listener).
  void set_port(std::uint16_t port) {
    close_fd();
    port_ = port;
  }

  /// One connect attempt; a freshly respawned node's svc listener may be
  /// a beat behind its up line, so callers may retry.
  bool try_connect() {
    close_fd();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      close_fd();
      return false;
    }
    rx_.clear();
    rx_off_ = 0;
    return true;
  }

  void connect_or_die() {
    if (!try_connect()) die("client connect() to svc port failed");
  }

  std::uint64_t send_request(const runtime::SvcRequest& req) {
    return send_requests({req}).front();
  }

  /// Pipelines `reqs` in one write, so the server reads them together;
  /// returns their ids in order.
  std::vector<std::uint64_t> send_requests(
      const std::vector<runtime::SvcRequest>& reqs) {
    if (fd_ < 0) connect_or_die();
    std::vector<std::uint64_t> ids;
    std::string frames;
    for (const runtime::SvcRequest& req : reqs) {
      ids.push_back(next_id_++);
      svc::append_frame(frames, svc::encode_request(ids.back(), req));
    }
    std::size_t sent = 0;
    while (sent < frames.size()) {
      const ssize_t n = ::send(fd_, frames.data() + sent, frames.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) die("client send() failed");
      sent += static_cast<std::size_t>(n);
    }
    return ids;
  }

  /// Blocks until the response for `id` arrives; out-of-order responses
  /// (pipelining) are parked and returned by their own recv calls.
  runtime::SvcResponse recv_response(std::uint64_t id,
                                     int timeout_ms = 10000) {
    for (int waited = 0;;) {
      const auto parked = parked_.find(id);
      if (parked != parked_.end()) {
        runtime::SvcResponse resp = parked->second;
        parked_.erase(parked);
        return resp;
      }
      Bytes frame_body;
      switch (svc::next_frame(rx_, rx_off_, frame_body)) {
        case svc::FrameStatus::Frame: {
          const auto wire = svc::decode_response(frame_body);
          parked_.emplace(wire.request_id, wire.resp);
          continue;
        }
        case svc::FrameStatus::Malformed:
          die("server sent a malformed frame");
        case svc::FrameStatus::NeedMore:
          break;
      }
      if (waited >= timeout_ms)
        die("request " + std::to_string(id) +
            " hung: no typed response within the deadline");
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 200) > 0) {
        char buf[4096];
        const ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n > 0)
          rx_.append(buf, static_cast<std::size_t>(n));
        else if (n == 0)
          die("server closed the connection mid-request");
      } else {
        waited += 200;
      }
    }
  }

  runtime::SvcResponse call(const runtime::SvcRequest& req,
                            int timeout_ms = 10000) {
    return recv_response(send_request(req), timeout_ms);
  }

 private:
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  std::uint16_t port_;
  int fd_ = -1;
  std::string rx_;
  std::size_t rx_off_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, runtime::SvcResponse> parked_;
};

}  // namespace evs::loopback
