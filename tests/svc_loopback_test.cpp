// End-to-end front-door test: three real evs_node processes hosting a
// MergeableKv on 127.0.0.1, with external clients speaking the svc wire
// protocol through a SIGSTOP partition and heal.
//
//   usage: svc_loopback_test <path-to-evs_node>
//
// The contract under test (ISSUE 7): every request an external client
// submits gets exactly one *typed* response — Ok, Conflict, InvalidEpoch
// or Unavailable — never a hang, across the whole partition lifecycle:
//   1. spawn three `--object kv` nodes, each with a `svc` endpoint,
//   2. converge to the 3-view; a client learns the epoch via Get,
//   3. Put with the learned epoch -> Ok; the value is readable through a
//      *different* node (total order crossed the group),
//   4. a stale epoch is rejected with InvalidEpoch carrying the current
//      epoch (the client's re-fencing handshake),
//   5. SIGSTOP one node: the survivors install the 2-view under load; a
//      client still holding the old epoch gets InvalidEpoch{new}, re-fences
//      from that very response, and its next Put lands Ok,
//   6. SIGCONT: the 3-view returns; a post-heal Put through node 0 becomes
//      readable through the revived node (state crossed the heal),
//   7. a burst pipelined in one write against a node with a tiny
//      --svc-inflight cap is
//      shed with typed Unavailable{retry_after_ms} — counted on /metrics,
//      with every single request of the burst answered, in fewer
//      svc.send_calls than replies,
//   8. SIGTERM everything; clean exits.
//
// Plain main() runner (no gtest): exit 0 on success, 1 on failure with a
// narrated transcript on stderr. Registered RUN_SERIAL in ctest since it
// binds fixed-for-the-run loopback ports and forks real processes.
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
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runtime/svc.hpp"
#include "svc/protocol.hpp"

namespace {

using evs::Bytes;
using evs::runtime::SvcOp;
using evs::runtime::SvcRequest;
using evs::runtime::SvcResponse;
using evs::runtime::SvcStatus;

constexpr int kNodes = 3;

/// Set by main() once the fleet is up: scrapes every node's /metrics into
/// $EVS_LOOPBACK_ARTIFACTS (svc counters included) so a CI failure ships
/// the server-side view of the run alongside the transcript.
std::function<void()> g_on_fail;

struct Child;
/// The fleet, once spawned: die() kills it, so a failing run ends at once
/// instead of leaving nodes that hold the runner's stderr open.
std::vector<Child>* g_children = nullptr;

void kill_children();

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  if (g_on_fail) g_on_fail();
  kill_children();
  std::exit(1);
}

std::uint16_t free_port() {
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

struct Child {
  pid_t pid = -1;
  int out_fd = -1;
  std::string out;
  bool exited = false;
  int exit_status = -1;
};

Child spawn_node(const std::string& binary, const std::string& config_path,
                 const std::vector<std::string>& extra) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) die("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) die("fork() failed");
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<std::string> args = {binary, "--config", config_path,
                                     "--object", "kv"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (const std::string& a : args)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::perror("execv");
    _exit(127);
  }
  ::close(pipe_fds[1]);
  ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
  Child child;
  child.pid = pid;
  child.out_fd = pipe_fds[0];
  return child;
}

bool drain(std::vector<Child>& children, int timeout_ms) {
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

bool await(std::vector<Child>& children, int timeout_ms,
           const std::function<bool()>& pred) {
  for (int waited = 0; waited < timeout_ms;) {
    if (pred()) return true;
    drain(children, 50);
    waited += 50;
  }
  return pred();
}

bool contains_after(const std::string& text, std::size_t offset,
                    const std::string& needle) {
  return text.find(needle, offset) != std::string::npos;
}

std::string http_get(std::uint16_t port, const std::string& path) {
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

/// Extracts `"key":<number>` from the JSON /metrics body; -1 if absent.
long long json_number(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(body.c_str() + at + needle.size());
}

void reap(Child& child) {
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

void kill_children() {
  if (g_children == nullptr) return;
  for (Child& child : *g_children) {
    if (child.pid <= 0 || child.exited) continue;
    ::kill(child.pid, SIGKILL);  // also ends a SIGSTOPped node
    ::waitpid(child.pid, nullptr, 0);
    child.exited = true;
  }
}

void dump_outputs(const std::vector<Child>& children) {
  for (int i = 0; i < static_cast<int>(children.size()); ++i)
    std::fprintf(stderr, "--- node%d output ---\n%s\n", i,
                 children[i].out.c_str());
}

// ------------------------------------------------------------- client ---

/// A blocking external client on one persistent TCP connection. Every
/// receive runs under a hard deadline: a request that is not answered
/// with a typed response in time is the exact failure mode this test
/// exists to catch, so it dies loudly instead of waiting.
class SvcClient {
 public:
  explicit SvcClient(std::uint16_t port) : port_(port) {}
  ~SvcClient() { close_fd(); }

  void connect_or_die() {
    close_fd();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) die("client socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      die("client connect() to svc port failed");
    rx_.clear();
    rx_off_ = 0;
  }

  std::uint64_t send_request(const SvcRequest& req) {
    return send_requests({req}).front();
  }

  /// Pipelines `reqs` in one write, so the server reads them together;
  /// returns their ids in order.
  std::vector<std::uint64_t> send_requests(const std::vector<SvcRequest>& reqs) {
    if (fd_ < 0) connect_or_die();
    std::vector<std::uint64_t> ids;
    std::string frames;
    for (const SvcRequest& req : reqs) {
      ids.push_back(next_id_++);
      evs::svc::append_frame(frames, evs::svc::encode_request(ids.back(), req));
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
  SvcResponse recv_response(std::uint64_t id, int timeout_ms = 10000) {
    for (int waited = 0;;) {
      const auto parked = parked_.find(id);
      if (parked != parked_.end()) {
        SvcResponse resp = parked->second;
        parked_.erase(parked);
        return resp;
      }
      Bytes frame_body;
      switch (evs::svc::next_frame(rx_, rx_off_, frame_body)) {
        case evs::svc::FrameStatus::Frame: {
          const auto wire = evs::svc::decode_response(frame_body);
          parked_.emplace(wire.request_id, wire.resp);
          continue;
        }
        case evs::svc::FrameStatus::Malformed:
          die("server sent a malformed frame");
        case evs::svc::FrameStatus::NeedMore:
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

  SvcResponse call(const SvcRequest& req, int timeout_ms = 10000) {
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
  std::map<std::uint64_t, SvcResponse> parked_;
};

SvcRequest make_get(std::string key, std::uint64_t epoch) {
  SvcRequest r;
  r.op = SvcOp::Get;
  r.view_epoch = epoch;
  r.key = std::move(key);
  return r;
}

SvcRequest make_put(std::string key, std::string value, std::uint64_t epoch) {
  SvcRequest r;
  r.op = SvcOp::Put;
  r.view_epoch = epoch;
  r.key = std::move(key);
  r.value = std::move(value);
  return r;
}

/// Puts with the fenced epoch, honouring the protocol's own retry
/// contract: Unavailable{retry_after_ms} means "not serving right now"
/// (settling after a view change, admission shed) and is retried; any
/// other non-Ok answer is a test failure.
SvcResponse put_until_ok(SvcClient& client, const std::string& key,
                         const std::string& value, std::uint64_t epoch,
                         const char* what) {
  for (int waited = 0; waited < 30000;) {
    const SvcResponse resp = client.call(make_put(key, value, epoch));
    if (resp.status == SvcStatus::Ok) return resp;
    if (resp.status != SvcStatus::Unavailable)
      die(std::string(what) + ": Put answered " +
          evs::runtime::to_string(resp.status) + " instead of Ok");
    const int backoff_ms =
        resp.retry_after_ms > 0 ? static_cast<int>(resp.retry_after_ms) : 50;
    ::usleep(backoff_ms * 1000);
    waited += backoff_ms;
  }
  die(std::string(what) + ": Put never succeeded");
}

/// Polls `node` with wildcard Gets until `key` reads `want` (typed Ok
/// every round — replication is eventual, a hang is not).
void await_value(SvcClient& client, const std::string& key,
                 const std::string& want, const char* what) {
  for (int waited = 0; waited < 30000; waited += 100) {
    const SvcResponse resp = client.call(make_get(key, 0));
    if (resp.status != SvcStatus::Ok)
      die(std::string(what) + ": Get answered " +
          evs::runtime::to_string(resp.status) + " instead of Ok");
    if (resp.value == want) return;
    ::usleep(100 * 1000);
  }
  die(std::string(what) + ": value never became \"" + want + "\"");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <evs_node>\n", argv[0]);
    return 2;
  }
  const std::string evs_node = argv[1];

  char dir_template[] = "/tmp/evs_svc_loopback_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) die("mkdtemp() failed");
  const std::string dir = dir_template;

  std::uint16_t ports[kNodes];
  std::uint16_t admin_ports[kNodes];
  std::uint16_t svc_ports[kNodes];
  for (auto& p : ports) p = free_port();
  for (auto& p : admin_ports) p = free_port();
  for (auto& p : svc_ports) p = free_port();

  std::vector<std::string> config_paths;
  for (int i = 0; i < kNodes; ++i) {
    const std::string path = dir + "/node" + std::to_string(i) + ".conf";
    std::ofstream os(path);
    os << "self " << i << "\n";
    for (int j = 0; j < kNodes; ++j)
      os << "peer " << j << " 127.0.0.1:" << ports[j] << "\n";
    for (int j = 0; j < kNodes; ++j)
      os << "admin " << j << " 127.0.0.1:" << admin_ports[j] << "\n";
    for (int j = 0; j < kNodes; ++j)
      os << "svc " << j << " 127.0.0.1:" << svc_ports[j] << "\n";
    os << "admin_token looptoken\n";
    config_paths.push_back(path);
  }

  if (const char* artifacts = std::getenv("EVS_LOOPBACK_ARTIFACTS")) {
    const std::string out_dir = artifacts;
    g_on_fail = [out_dir, &admin_ports]() {
      for (int i = 0; i < kNodes; ++i) {
        const std::string metrics = http_get(admin_ports[i], "/metrics");
        if (metrics.empty()) continue;
        std::ofstream os(out_dir + "/svc-node" + std::to_string(i) +
                         ".metrics.json");
        os << metrics;
      }
    };
  }

  // Node 2 gets a deliberately tiny in-flight cap: the shed phase later
  // pipelines a burst through it and expects typed Unavailable answers.
  std::vector<Child> children;
  for (int i = 0; i < kNodes; ++i) {
    std::vector<std::string> extra;
    if (i == 2) extra = {"--svc-inflight", "4"};
    children.push_back(spawn_node(evs_node, config_paths[i], extra));
  }
  g_children = &children;

  // 1. Everyone serves its svc port and installs the common 3-view.
  const std::string full_view = "size=3 members=0,1,2";
  if (!await(children, 30000, [&]() {
        for (const Child& c : children) {
          if (!contains_after(c.out, 0, "svc site=")) return false;
          if (!contains_after(c.out, 0, full_view)) return false;
        }
        return true;
      })) {
    dump_outputs(children);
    die("nodes never served svc and converged to the common 3-view");
  }
  std::fprintf(stderr, "ok: 3-view installed, svc ports up\n");

  SvcClient client0(svc_ports[0]);
  SvcClient client1(svc_ports[1]);
  SvcClient client2(svc_ports[2]);

  // 2. An external client learns the epoch through a wildcard Get.
  const SvcResponse hello = client0.call(make_get("k", 0));
  if (hello.status != SvcStatus::Ok)
    die("wildcard Get was not Ok");
  const std::uint64_t epoch = hello.view_epoch;
  if (epoch == 0) die("Ok response carries no view epoch");
  std::fprintf(stderr, "ok: client learned epoch %llu\n",
               static_cast<unsigned long long>(epoch));

  // 3. A fenced Put through node 0 becomes readable through node 1.
  put_until_ok(client0, "k", "v1", epoch, "fenced Put");
  await_value(client1, "k", "v1", "cross-node read");
  std::fprintf(stderr, "ok: fenced Put visible through another node\n");

  // 4. A stale epoch is rejected with the current epoch to re-fence by.
  const SvcResponse stale = client0.call(make_put("k", "bad", epoch - 1));
  if (stale.status != SvcStatus::InvalidEpoch)
    die("stale-epoch Put was not InvalidEpoch");
  if (stale.view_epoch != epoch)
    die("InvalidEpoch does not carry the current epoch");
  std::fprintf(stderr, "ok: stale epoch rejected with current epoch\n");

  // 5. SIGSTOP node 2: survivors install the 2-view. The client's old
  //    epoch goes stale; the InvalidEpoch answer itself is the re-fence.
  const std::size_t stop_offset[2] = {children[0].out.size(),
                                      children[1].out.size()};
  ::kill(children[2].pid, SIGSTOP);
  const std::string survivor_pair = "size=2 members=0,1";
  if (!await(children, 60000, [&]() {
        return contains_after(children[0].out, stop_offset[0],
                              survivor_pair) &&
               contains_after(children[1].out, stop_offset[1], survivor_pair);
      })) {
    dump_outputs(children);
    die("survivors never installed the 2-view during the SIGSTOP partition");
  }
  const SvcResponse fenced = client0.call(make_put("k", "v2", epoch));
  if (fenced.status != SvcStatus::InvalidEpoch)
    die("old-epoch Put across the view change was not InvalidEpoch");
  const std::uint64_t epoch2 = fenced.view_epoch;
  if (epoch2 <= epoch)
    die("InvalidEpoch across the view change carries a stale epoch");
  put_until_ok(client0, "k", "v2", epoch2, "re-fenced 2-view Put");
  await_value(client1, "k", "v2", "2-view read");
  std::fprintf(stderr,
               "ok: partition fenced the old epoch, re-fenced Put landed\n");

  // 6. SIGCONT: the 3-view returns; a post-heal Put through node 0 must
  //    become readable through the revived node 2.
  const std::size_t cont_offset[kNodes] = {children[0].out.size(),
                                           children[1].out.size(),
                                           children[2].out.size()};
  ::kill(children[2].pid, SIGCONT);
  if (!await(children, 60000, [&]() {
        for (int i = 0; i < kNodes; ++i)
          if (!contains_after(children[i].out, cont_offset[i], full_view))
            return false;
        return true;
      })) {
    dump_outputs(children);
    die("fleet never reconverged to the 3-view after SIGCONT");
  }
  const SvcResponse healed = client0.call(make_get("k", 0));
  if (healed.status != SvcStatus::Ok) die("post-heal Get was not Ok");
  const std::uint64_t epoch3 = healed.view_epoch;
  if (epoch3 <= epoch2) die("post-heal epoch did not advance");
  put_until_ok(client0, "post-heal", "v3", epoch3, "post-heal Put");
  await_value(client2, "post-heal", "v3", "revived-node read");
  std::fprintf(stderr, "ok: post-heal Put visible through revived node\n");

  // 7. Overload shed: pipeline a burst through node 2's tiny in-flight
  //    cap. Every request must be answered — Ok for the admitted ones,
  //    Unavailable with a retry hint for the shed ones, nothing dropped.
  constexpr int kBurst = 64;
  const long long sends_before =
      json_number(http_get(admin_ports[2], "/metrics"), "svc.send_calls");
  if (sends_before < 0) die("svc.send_calls missing from /metrics");
  std::vector<SvcRequest> burst;
  for (int i = 0; i < kBurst; ++i)
    burst.push_back(make_put("burst" + std::to_string(i), "x", 0));
  const std::vector<std::uint64_t> ids = client2.send_requests(burst);
  int burst_ok = 0;
  int burst_shed = 0;
  for (const std::uint64_t id : ids) {
    const SvcResponse resp = client2.recv_response(id);
    if (resp.status == SvcStatus::Ok) {
      ++burst_ok;
    } else if (resp.status == SvcStatus::Unavailable) {
      if (resp.retry_after_ms == 0)
        die("shed response carries no retry hint");
      ++burst_shed;
    } else {
      die(std::string("burst request answered ") +
          evs::runtime::to_string(resp.status));
    }
  }
  if (burst_ok == 0) die("no burst request was admitted");
  if (burst_shed == 0)
    die("pipelining past the in-flight cap shed nothing");
  std::fprintf(stderr, "ok: burst of %d -> %d ok, %d shed, 0 unanswered\n",
               kBurst, burst_ok, burst_shed);

  // ...and the shed is first-class on the admin plane.
  const std::string metrics = http_get(admin_ports[2], "/metrics");
  if (json_number(metrics, "svc.requests_shed") < burst_shed)
    die("svc.requests_shed on /metrics below the observed shed count");
  if (json_number(metrics, "svc.requests_ok") < 1)
    die("svc.requests_ok missing from /metrics");
  if (json_number(metrics, "svc.connections_accepted") < 1)
    die("svc.connections_accepted missing from /metrics");
  std::fprintf(stderr, "ok: shed and serve counters exported on /metrics\n");
  // Replies completed in one loop iteration share one write: the burst's
  // synchronous sheds must not cost a send(2) each.
  const long long burst_sends =
      json_number(metrics, "svc.send_calls") - sends_before;
  if (burst_sends >= kBurst)
    die("burst of " + std::to_string(kBurst) + " replies took " +
        std::to_string(burst_sends) + " send calls");
  if (json_number(metrics, "svc.read_calls") < 1)
    die("svc.read_calls missing from /metrics");
  std::fprintf(stderr, "ok: burst of %d replies in %lld send calls\n", kBurst,
               burst_sends);

  // 8. Graceful shutdown.
  for (int i = 0; i < kNodes; ++i) ::kill(children[i].pid, SIGTERM);
  for (int i = 0; i < kNodes; ++i) reap(children[i]);
  for (int i = 0; i < kNodes; ++i) {
    if (!WIFEXITED(children[i].exit_status) ||
        WEXITSTATUS(children[i].exit_status) != 0) {
      dump_outputs(children);
      die("node" + std::to_string(i) + " exited uncleanly");
    }
    if (!contains_after(children[i].out, 0, "summary ")) {
      dump_outputs(children);
      die("node" + std::to_string(i) + " printed no summary");
    }
  }
  std::fprintf(stderr, "ok: all nodes exited cleanly\n");

  for (const std::string& path : config_paths) ::unlink(path.c_str());
  ::rmdir(dir.c_str());
  std::printf("PASS\n");
  return 0;
}
