// vsb_loadgen: the benchmark's load generator for a three-node evs_node
// fleet. One process, one thread, at most --conns TCP connections open at
// any time.
//
// The generator runs phases in a fixed order and stops at each phase
// boundary: it prints `phase <name> done` and waits for a line on stdin,
// so the orchestrator (run.py) can scrape /metrics between phases.
//
//   setup    kv only: every key written once, so an empty get is an error
//   paced    open loop: op k is due at t0 + k/rate and is timed from that
//            due time, not from when the generator got round to sending it
//   fault    (--faults, instead of paced) the same open loop with redirect
//            chasing and retries, run until stdin says `stop` while the
//            orchestrator SIGSTOPs and SIGCONTs the coordinator
//   closed   closed loop: a fixed window of outstanding ops
//   verify   log: every acknowledged append read back by position from a
//            replica; kv: every key read from every node must agree and
//            hold a value some put wrote
//
// The last stdout line is one JSON object with counts and latency
// percentiles. Every first-phase latency, the traced requests and the fault
// phase's acknowledgements go to files in --out-dir for the orchestrator's
// pooled percentiles, span and outage analysis.
// All times are CLOCK_MONOTONIC microseconds, the clock the orchestrator
// and the nodes' event loops read too.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "svc/protocol.hpp"

using namespace evs;
using runtime::SvcOp;
using runtime::SvcResponse;
using runtime::SvcStatus;

namespace {

double now_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Fault phase: an attempt unanswered this long suspects its node; an op not
// acknowledged this long after it was due has failed.
constexpr double kAttemptTimeoutUs = 60'000;
constexpr double kOpDeadlineUs = 1'500'000;

struct Options {
  std::vector<std::uint16_t> ports;  // svc port of site 0, 1, 2
  bool kv = false;                   // kv object, else the sharded log
  std::uint64_t seed = 1;
  std::size_t conns = 4;
  int leader = 0;
  std::size_t value_bytes = 64;
  std::uint64_t keys = 256;
  double read_share = 0.1;
  double paced_rate = 1000;
  double paced_ms = 3000;
  std::size_t closed_window = 32;
  std::uint64_t closed_ops = 100'000;
  bool delayed_acks = false;  // keep ACKs delayed, else ACK at once
  double closed_ms = 1000;
  std::uint64_t sample_every = 0;  // 0 = no traced requests
  bool faults = false;             // paced phase under fault cycles
  bool paced_only = false;         // no closed loop: paced, then verify
  std::string out_dir = ".";
};

struct Op {
  std::uint64_t id = 0;
  SvcOp op = SvcOp::LogAppend;
  std::string key;             // kv key, log routing key or position
  std::uint64_t value_id = 0;  // writes: the value; reads: the expected one
  double due_us = 0;
  double sent_us = 0;
  std::size_t conn = 0;
  std::uint64_t req = 0;  // request id of the attempt in flight
  std::uint64_t trace_id = 0;

  bool write() const { return op == SvcOp::LogAppend || op == SvcOp::Put; }
};

struct Conn {
  int fd = -1;
  int node = 0;
  std::string out;
  std::size_t sent = 0;
  std::string in;
  std::size_t in_off = 0;
};

struct Latencies {
  std::vector<double> us;
  double pct(double p) {
    if (us.empty()) return 0;
    std::sort(us.begin(), us.end());
    const auto idx = std::min(
        us.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(us.size())));
    return us[idx];
  }
};

struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;     // Unavailable / InvalidEpoch / Conflict
  std::uint64_t not_leader = 0;  // NotLeader left unresolved
  std::uint64_t timed_out = 0;   // no Ok before the op's deadline
  std::uint64_t lost = 0;        // still unanswered when the phase drained
  std::uint64_t invalid = 0;     // a read returned bytes nobody wrote
  std::uint64_t failed() const {
    return refused + not_leader + timed_out + lost + invalid;
  }
};

class Generator {
 public:
  explicit Generator(Options o) : o_(std::move(o)), rng_(o_.seed) {}
  int run();

 private:
  bool connect(Conn& c);
  void open_conns(const std::vector<int>& nodes);
  void close_conns();
  std::uint64_t send(std::size_t conn, Op op);
  void poll_until(double until, bool watch_stdin);
  void barrier(const char* phase);

  void prefill();
  void paced();
  void closed();
  void catch_up();
  void verify();
  void fault();
  void kv_converge();
  void print_summary();

  Op make_op(bool read, double due);
  std::string value_of(std::uint64_t value_id) const;
  void record_ack(const Op& op, const SvcResponse& resp);
  bool check_read(const Op& op, const SvcResponse& resp);
  void count_reject(Counts& c, const SvcResponse& resp);
  bool pick_read() {
    return static_cast<double>(splitmix(rng_) % 1'000'000) <
           o_.read_share * 1e6;
  }

  Options o_;
  std::uint64_t rng_;
  std::vector<Conn> conns_;
  std::uint64_t next_req_ = 1;
  std::uint64_t next_op_ = 1;
  std::uint64_t next_value_ = 1;
  std::unordered_map<std::uint64_t, Op> inflight_;  // request id -> op
  std::function<void(Op&, const SvcResponse&, double)> on_response_;
  bool stdin_stop_ = false;
  // Poll without sleeping (the paced phase, on a CPU of its own). On a VM,
  // waking an idle vCPU waits for the host's scheduler: sleeping between
  // due times added up to 50 us to a paced p50 while the host was busy,
  // and about 15 us even with a lowest-priority busy loop on that CPU.
  bool spin_ = false;

  // Log: every acknowledged (global position, value id).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> acked_;
  std::unordered_set<std::uint64_t> positions_;
  std::uint64_t dup_positions_ = 0;
  std::uint64_t writes_ok_ = 0;  // acknowledged writes, every phase
  // Kv: every value id ever sent per key; a get must return one of them.
  std::unordered_map<std::string, std::unordered_set<std::uint64_t>> written_;

  Counts paced_, closed_;
  Latencies write_, read_, late_;
  double closed_seconds_ = 0;
  double closed_rate_ = 0;
  double cpu_busy_share_ = 0;
  double catch_up_ms_ = 0;
  std::uint64_t replica_unserved_ = 0;
  std::uint64_t verified_ = 0, mismatches_ = 0;
  std::uint64_t redirects_ = 0, attempt_timeouts_ = 0;
  std::uint64_t fault_retries_ = 0;
  std::FILE* traced_ = nullptr;
  std::FILE* fault_log_ = nullptr;
};

// --- connections -----------------------------------------------------------

bool Generator::connect(Conn& c) {
  c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  int one = 1;
  ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(o_.ports.at(static_cast<std::size_t>(c.node)));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(c.fd);
    c.fd = -1;
    return false;
  }
  ::fcntl(c.fd, F_SETFL, O_NONBLOCK);
  c.out.clear();
  c.sent = 0;
  c.in.clear();
  c.in_off = 0;
  return true;
}

void Generator::open_conns(const std::vector<int>& nodes) {
  close_conns();
  for (const int node : nodes) {
    Conn c;
    c.node = node;
    if (!connect(c)) {
      std::fprintf(stderr, "loadgen: connect to site %d: %s\n", node,
                   std::strerror(errno));
      std::exit(3);
    }
    conns_.push_back(std::move(c));
  }
}

void Generator::close_conns() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
  conns_.clear();
  inflight_.clear();
}

std::uint64_t Generator::send(std::size_t conn, Op op) {
  runtime::SvcRequest req;
  req.op = op.op;
  if (o_.kv) req.group = GroupId{1};
  req.key = op.key;
  if (op.write()) req.value = value_of(op.value_id);
  req.trace_id = op.trace_id;
  req.sampled = op.trace_id != 0;
  const std::uint64_t id = next_req_++;
  Conn& c = conns_[conn];
  svc::append_frame(c.out, svc::encode_request(id, req));
  while (c.sent < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.sent,
                             c.out.size() - c.sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // EAGAIN: the poll loop finishes the write
    c.sent += static_cast<std::size_t>(n);
  }
  if (c.sent == c.out.size()) {
    c.out.clear();
    c.sent = 0;
  }
  op.sent_us = now_us();
  op.conn = conn;
  op.req = id;
  inflight_.emplace(id, std::move(op));
  return id;
}

void Generator::poll_until(double until, bool watch_stdin) {
  std::vector<pollfd> pfds;
  for (const Conn& c : conns_) {
    short ev = POLLIN;
    if (c.sent < c.out.size()) ev |= POLLOUT;
    pfds.push_back(pollfd{c.fd, ev, 0});  // fd -1 is skipped by poll
  }
  if (watch_stdin) pfds.push_back(pollfd{0, POLLIN, 0});
  timespec ts{};
  int ready = 0;
  if (spin_) {
    do {
      ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    } while (ready == 0 && now_us() < until);
  } else {
    const double wait = std::max(0.0, until - now_us());
    ts.tv_sec = static_cast<time_t>(wait / 1e6);
    ts.tv_nsec = static_cast<long>(std::fmod(wait, 1e6) * 1e3);
    ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  }
  if (ready <= 0) return;
  if (watch_stdin && (pfds.back().revents & (POLLIN | POLLHUP)) != 0) {
    char line[64];
    if (std::fgets(line, sizeof(line), stdin) == nullptr ||
        std::strncmp(line, "stop", 4) == 0)
      stdin_stop_ = true;
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if ((pfds[i].revents & POLLOUT) != 0) {
      while (c.sent < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.sent,
                                 c.out.size() - c.sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        c.sent += static_cast<std::size_t>(n);
      }
      if (c.sent == c.out.size()) {
        c.out.clear();
        c.sent = 0;
      }
    }
    if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    char buf[64 * 1024];
    bool closed = false;
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
      break;
    }
    // Pin the connection's ACK mode, which the kernel otherwise picks anew
    // per connection, and with it whether a response waits for the
    // client's next request (see README, finding 1). Either way the choice
    // lasts until the next read, so it is made again after each one.
    int quick = o_.delayed_acks ? 0 : 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &quick, sizeof(quick));
    Bytes body;
    while (svc::next_frame(c.in, c.in_off, body) == svc::FrameStatus::Frame) {
      const double t = now_us();
      const svc::WireResponse wire = svc::decode_response(body);
      const auto it = inflight_.find(wire.request_id);
      if (it == inflight_.end()) continue;
      Op op = std::move(it->second);
      inflight_.erase(it);
      on_response_(op, wire.resp, t);
    }
    c.in.erase(0, c.in_off);
    c.in_off = 0;
    if (closed) {  // the node went away; its requests stay unanswered
      ::close(c.fd);
      c.fd = -1;
    }
  }
}

void Generator::barrier(const char* phase) {
  // The orchestrator answers `next`, or `next <site>` when the coordinator
  // has moved (after fault cycles): later phases send there.
  std::printf("phase %s done\n", phase);
  std::fflush(stdout);
  char line[64];
  if (std::fgets(line, sizeof(line), stdin) == nullptr) std::exit(4);
  int site = 0;
  if (std::sscanf(line, "next %d", &site) == 1 && site >= 0 && site < 3)
    o_.leader = site;
}

// --- ops and checks -------------------------------------------------------

std::string Generator::value_of(std::uint64_t value_id) const {
  // Unique per write and reproducible from (seed, id): readback compares
  // bytes without keeping every value in memory.
  std::string v = "v" + std::to_string(value_id) + ":";
  std::uint64_t x = o_.seed ^ (value_id * 0xD1B54A32D192ED03ULL);
  static const char kHex[] = "0123456789abcdef";
  while (v.size() < o_.value_bytes) v += kHex[splitmix(x) & 15];
  return v;
}

Op Generator::make_op(bool read, double due) {
  Op op;
  op.id = next_op_++;
  op.due_us = due;
  if (!o_.kv) {
    if (read && !acked_.empty()) {
      const auto& pick = acked_[splitmix(rng_) % acked_.size()];
      op.op = SvcOp::LogRead;
      op.key = std::to_string(pick.first);
      op.value_id = pick.second;
    } else {
      op.op = SvcOp::LogAppend;
      op.key = std::to_string(splitmix(rng_) % o_.keys);
      op.value_id = next_value_++;
    }
  } else {
    op.op = read ? SvcOp::Get : SvcOp::Put;
    op.key = "k" + std::to_string(splitmix(rng_) % o_.keys);
    if (!read) {
      op.value_id = next_value_++;
      written_[op.key].insert(op.value_id);
    }
  }
  return op;
}

void Generator::record_ack(const Op& op, const SvcResponse& resp) {
  ++writes_ok_;
  if (o_.kv) return;
  const std::uint64_t pos = std::strtoull(resp.value.c_str(), nullptr, 10);
  if (!positions_.insert(pos).second) ++dup_positions_;
  acked_.emplace_back(pos, op.value_id);
}

bool Generator::check_read(const Op& op, const SvcResponse& resp) {
  if (!o_.kv) return resp.value == "D" + value_of(op.value_id);
  // Kv values are "v<id>:..."; the id must be one some put for this key
  // sent (every key was written in prefill, so empty is wrong too).
  if (resp.value.size() < 2 || resp.value[0] != 'v') return false;
  const std::uint64_t id = std::strtoull(resp.value.c_str() + 1, nullptr, 10);
  const auto it = written_.find(op.key);
  return it != written_.end() && it->second.contains(id) &&
         resp.value == value_of(id);
}

void Generator::count_reject(Counts& c, const SvcResponse& resp) {
  if (resp.status == SvcStatus::NotLeader)
    ++c.not_leader;
  else
    ++c.refused;
}

// --- phases ----------------------------------------------------------------

void Generator::prefill() {
  open_conns({0, 1, 2});
  std::uint64_t pending = 0, failures = 0;
  on_response_ = [&](Op&, const SvcResponse& resp, double) {
    --pending;
    if (resp.status != SvcStatus::Ok) ++failures;
  };
  for (std::uint64_t k = 0; k < o_.keys; ++k) {
    Op op;
    op.id = next_op_++;
    op.op = SvcOp::Put;
    op.key = "k" + std::to_string(k);
    op.value_id = next_value_++;
    written_[op.key].insert(op.value_id);
    send(k % conns_.size(), op);
    ++pending;
    while (pending >= 64) poll_until(now_us() + 10'000, false);
  }
  const double deadline = now_us() + 5e6;
  while (pending > 0 && now_us() < deadline) poll_until(deadline, false);
  if (pending > 0 || failures > 0) {
    std::fprintf(stderr, "loadgen: prefill failed (%llu unanswered, %llu "
                         "refused)\n",
                 static_cast<unsigned long long>(pending),
                 static_cast<unsigned long long>(failures));
    std::exit(5);
  }
  close_conns();
}

std::vector<int> steady_nodes(const Options& o) {
  // Log ops go to the coordinator; kv traffic spreads over the fleet.
  std::vector<int> nodes;
  for (std::size_t i = 0; i < o.conns; ++i)
    nodes.push_back(o.kv ? static_cast<int>(i % 3) : o.leader);
  return nodes;
}

bool own_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return ::sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) == 1;
}

void Generator::paced() {
  spin_ = own_cpu();
  open_conns(steady_nodes(o_));
  on_response_ = [&](Op& op, const SvcResponse& resp, double t) {
    if (op.trace_id != 0 && traced_ != nullptr) {
      std::fprintf(traced_, "%llu %d %.3f %.3f %.3f %d %d\n",
                   static_cast<unsigned long long>(op.trace_id),
                   op.write() ? 1 : 0, op.due_us, op.sent_us, t,
                   conns_[op.conn].node, static_cast<int>(resp.status));
    }
    if (resp.status != SvcStatus::Ok) {
      count_reject(paced_, resp);
    } else if (!op.write() && !check_read(op, resp)) {
      ++paced_.invalid;
    } else {
      ++paced_.ok;
      (op.write() ? write_ : read_).us.push_back(t - op.due_us);
      if (op.write()) record_ack(op, resp);
    }
  };
  // The delayed-ACK client pipelines its ops in pairs, two requests back to
  // back on one connection at the same due time and the same op rate. The
  // second response is written while the first is still unacknowledged,
  // which is where a server that leaves Nagle on holds it until the
  // client's next ACK (README, finding 1).
  const std::uint64_t burst = o_.delayed_acks ? 2 : 1;
  const double interval = static_cast<double>(burst) * 1e6 / o_.paced_rate;
  const auto total = static_cast<std::uint64_t>(o_.paced_ms * 1e3 / interval);
  const double t0 = now_us() + 1000;
  std::size_t rr = 0;
  for (std::uint64_t k = 0; k < total;) {
    const double due = t0 + static_cast<double>(k) * interval;
    if (now_us() < due) {
      poll_until(due, false);
      continue;
    }
    const std::size_t conn = rr++ % conns_.size();
    for (std::uint64_t b = 0; b < burst; ++b) {
      Op op = make_op(pick_read(), due);
      if (o_.sample_every > 0 && op.id % o_.sample_every == 0)
        op.trace_id = (o_.seed << 40) ^ op.id ^ (1ULL << 62);
      send(conn, std::move(op));
      late_.us.push_back(now_us() - due);
      ++paced_.attempted;
    }
    ++k;
  }
  const double drain = now_us() + 3e6;
  while (!inflight_.empty() && now_us() < drain) poll_until(drain, false);
  paced_.lost += inflight_.size();
  close_conns();
  spin_ = false;
}

void Generator::closed() {
  // A fixed amount of work (--closed-ops, capped at --closed-ms): memory at
  // the end of the run does not depend on how fast the fleet was. The rate
  // is the median over 50 ms buckets after the first, so one stall of the
  // host does not decide it.
  open_conns(steady_nodes(o_));
  std::size_t rr = 0;
  std::vector<double> acks;
  bool open = true;
  auto issue = [&]() {
    if (!open || closed_.attempted >= o_.closed_ops) return;
    // The log's closed loop is appends only; kv keeps its read share.
    send(rr++ % conns_.size(), make_op(o_.kv && pick_read(), now_us()));
    ++closed_.attempted;
  };
  on_response_ = [&](Op& op, const SvcResponse& resp, double t) {
    if (resp.status != SvcStatus::Ok) {
      count_reject(closed_, resp);
    } else if (!op.write() && !check_read(op, resp)) {
      ++closed_.invalid;
    } else {
      ++closed_.ok;
      acks.push_back(t);
      if (op.write()) record_ack(op, resp);
    }
    issue();
  };
  const double t0 = now_us();
  const double cap = t0 + o_.closed_ms * 1e3;
  for (std::size_t i = 0; i < o_.closed_window; ++i) issue();
  while (!inflight_.empty() && now_us() < cap) poll_until(cap, false);
  closed_seconds_ = (now_us() - t0) / 1e6;
  // Past the cap: stop issuing and give the window its answers.
  open = false;
  const double drain = now_us() + 3e6;
  while (!inflight_.empty() && now_us() < drain) poll_until(drain, false);
  closed_.lost += inflight_.size();
  constexpr double kBucket = 50'000;
  std::vector<double> counts(
      static_cast<std::size_t>(closed_seconds_ * 1e6 / kBucket));
  for (const double t : acks) {
    const auto b = static_cast<std::size_t>((t - t0) / kBucket);
    if (b < counts.size()) counts[b] += 1;
  }
  if (counts.size() >= 4) {
    counts.erase(counts.begin());  // warm-up
    std::sort(counts.begin(), counts.end());
    closed_rate_ = counts[counts.size() / 2] * 1e6 / kBucket;
  } else {
    closed_rate_ = static_cast<double>(acks.size()) / closed_seconds_;
  }
  close_conns();
}

void Generator::catch_up() {
  // Replicas apply behind the coordinator, which acknowledges on its own
  // delivery. Wait (up to two seconds) until every node's tail has reached
  // the highest acknowledged position, and report how long that took: the
  // replica backlog the load left behind.
  std::uint64_t need = 0;
  for (const auto& [pos, id] : acked_) need = std::max(need, pos + 1);
  open_conns({0, 1, 2});
  std::vector<std::uint64_t> tail(3, 0);
  std::size_t outstanding = 0;
  on_response_ = [&](Op& op, const SvcResponse& resp, double) {
    --outstanding;
    if (resp.status == SvcStatus::Ok)
      tail[op.conn] = std::strtoull(resp.value.c_str(), nullptr, 10);
  };
  const double t0 = now_us();
  while (*std::min_element(tail.begin(), tail.end()) < need &&
         now_us() - t0 < 2e6) {
    for (std::size_t n = 0; n < 3; ++n) {
      Op op;
      op.id = next_op_++;
      op.op = SvcOp::LogTail;
      send(n, std::move(op));
      ++outstanding;
    }
    while (outstanding > 0) poll_until(now_us() + 5000, false);
  }
  catch_up_ms_ = (now_us() - t0) / 1e3;
  close_conns();
}

void Generator::verify() {
  // Every acknowledged position is read from one node chosen by the
  // position, so each node serves a third of them. A replica that cannot
  // serve its position (it never caught up, README finding 2) is counted in
  // replica_unserved, not as a failure, and the position is read from the
  // coordinator instead: replica loss is reported, not checked. Wrong bytes
  // from any node, or a position the coordinator cannot serve, is a
  // mismatch.
  catch_up();
  open_conns({0, 1, 2});
  std::deque<std::pair<Op, double>> retry;  // coordinator still settling
  std::size_t next = 0, outstanding = 0;
  const double deadline = now_us() + 20e6;
  on_response_ = [&](Op& op, const SvcResponse& resp, double t) {
    --outstanding;
    const bool unserved = resp.status == SvcStatus::Conflict ||
                          resp.status == SvcStatus::Unavailable;
    if (unserved && conns_[op.conn].node != o_.leader) {
      ++replica_unserved_;
      op.conn = static_cast<std::size_t>(o_.leader);
      retry.emplace_back(op, t);
      return;
    }
    if (unserved) {
      retry.emplace_back(op, t + 5000);
      return;
    }
    ++verified_;
    if (resp.status != SvcStatus::Ok || !check_read(op, resp)) {
      if (++mismatches_ <= 5)
        std::fprintf(stderr,
                     "loadgen: read-back mismatch at position %s from site "
                     "%d: %s %.24s\n",
                     op.key.c_str(), conns_[op.conn].node,
                     runtime::to_string(resp.status), resp.value.c_str());
    }
  };
  while ((next < acked_.size() || outstanding > 0 || !retry.empty()) &&
         now_us() < deadline) {
    while (outstanding < 256 && !retry.empty() &&
           retry.front().second <= now_us()) {
      Op op = std::move(retry.front().first);
      retry.pop_front();
      const std::size_t conn = op.conn;
      send(conn, std::move(op));
      ++outstanding;
    }
    while (outstanding < 256 && next < acked_.size()) {
      Op op;
      op.id = next_op_++;
      op.op = SvcOp::LogRead;
      op.key = std::to_string(acked_[next].first);
      op.value_id = acked_[next].second;
      send(acked_[next].first % conns_.size(), std::move(op));
      ++outstanding;
      ++next;
    }
    poll_until(now_us() + 2000, false);
  }
  // Whatever could not be read back in time is unverified, so failed.
  mismatches_ += (acked_.size() - next) + outstanding + retry.size();
  close_conns();
}

void Generator::fault() {
  // The paced phase of a workload under faults (log only). One connection
  // per node; writes go to the current leader guess, reads (positions
  // acknowledged earlier) to any node. Each op is due on the paced schedule,
  // timed from that due time, and retried until it is acknowledged or its
  // deadline passes:
  //   no answer within attempt_timeout  -> that node is suspected for a
  //                                        while; retry at the next one
  //   NotLeader{site}                   -> retry at `site` (redirect), or
  //                                        at the same node shortly when
  //                                        `site` is suspected
  //   Unavailable / InvalidEpoch        -> retry at the same node shortly
  //   Conflict (a lagging replica)      -> retry at the same node shortly
  // A late Ok for an abandoned attempt is still the op's acknowledgement;
  // the append happened, and its position is verified.
  open_conns({0, 1, 2});
  struct Pending {
    Op op;
    double deadline;
    bool done = false;
    std::uint64_t current = 0;  // request id of the live attempt
  };
  std::unordered_map<std::uint64_t, Pending> ops;  // op id -> state
  std::vector<double> suspect_until(3, 0);
  struct Retry {
    std::uint64_t op_id;
    double at;
    int node;
  };
  std::vector<Retry> retries;
  int leader = o_.leader;
  std::size_t rr = 0;  // reads rotate over the nodes

  auto target = [&](int preferred) {
    const double t = now_us();
    for (int i = 0; i < 3; ++i) {
      const int n = (preferred + i) % 3;
      if (suspect_until[static_cast<std::size_t>(n)] <= t) return n;
    }
    return preferred;
  };
  auto attempt = [&](std::uint64_t op_id, int node) {
    Pending& p = ops.at(op_id);
    p.current = send(static_cast<std::size_t>(node), p.op);
  };
  auto run_retries = [&](double t) {
    std::vector<Retry> due;
    std::erase_if(retries, [&](const Retry& r) {
      if (r.at > t) return false;
      due.push_back(r);
      return true;
    });
    for (const Retry& r : due) {
      const auto pit = ops.find(r.op_id);
      if (pit != ops.end() && !pit->second.done)
        attempt(r.op_id, target(r.node));
    }
  };
  on_response_ = [&](Op& op, const SvcResponse& resp, double t) {
    const int node = conns_[op.conn].node;
    const auto pit = ops.find(op.id);
    if (resp.status == SvcStatus::Ok) {
      if (op.write()) {
        record_ack(op, resp);
        std::fprintf(fault_log_, "%.3f %d %llu\n", t, node,
                     static_cast<unsigned long long>(resp.view_epoch));
      }
      if (pit == ops.end() || pit->second.done) return;
      pit->second.done = true;
      if (!op.write() && !check_read(op, resp)) {
        if (++paced_.invalid <= 5)
          std::fprintf(stderr,
                       "loadgen: read of acknowledged position %s from site "
                       "%d returned %.24s\n",
                       op.key.c_str(), node, resp.value.c_str());
        return;
      }
      ++paced_.ok;
      (op.write() ? write_ : read_).us.push_back(t - op.due_us);
      return;
    }
    // Answers to abandoned attempts are stale; the live attempt decides.
    if (pit == ops.end() || pit->second.done || pit->second.current != op.req)
      return;
    ++fault_retries_;
    int next = node;
    if (resp.status == SvcStatus::NotLeader) {
      const int site = static_cast<int>(resp.coordinator_site);
      if (site != node && site < 3 &&
          suspect_until[static_cast<std::size_t>(site)] <= t) {
        next = site;
        leader = site;
        ++redirects_;
        attempt(op.id, next);
        return;
      }
    }
    retries.push_back({op.id, t + 5000, next});
  };

  const double interval = 1e6 / o_.paced_rate;
  const double t0 = now_us() + 1000;
  std::uint64_t k = 0;
  std::printf("phase fault begin\n");
  std::fflush(stdout);
  while (!stdin_stop_) {
    const double t = now_us();
    const double due = t0 + static_cast<double>(k) * interval;
    if (t >= due) {
      Op op = make_op(pick_read(), due);
      const std::uint64_t id = op.id;
      const bool write = op.write();
      ops.emplace(id, Pending{std::move(op), due + kOpDeadlineUs});
      attempt(id, write ? target(leader) : target(static_cast<int>(rr++ % 3)));
      late_.us.push_back(now_us() - due);
      ++paced_.attempted;
      ++k;
    }
    // Attempt timeouts: suspect the silent node, retry elsewhere.
    for (auto& [id, p] : ops) {
      if (p.done || p.current == 0) continue;
      const auto live = inflight_.find(p.current);
      if (live == inflight_.end() ||
          t - live->second.sent_us < kAttemptTimeoutUs)
        continue;
      p.current = 0;  // abandoned; a late Ok is still recorded
      ++attempt_timeouts_;
      const int node = conns_[live->second.conn].node;
      suspect_until[static_cast<std::size_t>(node)] = t + 500'000;
      const int next = target((node + 1) % 3);
      if (p.op.write()) leader = next;
      retries.push_back({id, t, next});
    }
    run_retries(t);
    // Deadlines: an op not acknowledged in time has failed.
    for (auto it = ops.begin(); it != ops.end();) {
      if (!it->second.done && t > it->second.deadline) {
        ++paced_.timed_out;
        it = ops.erase(it);
      } else if (it->second.done && t > it->second.deadline) {
        it = ops.erase(it);
      } else {
        ++it;
      }
    }
    double wake = std::min(t0 + static_cast<double>(k) * interval,
                           now_us() + 5000);
    for (const Retry& r : retries) wake = std::min(wake, r.at);
    poll_until(wake, true);
  }
  // Drain: give outstanding ops until their deadlines.
  const double drain = now_us() + kOpDeadlineUs;
  while (now_us() < drain) {
    bool open_ops = false;
    for (const auto& [id, p] : ops) open_ops |= !p.done;
    if (!open_ops) break;
    poll_until(now_us() + 5000, false);
    run_retries(now_us());
  }
  for (const auto& [id, p] : ops)
    if (!p.done) ++paced_.timed_out;
  close_conns();
}

void Generator::kv_converge() {
  // After the heals every replica must hold the same value per key, and
  // that value must be one some put wrote. Replicas may lag by in-flight
  // deliveries, so disagreement is re-checked for up to two seconds.
  open_conns({0, 1, 2});
  std::vector<std::string> keys;
  for (const auto& [key, ids] : written_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  const double deadline = now_us() + 2e6;
  std::uint64_t divergent = 0, invalid = 0;
  while (true) {
    std::unordered_map<std::string, std::vector<std::string>> seen;
    std::size_t outstanding = 0;
    invalid = 0;
    on_response_ = [&](Op& op, const SvcResponse& resp, double) {
      --outstanding;
      if (resp.status != SvcStatus::Ok || !check_read(op, resp)) ++invalid;
      seen[op.key].push_back(resp.value);
    };
    for (const std::string& key : keys) {
      for (std::size_t n = 0; n < 3; ++n) {
        Op op;
        op.id = next_op_++;
        op.op = SvcOp::Get;
        op.key = key;
        send(n, std::move(op));
        ++outstanding;
      }
      while (outstanding >= 192) poll_until(now_us() + 2000, false);
    }
    while (outstanding > 0 && now_us() < deadline + 1e6)
      poll_until(now_us() + 2000, false);
    divergent = 0;
    for (const auto& [key, values] : seen)
      if (values.size() != 3 || values[0] != values[1] ||
          values[1] != values[2])
        ++divergent;
    divergent += keys.size() - seen.size();
    if ((divergent == 0 && invalid == 0) || now_us() > deadline) break;
    poll_until(now_us() + 50'000, false);
  }
  verified_ += keys.size();
  mismatches_ += divergent + invalid;
  close_conns();
}

// --- entry -----------------------------------------------------------------

int Generator::run() {
  traced_ = std::fopen((o_.out_dir + "/traced.txt").c_str(), "w");
  fault_log_ = std::fopen((o_.out_dir + "/fault_acks.txt").c_str(), "w");
  if (traced_ == nullptr || fault_log_ == nullptr) {
    std::fprintf(stderr, "loadgen: cannot write to %s\n", o_.out_dir.c_str());
    return 2;
  }
  if (o_.kv) prefill();
  barrier("setup");
  const double cpu0 = cpu_us(), wall0 = now_us();
  if (o_.faults) {
    fault();
  } else {
    paced();
  }
  if (!o_.paced_only) {
    barrier(o_.faults ? "fault" : "paced");
    closed();
    barrier("closed");
  }
  cpu_busy_share_ = (cpu_us() - cpu0) / (now_us() - wall0);
  if (o_.kv)
    kv_converge();
  else
    verify();
  std::fclose(traced_);
  std::fclose(fault_log_);
  // Every first-phase latency, for percentiles pooled over several fleets.
  if (std::FILE* f = std::fopen((o_.out_dir + "/latency.txt").c_str(), "w")) {
    for (const double us : write_.us) std::fprintf(f, "w %.3f\n", us);
    for (const double us : read_.us) std::fprintf(f, "r %.3f\n", us);
    std::fclose(f);
  }
  print_summary();
  return 0;
}

void Generator::print_summary() {
  auto counts = [](const char* name, const Counts& c) {
    std::printf(
        "\"%s\":{\"attempted\":%llu,\"ok\":%llu,\"refused\":%llu,"
        "\"not_leader\":%llu,\"timed_out\":%llu,\"lost\":%llu,"
        "\"invalid\":%llu,\"failed\":%llu},",
        name, static_cast<unsigned long long>(c.attempted),
        static_cast<unsigned long long>(c.ok),
        static_cast<unsigned long long>(c.refused),
        static_cast<unsigned long long>(c.not_leader),
        static_cast<unsigned long long>(c.timed_out),
        static_cast<unsigned long long>(c.lost),
        static_cast<unsigned long long>(c.invalid),
        static_cast<unsigned long long>(c.failed()));
  };
  std::printf("{");
  counts("paced", paced_);
  counts("closed", closed_);
  std::printf(
      "\"write_n\":%zu,\"write_p50_us\":%.3f,\"write_p99_us\":%.3f,"
      "\"read_n\":%zu,\"read_p50_us\":%.3f,\"read_p99_us\":%.3f,"
      "\"late_p99_us\":%.3f,\"closed_rate\":%.3f,\"closed_seconds\":%.6f,"
      "\"cpu_busy_share\":%.6f,\"catch_up_ms\":%.3f,"
      "\"replica_unserved\":%llu,\"verified\":%llu,\"mismatches\":%llu,"
      "\"dup_positions\":%llu,\"writes_ok\":%llu,\"redirects\":%llu,"
      "\"attempt_timeouts\":%llu,"
      "\"fault_retries\":%llu}\n",
      write_.us.size(), write_.pct(0.50), write_.pct(0.99), read_.us.size(),
      read_.pct(0.50), read_.pct(0.99), late_.pct(0.99),
      closed_rate_, closed_seconds_,
      cpu_busy_share_, catch_up_ms_,
      static_cast<unsigned long long>(replica_unserved_),
      static_cast<unsigned long long>(verified_),
      static_cast<unsigned long long>(mismatches_),
      static_cast<unsigned long long>(dup_positions_),
      static_cast<unsigned long long>(writes_ok_),
      static_cast<unsigned long long>(redirects_),
      static_cast<unsigned long long>(attempt_timeouts_),
      static_cast<unsigned long long>(fault_retries_));
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: vsb_loadgen --ports P0,P1,P2 [--kv] [--seed N]\n"
               "  [--conns N] [--leader SITE] [--value-bytes N]\n"
               "  [--keys N] [--read-share F] [--paced-rate R] [--paced-ms T]\n"
               "  [--closed-window W] [--closed-ops N] [--closed-ms CAP]\n"
               "  [--faults] [--delayed-acks]\n"
               "  [--sample-every N] [--paced-only] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kv" || arg == "--paced-only" || arg == "--faults" ||
        arg == "--delayed-acks") {
      (arg == "--kv"             ? o.kv
       : arg == "--faults"       ? o.faults
       : arg == "--delayed-acks" ? o.delayed_acks
                                 : o.paced_only) = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--ports") {
      std::size_t start = 0;
      while (start <= v.size()) {
        const std::size_t comma = v.find(',', start);
        const std::string part =
            v.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
        o.ports.push_back(static_cast<std::uint16_t>(std::stoul(part)));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--seed") {
      o.seed = std::stoull(v);
    } else if (arg == "--conns") {
      o.conns = std::stoul(v);
    } else if (arg == "--leader") {
      o.leader = std::stoi(v);
    } else if (arg == "--value-bytes") {
      o.value_bytes = std::stoul(v);
    } else if (arg == "--keys") {
      o.keys = std::stoull(v);
    } else if (arg == "--read-share") {
      o.read_share = std::stod(v);
    } else if (arg == "--paced-rate") {
      o.paced_rate = std::stod(v);
    } else if (arg == "--paced-ms") {
      o.paced_ms = std::stod(v);
    } else if (arg == "--closed-window") {
      o.closed_window = std::stoul(v);
    } else if (arg == "--closed-ops") {
      o.closed_ops = std::stoull(v);
    } else if (arg == "--closed-ms") {
      o.closed_ms = std::stod(v);
    } else if (arg == "--sample-every") {
      o.sample_every = std::stoull(v);
    } else if (arg == "--out-dir") {
      o.out_dir = v;
    } else {
      return usage();
    }
  }
  if (o.ports.size() != 3 || o.conns == 0 || o.leader < 0 || o.leader > 2)
    return usage();
  // Wake at each due time, not up to the default 50 us timer slack later.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  return Generator(std::move(o)).run();
}
