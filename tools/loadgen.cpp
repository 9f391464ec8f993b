// loadgen: open-loop load generator for the client front door.
//
// Opens N persistent TCP connections to one node's svc endpoint and sends
// requests at a fixed aggregate rate, round-robin across connections,
// without waiting for responses (open loop: queueing delay shows up as
// latency instead of silently throttling the offered load). Request k is
// due at start + k/rate; the engine sleeps until the next due time and
// times each request from its due time, so a late send counts against the
// run rather than hiding in the generator.
//
// --op get|put|mix drives a kv object. --op append sends LogAppend with
// numeric keys (the router spreads them over the shards by residue) to the
// log's coordinator, records every acknowledged global position, counts
// positions acknowledged twice (a forked log), then verifies through the
// retrying SDK (tools/svc_client.hpp): LogTail, then a read of every
// position below it (up to --verify-limit) expecting data or junk fill;
// anything else is a hole.
//
// Prints one JSON object: request counts per status ("unavailable" are
// admission-control sheds; "rejected" is every answer but Ok and
// NotLeader), connection counts, "lost" (never answered by the drain
// deadline), ops/s, p50/p95/p99 and, for append, appends/s, "tail",
// "verified", "holes", "dup_positions" and "dense"; fields that do not
// apply read 0. Exits non-zero iff lost > 0 or dup_positions > 0.
//
//   ./loadgen --addr 127.0.0.1:9200 --op mix --conns 64 --rate 5000
//   ./loadgen --addr 127.0.0.1:9200 --op append --conns 8 --rate 4000
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "svc/protocol.hpp"
#include "svc_client.hpp"

using namespace evs;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t conns = 16;
  std::uint64_t rate = 1000;         // aggregate requests/second
  std::uint64_t duration_ms = 5000;  // send window
  std::uint64_t drain_ms = 2000;     // post-window wait for stragglers
  std::string op = "mix";            // get | put | mix | append
  std::uint64_t view_epoch = 0;      // 0 = wildcard (never fenced)
  std::uint64_t key_space = 64;
  std::uint64_t value_bytes = 64;
  /// Learn the installed epoch through the retrying SDK (one fenced Get,
  /// riding out InvalidEpoch) and stamp it into every open-loop request,
  /// so the run measures the fenced path instead of the wildcard.
  bool fence = false;
  /// Stamp every Nth request with the sampled trace flag (trace id = the
  /// request id), so the servers record its whole lifecycle and
  /// `trace_check --request <id>` can assemble the span tree afterwards.
  /// 0 = never sample (the default: zero tracing work server-side).
  std::uint64_t sample_every = 0;
  std::uint64_t verify_limit = 100'000;  // append: max positions read back
  bool verify = true;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --addr IP:PORT [--conns N] [--rate OPS_PER_SEC]\n"
               "          [--duration-ms N] [--drain-ms N]\n"
               "          [--op get|put|mix|append] [--view-epoch N]\n"
               "          [--key-space N] [--value-bytes N] [--fence]\n"
               "          [--sample-every N] [--verify-limit N] [--no-verify]\n"
               "  --fence does not combine with --op append (shards fence\n"
               "  independently)\n",
               argv0);
  return 2;
}

std::uint64_t now_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end == text.c_str() + text.size();
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

struct Conn {
  int fd = -1;
  bool connecting = false;
  std::string in;           // unparsed response bytes
  std::size_t in_off = 0;   // parse offset into `in`
  std::string out;          // request bytes awaiting the socket
  std::size_t sent = 0;     // prefix of `out` already written
};

/// Summary field per SvcStatus value (Ok = 1 ... NotLeader = 6).
constexpr const char* kStatusFields[] = {
    nullptr,       "ok",          "conflict",  "stale_epoch",
    "unavailable", "unsupported", "not_leader"};

struct Stats {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t by_status[std::size(kStatusFields)] = {};
  std::uint64_t conns_refused = 0;  // connect failed / closed before use
  std::uint64_t conns_closed = 0;   // closed mid-run with traffic in flight
  std::uint64_t sampled = 0;        // requests stamped with a trace id
  std::uint64_t last_trace_id = 0;  // the final sampled request's trace id
  std::vector<std::uint64_t> latencies_us;
  std::vector<std::uint64_t> positions;  // append: acked global positions
  // Append verify pass.
  std::uint64_t tail = 0;
  std::uint64_t verified = 0;
  std::uint64_t holes = 0;
};

void open_conn(const Options& options, Conn& conn, Stats& stats) {
  conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (conn.fd < 0) {
    ++stats.conns_refused;
    return;
  }
  int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  ::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr);
  const int rc = ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  conn.connecting = rc < 0 && errno == EINPROGRESS;
  if (rc < 0 && !conn.connecting) {
    ::close(conn.fd);
    conn.fd = -1;
    ++stats.conns_refused;
  }
}

runtime::SvcRequest make_request(const Options& options, std::uint64_t id,
                                 const std::string& value, Stats& stats) {
  runtime::SvcRequest req;
  req.view_epoch = options.view_epoch;
  if (options.op == "append") {
    req.op = runtime::SvcOp::LogAppend;
    req.key = std::to_string(id % options.key_space);
    req.value = value;
  } else {
    const bool put =
        options.op == "put" || (options.op == "mix" && id % 2 == 0);
    req.op = put ? runtime::SvcOp::Put : runtime::SvcOp::Get;
    req.key = "bench-k" + std::to_string(id % options.key_space);
    if (put) req.value = value;
  }
  if (options.sample_every != 0 && id % options.sample_every == 0) {
    req.trace_id = id;  // request ids start at 1: never zero
    req.sampled = true;
    ++stats.sampled;
    stats.last_trace_id = id;
  }
  return req;
}

void count_reply(const Options& options, const runtime::SvcResponse& resp,
                 Stats& stats) {
  ++stats.completed;
  ++stats.by_status[static_cast<std::size_t>(resp.status)];  // decode-checked
  std::uint64_t pos = 0;
  if (resp.status == runtime::SvcStatus::Ok && options.op == "append" &&
      parse_u64(resp.value, pos))
    stats.positions.push_back(pos);
}

/// Flushes `conn.out` and reads and matches every complete response;
/// false when the connection died.
bool pump(const Options& options, Conn& conn, short revents,
          std::unordered_map<std::uint64_t, std::uint64_t>& inflight,
          Stats& stats) {
  if ((revents & (POLLERR | POLLHUP)) != 0) return false;
  if ((revents & POLLOUT) != 0) {
    if (conn.connecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) return false;
      conn.connecting = false;
    }
    while (conn.sent < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.sent,
                               conn.out.size() - conn.sent, MSG_NOSIGNAL);
      if (n > 0) {
        conn.sent += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return false;
      }
    }
    if (conn.sent == conn.out.size()) {
      conn.out.clear();
      conn.sent = 0;
    }
  }
  if ((revents & POLLIN) == 0) return true;
  bool alive = true;
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
    } else {
      // Orderly close or error; EAGAIN just means drained.
      alive = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      break;
    }
  }
  const std::uint64_t now = now_us();
  Bytes body;
  while (true) {
    const svc::FrameStatus st = svc::next_frame(conn.in, conn.in_off, body);
    if (st == svc::FrameStatus::NeedMore) break;
    if (st == svc::FrameStatus::Malformed) return false;
    try {
      const svc::WireResponse wire = svc::decode_response(body);
      const auto it = inflight.find(wire.request_id);
      if (it == inflight.end()) continue;
      stats.latencies_us.push_back(now - std::min(now, it->second));
      inflight.erase(it);
      count_reply(options, wire.resp, stats);
    } catch (const DecodeError&) {
      return false;
    }
  }
  if (conn.in_off > 0) {
    conn.in.erase(0, conn.in_off);
    conn.in_off = 0;
  }
  return alive;
}

/// The open loop: sends on schedule until the send window closes, then
/// drains until every request is answered or the drain deadline passes.
/// Returns the requests left unanswered.
std::size_t run_load(const Options& options, Stats& stats,
                     std::uint64_t& wall_us) {
  std::vector<Conn> conns(options.conns);
  for (Conn& conn : conns) open_conn(options, conn, stats);

  // request_id -> due time; ids are globally unique so responses can be
  // matched regardless of which connection carried them.
  std::unordered_map<std::uint64_t, std::uint64_t> inflight;
  const std::string value(options.value_bytes, 'v');
  const std::uint64_t start = now_us();
  const std::uint64_t send_deadline = start + options.duration_ms * 1'000;
  const std::uint64_t drain_deadline =
      send_deadline + options.drain_ms * 1'000;
  const double interval_us = 1e6 / static_cast<double>(options.rate);
  const auto due_at = [&](std::uint64_t id) {
    return start + static_cast<std::uint64_t>(static_cast<double>(id) *
                                              interval_us);
  };
  std::size_t rr = 0;  // round-robin cursor

  std::vector<pollfd> pfds;
  while (true) {
    const std::uint64_t now = now_us();
    if (now >= drain_deadline) break;
    if (inflight.empty() && now >= send_deadline) break;

    // Enqueue every request whose due time has come (ids start at 1).
    while (due_at(stats.attempted + 1) <= std::min(now, send_deadline)) {
      std::size_t tries = 0;
      while (tries < conns.size() && conns[rr].fd < 0) {
        rr = (rr + 1) % conns.size();
        ++tries;
      }
      if (tries == conns.size()) break;  // every connection is gone
      Conn& conn = conns[rr];
      rr = (rr + 1) % conns.size();
      const std::uint64_t id = ++stats.attempted;
      svc::append_frame(conn.out, svc::encode_request(
                                      id, make_request(options, id, value,
                                                       stats)));
      inflight.emplace(id, due_at(id));
    }

    pfds.clear();
    for (const Conn& conn : conns) {
      if (conn.fd < 0) continue;
      short events = POLLIN;
      if (conn.connecting || conn.sent < conn.out.size()) events |= POLLOUT;
      pfds.push_back(pollfd{conn.fd, events, 0});
    }
    if (pfds.empty()) break;

    // Sleep until the next request is due (or the drain deadline).
    const std::uint64_t next_due = due_at(stats.attempted + 1);
    const std::uint64_t wake =
        next_due <= send_deadline ? next_due : drain_deadline;
    const std::uint64_t sleep_us = wake > now ? wake - now : 0;
    const timespec timeout{static_cast<time_t>(sleep_us / 1'000'000),
                           static_cast<long>(sleep_us % 1'000'000) * 1'000};
    ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);

    std::size_t pi = 0;
    for (Conn& conn : conns) {
      if (conn.fd < 0) continue;
      if (pump(options, conn, pfds[pi++].revents, inflight, stats)) continue;
      ::close(conn.fd);
      conn.fd = -1;
      if (conn.connecting) {
        ++stats.conns_refused;  // never got to send anything
      } else {
        ++stats.conns_closed;
      }
    }
  }
  for (Conn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  wall_us = std::max<std::uint64_t>(1, now_us() - start);
  return inflight.size();
}

/// Reads back every position below the log's tail through the SDK.
void verify_log(const Options& options, Stats& stats) {
  tools::SvcClient client(tools::SvcAddr{options.host, options.port});
  runtime::SvcRequest treq;
  treq.op = runtime::SvcOp::LogTail;
  const runtime::SvcResponse tresp =
      client.call(treq, /*fence=*/false);  // shards fence independently
  if (tresp.status == runtime::SvcStatus::Ok) parse_u64(tresp.value, stats.tail);
  const std::uint64_t upto = std::min(stats.tail, options.verify_limit);
  for (std::uint64_t pos = 0; pos < upto; ++pos) {
    runtime::SvcRequest rreq;
    rreq.op = runtime::SvcOp::LogRead;
    rreq.key = std::to_string(pos);
    const runtime::SvcResponse rresp = client.call(rreq, /*fence=*/false);
    if (rresp.status == runtime::SvcStatus::Ok &&
        (rresp.value.starts_with("D") || rresp.value.starts_with("F") ||
         rresp.value.starts_with("T"))) {
      ++stats.verified;
    } else {
      ++stats.holes;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fence") {
      options.fence = true;
      continue;
    }
    if (arg == "--no-verify") {
      options.verify = false;
      continue;
    }
    if (++i >= argc) return usage(argv[0]);
    const std::string v = argv[i];
    std::uint64_t n = 0;
    if (arg == "--addr") {
      const auto colon = v.rfind(':');
      if (colon == std::string::npos || !parse_u64(v.substr(colon + 1), n))
        return usage(argv[0]);
      options.host = v.substr(0, colon);
      options.port = static_cast<std::uint16_t>(n);
    } else if (arg == "--op") {
      options.op = v;
    } else if (!parse_u64(v, n)) {
      return usage(argv[0]);
    } else if (arg == "--conns") {
      options.conns = n;
    } else if (arg == "--rate") {
      options.rate = n;
    } else if (arg == "--duration-ms") {
      options.duration_ms = n;
    } else if (arg == "--drain-ms") {
      options.drain_ms = n;
    } else if (arg == "--view-epoch") {
      options.view_epoch = n;
    } else if (arg == "--key-space") {
      options.key_space = std::max<std::uint64_t>(1, n);
    } else if (arg == "--value-bytes") {
      options.value_bytes = n;
    } else if (arg == "--sample-every") {
      options.sample_every = n;
    } else if (arg == "--verify-limit") {
      options.verify_limit = n;
    } else {
      return usage(argv[0]);
    }
  }
  const bool append = options.op == "append";
  if (options.port == 0 || options.conns == 0 || options.rate == 0)
    return usage(argv[0]);
  if (!append && options.op != "get" && options.op != "put" &&
      options.op != "mix")
    return usage(argv[0]);
  if (append && options.fence) return usage(argv[0]);

  if (options.fence) {
    tools::SvcClient client(tools::SvcAddr{options.host, options.port});
    runtime::SvcRequest probe;
    probe.op = runtime::SvcOp::Get;
    probe.key = "bench-fence";
    if (client.call(probe).status != runtime::SvcStatus::Ok) {
      std::fprintf(stderr, "--fence: could not learn the view epoch\n");
      return 1;
    }
    options.view_epoch = client.fenced_epoch();
  }

  Stats stats;
  std::uint64_t wall_us = 1;
  const std::size_t lost = run_load(options, stats, wall_us);

  // Single-copy check: no global position acked twice.
  std::sort(stats.positions.begin(), stats.positions.end());
  std::uint64_t dup_positions = 0;
  for (std::size_t i = 1; i < stats.positions.size(); ++i)
    if (stats.positions[i] == stats.positions[i - 1]) ++dup_positions;
  if (append && options.verify) verify_log(options, stats);

  std::sort(stats.latencies_us.begin(), stats.latencies_us.end());
  const auto per_sec = [wall_us](std::uint64_t count) {
    return std::to_string(static_cast<double>(count) * 1e6 /
                          static_cast<double>(wall_us));
  };
  std::string json;
  const auto field = [&json](const char* name, const std::string& value) {
    json += (json.empty() ? "{\"" : ",\"") + std::string(name) + "\":" + value;
  };
  const auto num = [](std::uint64_t v) { return std::to_string(v); };
  field("conns", num(options.conns));
  field("attempted", num(stats.attempted));
  field("completed", num(stats.completed));
  for (std::size_t st = 1; st < std::size(kStatusFields); ++st)
    field(kStatusFields[st], num(stats.by_status[st]));
  const auto answered = [&stats](runtime::SvcStatus status) {
    return stats.by_status[static_cast<std::size_t>(status)];
  };
  field("rejected", num(stats.completed - answered(runtime::SvcStatus::Ok) -
                        answered(runtime::SvcStatus::NotLeader)));
  field("conns_refused", num(stats.conns_refused));
  field("conns_closed", num(stats.conns_closed));
  field("lost", num(lost));
  field("sampled", num(stats.sampled));
  field("last_trace_id", num(stats.last_trace_id));
  field("duration_ms", num(wall_us / 1'000));
  field("ops_per_sec", per_sec(stats.completed));
  field("appends_per_sec", per_sec(stats.positions.size()));
  field("p50_us", num(percentile(stats.latencies_us, 0.50)));
  field("p95_us", num(percentile(stats.latencies_us, 0.95)));
  field("p99_us", num(percentile(stats.latencies_us, 0.99)));
  field("tail", num(stats.tail));
  field("verified", num(stats.verified));
  field("holes", num(stats.holes));
  field("dup_positions", num(dup_positions));
  field("dense", stats.holes == 0 && dup_positions == 0 ? "true" : "false");
  std::printf("%s}\n", json.c_str());
  return (lost == 0 && dup_positions == 0) ? 0 : 1;
}
