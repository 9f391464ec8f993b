// vsb_replay: in-process layer replay for the benchmark's traced run.
//
// Times calls into each layer's public surface on the workload's own
// request shape (a LogAppend with a --value-bytes record), one layer at a
// time, with nothing else running:
//
//   codec.svc_encode_ns   svc::encode_request of the append
//   codec.svc_decode_ns   svc::decode_response of its Ok reply
//   log.apply_append_ns   LogShard applying one ordered append
//   log.encode_state_ns   LogShard encoding a --records-record state
//   store.put_flush_ns    WalStore put + flush, fdatasync on, in --dir
//   evs.deliver_ns        EvsEndpoint::app_multicast to ordered delivery at
//                         all members of a 3-member sim::World
//   net.send_ns           UdpTransport send + flush of one frame, loopback
//
// Prints one JSON object; each value is wall-clock ns per call.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "evs/endpoint.hpp"
#include "log/log_shard.hpp"
#include "net/event_loop.hpp"
#include "net/udp_transport.hpp"
#include "sim/world.hpp"
#include "store/wal_store.hpp"
#include "svc/protocol.hpp"

using namespace evs;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Exposes the shard's ordered-apply and state-encode paths, which the
/// group-object base class keeps protected.
class ReplayShard : public log::LogShard {
 public:
  using LogShard::LogShard;
  void deliver(const Bytes& payload) {
    on_object_deliver(ProcessId{}, payload);
  }
  Bytes state() const { return snapshot_state(); }
};

Bytes append_payload(const std::string& record) {
  Encoder enc;
  enc.put_u8(1);  // LogShard's Append op
  enc.put_string(record);
  return std::move(enc).take();
}

double codec_encode_ns(const std::string& value, int n) {
  runtime::SvcRequest req;
  req.op = runtime::SvcOp::LogAppend;
  req.key = "1234";
  req.value = value;
  std::size_t bytes = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i)
    bytes += svc::encode_request(static_cast<std::uint64_t>(i), req).size();
  const double ns = ns_since(t0) / n;
  return bytes > 0 ? ns : 0;
}

double codec_decode_ns(int n) {
  const Bytes body =
      svc::encode_response(42, runtime::SvcResponse::ok(7, "123456"));
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) sum += svc::decode_response(body).request_id;
  const double ns = ns_since(t0) / n;
  return sum > 0 ? ns : 0;
}

log::LogShardConfig shard_config() {
  log::LogShardConfig config;
  config.object.endpoint.universe = {SiteId{0}, SiteId{1}, SiteId{2}};
  return config;
}

double log_apply_ns(const std::string& value, int n) {
  ReplayShard shard(shard_config());
  const Bytes payload = append_payload(value);
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) shard.deliver(payload);
  return ns_since(t0) / n;
}

double log_encode_state_ns(const std::string& value, int records, int n) {
  ReplayShard shard(shard_config());
  const Bytes payload = append_payload(value);
  for (int i = 0; i < records; ++i) shard.deliver(payload);
  std::size_t bytes = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) bytes += shard.state().size();
  const double ns = ns_since(t0) / n;
  return bytes > 0 ? ns : 0;
}

double store_put_flush_ns(const std::string& dir, const std::string& value,
                          int n) {
  store::WalStoreConfig config;
  config.dir = dir;
  store::WalStore wal(config);
  const Bytes bytes(value.begin(), value.end());
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    wal.put("k" + std::to_string(i % 64), bytes);
    wal.flush();
  }
  return ns_since(t0) / n;
}

class Counter : public core::EvsDelegate {
 public:
  explicit Counter(core::EvsEndpoint& ep) { ep.set_evs_delegate(this); }
  void on_eview(const core::EView&) override {}
  void on_app_deliver(ProcessId, const Bytes&) override { ++delivered; }
  std::uint64_t delivered = 0;
};

double evs_deliver_ns(const std::string& value, int n) {
  sim::World world(/*seed=*/7);
  const auto sites = world.add_sites(3);
  vsync::EndpointConfig config;
  config.universe = sites;
  auto& a = world.spawn<core::EvsEndpoint>(sites[0], config);
  auto& b = world.spawn<core::EvsEndpoint>(sites[1], config);
  auto& c = world.spawn<core::EvsEndpoint>(sites[2], config);
  Counter ca(a), cb(b), cc(c);
  world.run_for(2 * kSecond);
  a.request_merge_all();
  world.run_for(1 * kSecond);
  const Bytes payload(value.begin(), value.end());
  const std::uint64_t before = ca.delivered + cb.delivered + cc.delivered;
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    a.app_multicast(payload);
    if (i % 64 == 63) world.run_for(10 * kMillisecond);
  }
  while (ca.delivered + cb.delivered + cc.delivered - before <
         3 * static_cast<std::uint64_t>(n))
    world.run_for(10 * kMillisecond);
  return ns_since(t0) / n;
}

std::uint16_t free_udp_port() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

double net_send_ns(const std::string& value, int n) {
  const std::uint16_t pa = free_udp_port(), pb = free_udp_port();
  auto config = [&](std::uint32_t self) {
    net::NodeConfig c;
    c.self = SiteId{self};
    c.peers[SiteId{0}] = net::PeerAddr{INADDR_LOOPBACK, pa};
    c.peers[SiteId{1}] = net::PeerAddr{INADDR_LOOPBACK, pb};
    return c;
  };
  net::EventLoop loop;
  net::UdpTransport a(loop, config(0));
  net::UdpTransport b(loop, config(1));
  std::uint64_t received = 0;
  b.set_deliver([&](ProcessId, const Bytes&) { ++received; });
  const Bytes payload(value.begin(), value.end());
  const ProcessId to{SiteId{1}, 1};
  double ns = 0;
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    a.send(to, payload);
    a.flush();
    ns += ns_since(t0);
    if (i % 32 == 31) loop.run_for(200);  // drain the receiver
  }
  loop.run_for(10 * kMillisecond);
  return received > 0 ? ns / n : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t value_bytes = 64;
  int records = 1000;
  std::string dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--value-bytes") {
      value_bytes = std::strtoul(argv[i + 1], nullptr, 10);
    } else if (arg == "--records") {
      records = std::atoi(argv[i + 1]);
    } else if (arg == "--dir") {
      dir = argv[i + 1];
    } else {
      std::fprintf(stderr, "usage: vsb_replay --dir DIR [--value-bytes N] "
                           "[--records N]\n");
      return 2;
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "vsb_replay: --dir is required\n");
    return 2;
  }
  const std::string value(value_bytes, 'v');
  std::printf(
      "{\"codec.svc_encode_ns\":%.3f,\"codec.svc_decode_ns\":%.3f,"
      "\"log.apply_append_ns\":%.3f,\"log.encode_state_ns\":%.3f,"
      "\"store.put_flush_ns\":%.3f,\"evs.deliver_ns\":%.3f,"
      "\"net.send_ns\":%.3f}\n",
      codec_encode_ns(value, 200'000), codec_decode_ns(200'000),
      log_apply_ns(value, 200'000), log_encode_state_ns(value, records, 200),
      store_put_flush_ns(dir, value, 200), evs_deliver_ns(value, 5'000),
      net_send_ns(value, 20'000));
  return 0;
}
