// NET — view-synchronous multicast over real UDP sockets on loopback.
//
// The real-socket counterpart of SUBSTRATE: n vsync endpoints, each on its
// own thread with its own epoll loop and UDP transport (exactly the
// tools/evs_node hosting arrangement), form a group on 127.0.0.1 and
// exchange paced multicasts. We report:
//   - delivery latency p50 / p95 in microseconds (send timestamp rides in
//     the payload; every member's delivery is a sample),
//   - datagrams per application multicast (the n-1 fan-out plus protocol
//     chatter), and the encode-once sharing counters,
//   - syscalls per multicast (sendmsg/sendmmsg + recvmsg/recvmmsg calls,
//     counted at the call sites, so the batching win is measured rather
//     than guessed) and frames per datagram (the coalescing ratio),
//   - the semantic invariants: delivered_frames and delivered_bytes must
//     be identical however the wire path batches or packs datagrams.
// Unlike the sim benches the numbers here include real kernel send/recv
// cost and scheduler noise — EXPERIMENTS.md compares the two regimes.
#include <benchmark/benchmark.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/config.hpp"
#include "net/event_loop.hpp"
#include "net/udp_transport.hpp"
#include "vsync/endpoint.hpp"

namespace evs::bench {
namespace {

/// Wall-independent cross-thread clock for latency stamps (each loop's
/// Clock has its own origin, so loop time cannot compare across nodes).
std::uint64_t global_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ull;
}

constexpr std::size_t kPayloadBytes = 64;

/// One group member: loop + transport + endpoint on a dedicated thread.
class BenchNode : public vsync::Delegate {
 public:
  BenchNode(net::NodeConfig config, const vsync::EndpointConfig& ep_config)
      : transport_(loop_, std::move(config)), endpoint_(ep_config) {
    endpoint_.set_delegate(this);
    env_.transport = &transport_;
    env_.clock = &loop_;
    env_.timers = &loop_;
    env_.store = &store_;
    transport_.set_deliver([this](ProcessId from, const Bytes& payload) {
      endpoint_.on_message(from, payload);
    });
  }

  void start(std::size_t group_size) {
    group_size_ = group_size;
    thread_ = std::thread([this]() {
      endpoint_.bind(env_, transport_.self());
      endpoint_.on_start();
      loop_.run();
    });
  }

  void stop() {
    loop_.request_stop();
    thread_.join();
  }

  /// Posts `count` multicasts onto this node's loop, `per_tick` per 1ms.
  void send_async(int count, int per_tick) {
    loop_.post([this, count, per_tick]() { send_some(count, per_tick); });
  }

  bool in_full_view() const {
    return full_view_.load(std::memory_order_acquire);
  }
  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// Latency samples in µs; only read after stop().
  const std::vector<std::uint64_t>& latencies() const { return latencies_; }
  const net::UdpStats& udp_stats() const { return transport_.stats(); }
  const vsync::EndpointStats& endpoint_stats() const {
    return endpoint_.stats();
  }

 private:
  void send_some(int remaining, int per_tick) {
    for (int i = 0; i < per_tick && remaining > 0; ++i, --remaining) {
      Bytes payload(kPayloadBytes, 0);
      const std::uint64_t stamp = global_us();
      std::memcpy(payload.data(), &stamp, sizeof(stamp));
      endpoint_.multicast(std::move(payload));
    }
    if (remaining > 0) {
      loop_.set_timer(1 * kMillisecond, [this, remaining, per_tick]() {
        send_some(remaining, per_tick);
      });
    }
  }

  // vsync::Delegate (runs on this node's loop thread).
  void on_view(const gms::View& view, const vsync::InstallInfo&) override {
    if (view.size() == group_size_)
      full_view_.store(true, std::memory_order_release);
  }
  void on_deliver(ProcessId, const Bytes& payload) override {
    std::uint64_t stamp = 0;
    if (payload.size() >= sizeof(stamp)) {
      std::memcpy(&stamp, payload.data(), sizeof(stamp));
      const std::uint64_t now = global_us();
      latencies_.push_back(now >= stamp ? now - stamp : 0);
    }
    delivered_.fetch_add(1, std::memory_order_relaxed);
    delivered_bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
  }

 public:
  std::uint64_t delivered_bytes() const {
    return delivered_bytes_.load(std::memory_order_relaxed);
  }

 private:

  net::EventLoop loop_;
  net::UdpTransport transport_;
  runtime::MemoryStore store_;
  vsync::Endpoint endpoint_;
  runtime::Env env_;
  std::thread thread_;
  std::size_t group_size_ = 0;
  std::atomic<bool> full_view_{false};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> delivered_bytes_{0};
  std::vector<std::uint64_t> latencies_;
};

std::uint16_t free_port() {
  // Delegate to the kernel: UdpTransport itself reports its bound port,
  // but the peer book must be complete before any transport exists, so we
  // probe with throwaway sockets first.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

bool await(const std::function<bool()>& pred, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

double percentile(std::vector<std::uint64_t>& samples, double p) {
  if (samples.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) / 100.0);
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return static_cast<double>(samples[idx]);
}

void NetUdpMulticast(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr int kMessages = 500;  // per run, all from one sender

  std::vector<std::uint64_t> all_latencies;
  double datagrams_per_mc = 0;
  double shared_per_mc = 0;
  double copies_per_mc = 0;
  double sendmsg_calls_per_mc = 0;
  double recvmsg_calls_per_mc = 0;
  double frames_per_datagram = 0;
  double delivered_frames = 0;
  double delivered_bytes = 0;
  std::uint64_t runs = 0;

  for (auto _ : state) {
    std::vector<net::PeerAddr> addrs;
    for (std::size_t i = 0; i < n; ++i)
      addrs.push_back({INADDR_LOOPBACK, free_port()});

    vsync::EndpointConfig ep_config;
    for (std::size_t i = 0; i < n; ++i)
      ep_config.universe.push_back(SiteId{static_cast<std::uint32_t>(i)});

    std::vector<std::unique_ptr<BenchNode>> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      net::NodeConfig config;
      config.self = SiteId{static_cast<std::uint32_t>(i)};
      for (std::size_t j = 0; j < n; ++j)
        config.peers.emplace(SiteId{static_cast<std::uint32_t>(j)}, addrs[j]);
      nodes.push_back(std::make_unique<BenchNode>(config, ep_config));
    }
    for (auto& node : nodes) node->start(n);

    if (!await(
            [&]() {
              for (auto& node : nodes)
                if (!node->in_full_view()) return false;
              return true;
            },
            30000)) {
      state.SkipWithError("group never formed on loopback");
      for (auto& node : nodes) node->stop();
      return;
    }

    std::uint64_t datagrams_before = 0, sendmsg_before = 0, recvmsg_before = 0,
                  frames_before = 0;
    for (auto& node : nodes) {
      datagrams_before += node->udp_stats().datagrams_sent;
      sendmsg_before += node->udp_stats().sendmsg_calls;
      recvmsg_before += node->udp_stats().recvmsg_calls;
      frames_before += node->udp_stats().frames_sent;
    }

    nodes[0]->send_async(kMessages, /*per_tick=*/5);
    const std::uint64_t want = static_cast<std::uint64_t>(kMessages) * n;
    if (!await(
            [&]() {
              std::uint64_t got = 0;
              for (auto& node : nodes) got += node->delivered();
              return got >= want;
            },
            60000)) {
      state.SkipWithError("multicasts never fully delivered");
      for (auto& node : nodes) node->stop();
      return;
    }

    for (auto& node : nodes) node->stop();

    std::uint64_t datagrams = 0, shared = 0, copies = 0, delivered = 0,
                  sendmsg = 0, recvmsg = 0, frames = 0, bytes = 0;
    for (auto& node : nodes) {
      datagrams += node->udp_stats().datagrams_sent;
      shared += node->udp_stats().payloads_shared;
      copies += node->udp_stats().payload_copies;
      sendmsg += node->udp_stats().sendmsg_calls;
      recvmsg += node->udp_stats().recvmsg_calls;
      frames += node->udp_stats().frames_sent;
      delivered += node->delivered();
      bytes += node->delivered_bytes();
      all_latencies.insert(all_latencies.end(), node->latencies().begin(),
                           node->latencies().end());
    }
    const std::uint64_t datagram_delta = datagrams - datagrams_before;
    datagrams_per_mc += static_cast<double>(datagram_delta) / kMessages;
    shared_per_mc += static_cast<double>(shared) / kMessages;
    copies_per_mc += static_cast<double>(copies) / kMessages;
    sendmsg_calls_per_mc +=
        static_cast<double>(sendmsg - sendmsg_before) / kMessages;
    recvmsg_calls_per_mc +=
        static_cast<double>(recvmsg - recvmsg_before) / kMessages;
    if (datagram_delta > 0)
      frames_per_datagram +=
          static_cast<double>(frames - frames_before) /
          static_cast<double>(datagram_delta);
    delivered_frames += static_cast<double>(delivered);
    delivered_bytes += static_cast<double>(bytes);
    ++runs;
  }

  state.counters["lat_p50_us"] = percentile(all_latencies, 50);
  state.counters["lat_p95_us"] = percentile(all_latencies, 95);
  state.counters["datagrams_per_mc"] = datagrams_per_mc / runs;
  state.counters["payloads_shared_per_mc"] = shared_per_mc / runs;
  state.counters["payload_copies_per_mc"] = copies_per_mc / runs;
  // Syscall economy of the send phase: every sendmsg/sendmmsg and
  // recvmsg/recvmmsg call across the whole fleet, amortised per multicast.
  state.counters["sendmsg_calls_per_mc"] = sendmsg_calls_per_mc / runs;
  state.counters["recvmsg_calls_per_mc"] = recvmsg_calls_per_mc / runs;
  state.counters["syscalls_per_mc"] =
      (sendmsg_calls_per_mc + recvmsg_calls_per_mc) / runs;
  state.counters["frames_per_datagram"] = frames_per_datagram / runs;
  // Semantic invariants: exactly kMessages deliveries at each of n members,
  // kPayloadBytes each, whatever the wire path batches or coalesces.
  state.counters["delivered_frames"] = delivered_frames / runs;
  state.counters["delivered_bytes"] = delivered_bytes / runs;
}

BENCHMARK(NetUdpMulticast)
    ->Arg(4)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->UseRealTime();

}  // namespace
}  // namespace evs::bench
