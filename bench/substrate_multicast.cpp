// SUBSTRATE — view-synchronous multicast cost under the two orders the
// stack ships (Section 2 notes view synchrony imposes no order within a
// view; EVS adds a total one, and this prices it).
//
//   FifoOrder  — vsync::Endpoint::multicast: per-sender FIFO, the raw
//                view-synchronous channel;
//   TotalOrder — core::EvsEndpoint::app_multicast: a member forwards, the
//                view primary stamps, everyone delivers the sequencer's
//                single FIFO stream (Section 6.1's P6.1/P6.2 mechanism).
//
// A stable group of n members exchanges a fixed number of multicasts; we
// report, per configuration:
//   - the median simulated time from a multicast's send to its delivery
//     at the last member (sim_ms_to_all_p50); the sequencer's extra hop
//     shows here,
//   - physical messages the network carried per application multicast,
//   - bytes on the wire per multicast,
//   - frame encodes per multicast (encode-once fan-out: ~1, not n-1),
//   - payload buffers shared vs copied on the wire path.
// Expected shape: total adds ~(n-1)^2/n messages per multicast (a
// non-primary's multicast travels twice: forward, then stamp) and
// centralises load at the sequencer.
// Every counter but the timings is deterministic: CI compares them with
// the committed BENCH_substrate_multicast.json (bench/compare_counters.py).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "evs/endpoint.hpp"
#include "obs/dump.hpp"
#include "sim/world.hpp"

namespace evs::bench {
namespace {

constexpr int kMessages = 200;

// When each multicast of a run was sent and last delivered, and at how
// many members; the payload names the multicast.
struct Deliveries {
  explicit Deliveries(const sim::Scheduler& clock) : clock(clock) {}
  void delivered(const Bytes& payload) {
    std::size_t m = 0;
    for (std::size_t i = 8; i < payload.size(); ++i)  // after "payload-"
      m = m * 10 + (payload[i] - '0');
    ++count[m];
    last[m] = clock.now();
  }
  const sim::Scheduler& clock;
  std::vector<SimTime> sent = std::vector<SimTime>(kMessages);
  std::vector<SimTime> last = std::vector<SimTime>(kMessages);
  std::vector<std::size_t> count = std::vector<std::size_t>(kMessages);
};

// Raw view-synchronous multicast: per-sender FIFO.
struct Fifo : vsync::Delegate {
  using Endpoint = vsync::Endpoint;
  void attach(Endpoint& ep) { ep.set_delegate(this); }
  static void send(Endpoint& ep, Bytes payload) {
    ep.multicast(std::move(payload));
  }
  void on_view(const gms::View&, const vsync::InstallInfo&) override {}
  void on_deliver(ProcessId, const Bytes& payload) override {
    ++delivered;
    log->delivered(payload);
  }
  Deliveries* log = nullptr;
  std::uint64_t delivered = 0;
};

// EVS application multicast: sequencer total order.
struct Total : core::EvsDelegate {
  using Endpoint = core::EvsEndpoint;
  void attach(Endpoint& ep) { ep.set_evs_delegate(this); }
  static void send(Endpoint& ep, Bytes payload) {
    ep.app_multicast(std::move(payload));
  }
  void on_eview(const core::EView&) override {}
  void on_app_deliver(ProcessId, const Bytes& payload) override {
    ++delivered;
    log->delivered(payload);
  }
  Deliveries* log = nullptr;
  std::uint64_t delivered = 0;
};

template <typename Order>
void MulticastBench(benchmark::State& state, const char* tag) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));

  double to_all_ms = 0;
  double net_msgs_per_mc = 0;
  double wire_bytes_per_mc = 0;
  double frames_per_mc = 0;
  double copies_per_mc = 0;
  double shared_per_mc = 0;
  std::uint64_t runs = 0;

  for (auto _ : state) {
    sim::World world(21000 + runs);
    const auto sites = world.add_sites(n);
    vsync::EndpointConfig cfg;
    cfg.universe = sites;

    std::vector<typename Order::Endpoint*> eps;
    std::vector<std::unique_ptr<Order>> delegates;
    Deliveries log(world.scheduler());
    for (const SiteId site : sites) {
      eps.push_back(&world.spawn<typename Order::Endpoint>(site, cfg));
      delegates.push_back(std::make_unique<Order>());
      delegates.back()->log = &log;
      delegates.back()->attach(*eps.back());
    }
    // Group formation.
    for (int i = 0; i < 3000; ++i) {
      world.run_for(10 * kMillisecond);
      bool stable = true;
      for (auto* ep : eps)
        stable = stable && ep->view().size() == n && !ep->blocked();
      if (stable) break;
    }

    const sim::NetworkStats net_before = world.network().stats();
    std::uint64_t frames_before = 0;
    for (auto* ep : eps) frames_before += ep->stats().frames_encoded;
    for (int m = 0; m < kMessages; ++m) {
      log.sent[static_cast<std::size_t>(m)] = world.scheduler().now();
      Order::send(*eps[static_cast<std::size_t>(m) % n],
                  to_bytes("payload-" + std::to_string(m)));
      world.run_for(2 * kMillisecond);
    }
    // Drain.
    const std::uint64_t want = static_cast<std::uint64_t>(kMessages) * n;
    for (int i = 0; i < 3000; ++i) {
      std::uint64_t got = 0;
      for (auto& d : delegates) got += d->delivered;
      if (got >= want) break;
      world.run_for(10 * kMillisecond);
    }

    std::vector<SimTime> to_all;
    for (std::size_t m = 0; m < kMessages; ++m)
      if (log.count[m] == n) to_all.push_back(log.last[m] - log.sent[m]);
    std::nth_element(to_all.begin(), to_all.begin() + to_all.size() / 2,
                     to_all.end());
    to_all_ms += static_cast<double>(to_all[to_all.size() / 2]) / kMillisecond;
    const sim::NetworkStats& net = world.network().stats();
    net_msgs_per_mc +=
        static_cast<double>(net.messages_sent - net_before.messages_sent) /
        kMessages;
    wire_bytes_per_mc +=
        static_cast<double>(net.bytes_sent - net_before.bytes_sent) / kMessages;
    copies_per_mc +=
        static_cast<double>(net.payload_copies - net_before.payload_copies) /
        kMessages;
    shared_per_mc +=
        static_cast<double>(net.payloads_shared - net_before.payloads_shared) /
        kMessages;
    std::uint64_t frames = 0;
    for (auto* ep : eps) frames += ep->stats().frames_encoded;
    frames_per_mc += static_cast<double>(frames - frames_before) / kMessages;
    ++runs;

    if (!obs::trace_out_dir().empty()) {
      // Dump the last run's structured trace/metrics (recording is enabled
      // automatically by the World when EVS_TRACE_OUT is set; it never
      // perturbs the wire path, so the counters above are unaffected).
      world.network().export_metrics(world.metrics());
      for (std::size_t i = 0; i < eps.size(); ++i)
        eps[i]->export_metrics(world.metrics(), "p" + std::to_string(i));
      world.dump_trace(std::string("substrate_") + tag + "_n" +
                       std::to_string(n));
    }
  }

  state.counters["sim_ms_to_all_p50"] = to_all_ms / runs;
  state.counters["net_msgs_per_mc"] = net_msgs_per_mc / runs;
  state.counters["wire_bytes_per_mc"] = wire_bytes_per_mc / runs;
  state.counters["frames_encoded_per_mc"] = frames_per_mc / runs;
  state.counters["payload_copies_per_mc"] = copies_per_mc / runs;
  state.counters["payloads_shared_per_mc"] = shared_per_mc / runs;
}

void FifoOrder(benchmark::State& state) { MulticastBench<Fifo>(state, "fifo"); }
void TotalOrder(benchmark::State& state) {
  MulticastBench<Total>(state, "total");
}

BENCHMARK(FifoOrder)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(TotalOrder)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace
}  // namespace evs::bench
