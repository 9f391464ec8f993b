// Ordering layers stacked on a vsync::Endpoint.
//
// View synchrony itself imposes no order on deliveries within a view
// (Section 2). These adapters add one:
//   FifoLayer   — per-sender FIFO (what the endpoint already provides);
//                 a transparent pass-through, the baseline for benches.
//   CausalLayer — causal order via vector clocks piggybacked on payloads.
//   TotalLayer  — total order via a sequencer (the view primary): members
//                 forward sends through the group, the sequencer stamps a
//                 global sequence, everyone delivers in stamp order.
//
// All three preserve the view-synchrony properties: their traffic rides
// on the endpoint's multicast, so it participates in the flush. At a view
// change each layer deterministically drains whatever ordering state it
// holds — Agreement guarantees every survivor holds the same set, so the
// drained delivery order is identical everywhere.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "order/delivered_set.hpp"
#include "order/vector_clock.hpp"
#include "vsync/endpoint.hpp"

namespace evs::order {

/// What a layer exposes upward (mirrors vsync::Delegate).
class OrderDelegate {
 public:
  virtual ~OrderDelegate() = default;
  virtual void on_view(const gms::View& view, const vsync::InstallInfo& info) = 0;
  virtual void on_deliver(ProcessId sender, const Bytes& payload) = 0;
  virtual void on_block() {}
  virtual Bytes flush_context() { return {}; }
};

struct LayerStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t reordered = 0;       // held back before delivery
  std::uint64_t drained_at_view = 0; // force-delivered at a view change
  std::uint64_t overhead_bytes = 0;  // ordering metadata on the wire
};

/// Projects a layer's stats into `registry` as counters under `prefix`.
void export_metrics(const LayerStats& stats, obs::MetricsRegistry& registry,
                    const std::string& prefix);

class FifoLayer : public vsync::Delegate {
 public:
  FifoLayer(vsync::Endpoint& endpoint, OrderDelegate& up);

  void multicast(Bytes payload);
  const LayerStats& stats() const { return stats_; }

  void on_view(const gms::View& view, const vsync::InstallInfo& info) override;
  void on_deliver(ProcessId sender, const Bytes& payload) override;
  void on_block() override;
  Bytes flush_context() override;

 private:
  vsync::Endpoint& endpoint_;
  OrderDelegate& up_;
  LayerStats stats_;
};

class CausalLayer : public vsync::Delegate {
 public:
  CausalLayer(vsync::Endpoint& endpoint, OrderDelegate& up);

  void multicast(Bytes payload);
  const LayerStats& stats() const { return stats_; }

  void on_view(const gms::View& view, const vsync::InstallInfo& info) override;
  void on_deliver(ProcessId sender, const Bytes& payload) override;
  void on_block() override;
  Bytes flush_context() override;

 private:
  struct Held {
    ProcessId sender;
    VectorClock vc;
    Bytes payload;
  };

  void drain_ready();
  void deliver(const Held& held);

  vsync::Endpoint& endpoint_;
  OrderDelegate& up_;
  VectorClock delivered_;  // per current view
  std::vector<Held> held_;
  LayerStats stats_;
};

class TotalLayer : public vsync::Delegate {
 public:
  TotalLayer(vsync::Endpoint& endpoint, OrderDelegate& up);

  void multicast(Bytes payload);
  const LayerStats& stats() const { return stats_; }
  bool is_sequencer() const;

  void on_view(const gms::View& view, const vsync::InstallInfo& info) override;
  void on_deliver(ProcessId sender, const Bytes& payload) override;
  void on_block() override;
  Bytes flush_context() override;

 private:
  using MsgKey = std::pair<ProcessId, std::uint64_t>;  // (origin, lseq)

  void deliver(ProcessId origin, const Bytes& payload);

  vsync::Endpoint& endpoint_;
  OrderDelegate& up_;
  std::uint64_t lseq_ = 0;        // own forward counter (per view)
  std::uint64_t gseq_out_ = 0;    // sequencer's stamp counter (per view)
  std::map<MsgKey, Bytes> unordered_;  // forwarded, not yet stamped
  DeliveredSet delivered_;             // stamped & delivered
  LayerStats stats_;
};

}  // namespace evs::order
