#include "order/layers.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace evs::order {

namespace {

enum class Tag : std::uint8_t {
  Plain = 1,    // FifoLayer payload
  Causal = 2,   // vector clock + payload
  Forward = 3,  // total order: unstamped send
  Stamped = 4,  // total order: sequencer's stamped copy
};

}  // namespace

void export_metrics(const LayerStats& stats, obs::MetricsRegistry& registry,
                    const std::string& prefix) {
  registry.counter(prefix + ".sent").set(stats.sent);
  registry.counter(prefix + ".delivered").set(stats.delivered);
  registry.counter(prefix + ".reordered").set(stats.reordered);
  registry.counter(prefix + ".drained_at_view").set(stats.drained_at_view);
  registry.counter(prefix + ".overhead_bytes").set(stats.overhead_bytes);
}

// ---------------------------------------------------------------- Fifo ---

FifoLayer::FifoLayer(vsync::Endpoint& endpoint, OrderDelegate& up)
    : endpoint_(endpoint), up_(up) {
  endpoint_.set_delegate(this);
}

void FifoLayer::multicast(Bytes payload) {
  ++stats_.sent;
  Encoder enc;
  enc.reserve(payload.size() + 8);
  enc.put_u8(static_cast<std::uint8_t>(Tag::Plain));
  enc.put_bytes(payload);
  stats_.overhead_bytes += enc.size() - payload.size();
  endpoint_.multicast(std::move(enc).take());
}

void FifoLayer::on_view(const gms::View& view, const vsync::InstallInfo& info) {
  up_.on_view(view, info);
}

void FifoLayer::on_deliver(ProcessId sender, const Bytes& payload) {
  Decoder dec(payload);
  if (static_cast<Tag>(dec.get_u8()) != Tag::Plain)
    throw DecodeError("FifoLayer: unexpected tag");
  ++stats_.delivered;
  up_.on_deliver(sender, dec.get_bytes());
}

void FifoLayer::on_block() { up_.on_block(); }

Bytes FifoLayer::flush_context() { return up_.flush_context(); }

// -------------------------------------------------------------- Causal ---

CausalLayer::CausalLayer(vsync::Endpoint& endpoint, OrderDelegate& up)
    : endpoint_(endpoint), up_(up) {
  endpoint_.set_delegate(this);
}

void CausalLayer::multicast(Bytes payload) {
  const gms::View& view = endpoint_.view();
  if (delivered_.size() != view.size()) delivered_ = VectorClock(view.size());
  VectorClock stamp = delivered_;
  stamp.increment(view.rank_of(endpoint_.id()));

  ++stats_.sent;
  Encoder enc;
  enc.reserve(payload.size() + 10 * stamp.size() + 8);
  enc.put_u8(static_cast<std::uint8_t>(Tag::Causal));
  stamp.encode(enc);
  enc.put_bytes(payload);
  stats_.overhead_bytes += enc.size() - payload.size();
  endpoint_.multicast(std::move(enc).take());
  // Own delivery comes back through on_deliver like everyone else's.
}

void CausalLayer::on_deliver(ProcessId sender, const Bytes& payload) {
  Decoder dec(payload);
  if (static_cast<Tag>(dec.get_u8()) != Tag::Causal)
    throw DecodeError("CausalLayer: unexpected tag");
  Held held;
  held.sender = sender;
  held.vc = VectorClock::decode(dec);
  held.payload = dec.get_bytes();
  if (held.vc.size() != endpoint_.view().size()) {
    // A message stamped in a different view slipped through the flush of a
    // concurrent membership; deliver it unordered rather than drop it.
    deliver(held);
    return;
  }
  held_.push_back(std::move(held));
  drain_ready();
}

void CausalLayer::drain_ready() {
  const gms::View& view = endpoint_.view();
  if (delivered_.size() != view.size()) delivered_ = VectorClock(view.size());
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < held_.size(); ++i) {
      const Held& h = held_[i];
      if (!view.contains(h.sender)) continue;
      const std::size_t rank = view.rank_of(h.sender);
      if (h.vc.deliverable_at(rank, delivered_)) {
        delivered_.set(rank, h.vc.at(rank));
        deliver(h);
        held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;
        break;
      }
    }
  }
  stats_.reordered += held_.size();
}

void CausalLayer::deliver(const Held& held) {
  ++stats_.delivered;
  up_.on_deliver(held.sender, held.payload);
}

void CausalLayer::on_view(const gms::View& view, const vsync::InstallInfo& info) {
  // Drain everything still held, deterministically: Agreement says every
  // survivor holds the same set, so sorting by (vc-total, sender, clock)
  // yields the same order everywhere. Dependencies that never arrived were
  // delivered nowhere, so skipping them cannot split histories.
  std::sort(held_.begin(), held_.end(), [](const Held& a, const Held& b) {
    if (a.vc.total() != b.vc.total()) return a.vc.total() < b.vc.total();
    if (a.sender != b.sender) return a.sender < b.sender;
    return a.vc.str() < b.vc.str();
  });
  stats_.drained_at_view += held_.size();
  if (auto* bus = endpoint_.trace(); bus != nullptr && bus->enabled()) {
    if (!held_.empty()) {
      // The endpoint has already installed `view`; the drain is the first
      // thing that happens in it.
      bus->record({endpoint_.now(), endpoint_.id(), obs::EventKind::OrderDrain,
                   view.id, {}, 0, held_.size()});
    }
  }
  for (const Held& h : held_) deliver(h);
  held_.clear();
  delivered_ = VectorClock(view.size());
  up_.on_view(view, info);
}

void CausalLayer::on_block() { up_.on_block(); }

Bytes CausalLayer::flush_context() { return up_.flush_context(); }

// --------------------------------------------------------------- Total ---

TotalLayer::TotalLayer(vsync::Endpoint& endpoint, OrderDelegate& up)
    : endpoint_(endpoint), up_(up) {
  endpoint_.set_delegate(this);
}

bool TotalLayer::is_sequencer() const {
  return endpoint_.view().primary() == endpoint_.id();
}

void TotalLayer::multicast(Bytes payload) {
  ++stats_.sent;
  const std::uint64_t seq = ++lseq_;
  Encoder enc;
  enc.reserve(payload.size() + 32);
  if (is_sequencer()) {
    // The sequencer stamps its own sends directly.
    enc.put_u8(static_cast<std::uint8_t>(Tag::Stamped));
    enc.put_process(endpoint_.id());
    enc.put_varint(seq);
    enc.put_varint(++gseq_out_);
    enc.put_bytes(payload);
  } else {
    enc.put_u8(static_cast<std::uint8_t>(Tag::Forward));
    enc.put_varint(seq);
    enc.put_bytes(payload);
  }
  stats_.overhead_bytes += enc.size() - payload.size();
  endpoint_.multicast(std::move(enc).take());
}

void TotalLayer::on_deliver(ProcessId sender, const Bytes& payload) {
  Decoder dec(payload);
  const Tag tag = static_cast<Tag>(dec.get_u8());
  if (tag == Tag::Forward) {
    const std::uint64_t lseq = dec.get_varint();
    Bytes body = dec.get_bytes();
    const MsgKey key{sender, lseq};
    if (delivered_.contains(sender, lseq)) return;  // stamped copy came first
    unordered_.emplace(key, std::move(body));
    // Sequencer stamps it (unless frozen — then the view-change drain will
    // deliver it deterministically).
    if (is_sequencer() && !endpoint_.blocked()) {
      const auto it = unordered_.find(key);
      Encoder enc;
      enc.reserve(it->second.size() + 32);
      enc.put_u8(static_cast<std::uint8_t>(Tag::Stamped));
      enc.put_process(sender);
      enc.put_varint(lseq);
      enc.put_varint(++gseq_out_);
      enc.put_bytes(it->second);
      stats_.overhead_bytes += enc.size() - it->second.size();
      endpoint_.multicast(std::move(enc).take());
    }
    return;
  }
  if (tag != Tag::Stamped) throw DecodeError("TotalLayer: unexpected tag");
  const ProcessId origin = dec.get_process();
  const std::uint64_t lseq = dec.get_varint();
  dec.get_varint();  // gseq: FIFO from the sequencer already orders these
  Bytes body = dec.get_bytes();
  const MsgKey key{origin, lseq};
  if (!delivered_.insert(origin, lseq)) return;  // duplicate stamp
  unordered_.erase(key);
  deliver(origin, body);
}

void TotalLayer::deliver(ProcessId origin, const Bytes& payload) {
  ++stats_.delivered;
  up_.on_deliver(origin, payload);
}

void TotalLayer::on_view(const gms::View& view, const vsync::InstallInfo& info) {
  // Forwards that never got stamped: every survivor holds the same set
  // (Agreement), delivered here in deterministic (origin, lseq) order.
  stats_.drained_at_view += unordered_.size();
  if (auto* bus = endpoint_.trace(); bus != nullptr && bus->enabled()) {
    if (!unordered_.empty()) {
      bus->record({endpoint_.now(), endpoint_.id(), obs::EventKind::OrderDrain,
                   view.id, {}, 0, unordered_.size()});
    }
  }
  for (const auto& [key, body] : unordered_) deliver(key.first, body);
  unordered_.clear();
  delivered_.clear();
  lseq_ = 0;
  gseq_out_ = 0;
  up_.on_view(view, info);
}

void TotalLayer::on_block() { up_.on_block(); }

Bytes TotalLayer::flush_context() { return up_.flush_context(); }

}  // namespace evs::order
