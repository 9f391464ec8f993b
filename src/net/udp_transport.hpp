// Real-time runtime, part 4: the UDP messenger.
//
// One non-blocking UDP socket per *process*, driven by the EventLoop,
// speaking the unchanged gms::frame wire format wrapped in the 28-byte
// datagram header (net/datagram.hpp). Addressing uses the static peer
// book from NodeConfig — sites never move during a run, matching the
// paper's model of sites as stable locations.
//
// The socket is shared by every group instance the process hosts: each
// frame carries its GroupId in the envelope, sends take the group as an
// explicit argument (or go through a GroupChannel facade, which is what a
// hosted node's runtime::Transport actually is), and the receive path
// demuxes on the header's group field to the per-group deliver-callback.
// A frame for a group this process does not host is counted
// dropped_unknown_group and discarded — the multi-group analogue of
// dropped_unknown_peer.
//
// The send path is batched: send/send_to_site/send_multi enqueue frames
// (validated and counted at enqueue time, preserving the old synchronous
// drop semantics) and flush() — run by the EventLoop's Wire-stage flush
// hook once per loop iteration, after the store's sync and the svc
// replies — packs the whole queue onto the wire:
//
//   * frames to the same (site, incarnation, group, trace) may be
//     coalesced into one datagram of length-prefixed sub-frames (magic
//     "EVSD"), so a tick's burst of small protocol messages costs one
//     datagram per peer per group — the trace context rides the envelope,
//     so frames of different traced requests never share a datagram, and
//     untraced traffic (trace 0, all of a sampling-off run) packs exactly
//     as before;
//   * all datagrams of the flush go down in one sendmmsg() (headers and
//     sub-frame prefixes encoded into preallocated arenas, payload bytes
//     scatter/gathered straight out of their SharedBytes buffers — the
//     encode-once fan-out contract survives batching *and* coalescing);
//   * a sendmmsg failure is loss for exactly one datagram (counted in
//     send_errors, the rest of the batch still goes out), matching the
//     old per-datagram sendmsg error handling.
//
// The receive path drains the socket with recvmmsg() into a reusable
// buffer pool and splits coalesced datagrams back into individual frames
// before delivery — same frames, same per-peer order as the unbatched
// path. It stays bounded and drop-oriented: the substrate already assumes
// lossy links, so every malformed, truncated, spoofed, unknown-peer or
// stale-incarnation datagram is counted and dropped — a malformed
// sub-frame length rejects its whole datagram (no partial delivery).
// Drop-rules (set_drop_all / set_drop_site) emulate partitions for tests
// and demos, the real-socket analogue of sim::Network::set_partition.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "net/config.hpp"
#include "net/datagram.hpp"
#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"

namespace evs::net {

/// Most sub-frames one coalesced datagram will carry. Keeps the iovec
/// count per message (1 header + 2 per frame) far under IOV_MAX while
/// still amortizing one datagram over a whole tick's worth of small
/// protocol messages.
inline constexpr std::size_t kMaxFramesPerDatagram = 128;

/// Wire counters of one group's share of the socket. The aggregate
/// counters in UdpStats keep their exact old meaning; these slice the
/// frame/byte counters per group so /metrics can show both views.
struct GroupWireStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frame_bytes_sent = 0;      // payload bytes, headers excluded
  std::uint64_t frame_bytes_received = 0;
};

struct UdpStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;  // accepted and delivered
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  /// Protocol frames carried by sent / accepted datagrams; exceeds the
  /// datagram counters exactly by what coalescing packed together.
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  /// Sent datagrams that carried >= 2 coalesced sub-frames.
  std::uint64_t datagrams_coalesced = 0;
  /// Syscall counters: the wire path's real cost. sendmsg_calls counts
  /// sendmmsg() invocations, recvmsg_calls counts recvmmsg() — each
  /// covers a whole batch, so calls << datagrams is the win being bought.
  std::uint64_t sendmsg_calls = 0;
  std::uint64_t recvmsg_calls = 0;
  /// Sends that owned their buffer (send / send_to_site): one heap buffer.
  std::uint64_t payload_copies = 0;
  /// Sends off a ref-counted fan-out buffer (send_multi): no copy at all.
  std::uint64_t payloads_shared = 0;
  std::uint64_t dropped_malformed = 0;    // runt, bad magic, spoofed site
  std::uint64_t dropped_truncated = 0;    // datagram exceeded our buffer
  std::uint64_t dropped_unknown_peer = 0;  // source address not in the book
  std::uint64_t dropped_unknown_group = 0;  // group not hosted here
  std::uint64_t dropped_stale_incarnation = 0;
  std::uint64_t dropped_rule = 0;   // partition drop-rules
  std::uint64_t dropped_oversize = 0;  // payload > kMaxPayload on send
  std::uint64_t send_errors = 0;    // sendmmsg failures (EAGAIN, ENETUNREACH..)
  std::uint64_t recv_errors = 0;    // unexpected recvmmsg failures
};

class UdpTransport final : public runtime::Transport {
 public:
  /// Binds the socket to config.self's peer address and registers it with
  /// the loop. Throws InvariantViolation (EVS_CHECK) on bind failure.
  UdpTransport(EventLoop& loop, NodeConfig config);
  ~UdpTransport() override;
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// The identity this transport gives its node.
  ProcessId self() const { return ProcessId{config_.self, config_.incarnation}; }
  const NodeConfig& config() const { return config_; }
  int fd() const { return fd_; }
  /// The port actually bound (differs from config when it said port 0).
  std::uint16_t bound_port() const { return bound_port_; }

  /// Registers the deliver-callback of one group instance; frames whose
  /// envelope names `group` go to `fn`. The overload without a group is
  /// the single-group legacy spelling (kDefaultGroup).
  void set_deliver(GroupId group, DeliverFn fn);
  void set_deliver(DeliverFn fn) { set_deliver(kDefaultGroup, std::move(fn)); }
  /// Unregisters a group's deliver-callback: subsequent frames for it are
  /// counted dropped_unknown_group (per-group teardown, see NetRuntime).
  void clear_deliver(GroupId group);

  // runtime::Transport (the single-group legacy surface: kDefaultGroup).
  // Frames are queued; the loop's flush hook (or an explicit flush())
  // puts them on the wire.
  void send(ProcessId to, Bytes payload) override;
  void send_to_site(SiteId site, Bytes payload) override;
  void send_multi(const std::vector<ProcessId>& recipients,
                  SharedBytes payload) override;

  // Group-addressed sends: what GroupChannel forwards to.
  void send(GroupId group, ProcessId to, Bytes payload);
  void send_to_site(GroupId group, SiteId site, Bytes payload);
  void send_multi(GroupId group, const std::vector<ProcessId>& recipients,
                  SharedBytes payload);

  /// Sets the trace context stamped onto subsequently enqueued frames
  /// (carried in the datagram envelope, 0 = untraced). Scoped by the
  /// caller around the sends a traced request provokes.
  void set_trace_context(std::uint64_t trace) override {
    current_trace_ = trace;
  }

  /// Transmits everything queued since the last flush: groups frames per
  /// (site, incarnation, group, trace), coalesces small frames, and
  /// issues one sendmmsg per <= 1024 datagrams. Idempotent when the queue
  /// is empty.
  void flush();
  std::size_t pending_frames() const { return pending_.size(); }

  /// Partition emulation: drop all traffic in both directions (incoming
  /// datagrams are discarded on receive, outgoing at enqueue time).
  void set_drop_all(bool on) { drop_all_ = on; }
  void set_drop_site(SiteId site, bool on);

  const UdpStats& stats() const { return stats_; }
  /// One group's slice of the frame/byte counters (zeroes if never seen).
  GroupWireStats group_stats(GroupId group) const;
  /// Exports the aggregate counters under `prefix` plus, when more than
  /// one group has touched the wire, per-group slices under
  /// `prefix.group<id>.` — the per-group labels /metrics reports.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "udp") const;

 private:
  friend struct UdpTransportTestHook;  // tests inject socket-level faults

  struct PendingFrame {
    SiteId site;
    std::uint32_t dest_incarnation = 0;
    GroupId group = kDefaultGroup;
    /// Trace context active when the frame was enqueued (0 = untraced).
    std::uint64_t trace = 0;
    SharedBytes payload;
  };

  /// Enqueue-time validation and accounting (drop rules, unknown peer,
  /// oversize), so counters move when send() runs, not at flush.
  void enqueue(GroupId group, SiteId site, std::uint32_t dest_incarnation,
               SharedBytes payload);
  void on_readable();
  /// Validates and delivers one received datagram (splitting coalesced
  /// payloads); `n` is the wire size, `flags` the per-message msg_flags.
  void handle_datagram(const sockaddr_in& src, const std::uint8_t* data,
                       std::size_t n, int flags);

  EventLoop& loop_;
  NodeConfig config_;
  int fd_ = -1;
  std::uint16_t bound_port_ = 0;
  /// Per-group demux table; receive looks the envelope's group up here.
  std::unordered_map<GroupId, DeliverFn> deliver_;
  UdpStats stats_;
  std::map<GroupId, GroupWireStats> group_stats_;
  bool drop_all_ = false;
  /// Trace context stamped onto frames at enqueue time (0 = untraced).
  std::uint64_t current_trace_ = 0;
  std::unordered_set<SiteId> drop_sites_;
  /// (ip << 16 | port) -> site, for source validation on receive.
  std::unordered_map<std::uint64_t, SiteId> addr_to_site_;
  EventLoop::FlushHookId flush_hook_ = 0;

  std::vector<PendingFrame> pending_;

  // Flush arenas, reused across flushes (grow-only): mmsghdr/iovec/
  // sockaddr/header/prefix storage filled per flush, with iovec ranges
  // patched into the mmsghdrs only after every push_back is done so
  // vector growth can never leave a stale pointer behind.
  struct FlushKey {
    SiteId site;
    std::uint32_t incarnation = 0;
    GroupId group = kDefaultGroup;
    /// Trace context of the frames under this key: the envelope carries
    /// one trace per datagram, so mixed-trace frames never coalesce.
    std::uint64_t trace = 0;
    bool operator==(const FlushKey&) const = default;
  };
  struct FlushKeyHash {
    std::size_t operator()(const FlushKey& k) const {
      std::uint64_t h = (std::uint64_t{k.site.value} << 32) | k.incarnation;
      h ^= (std::uint64_t{k.group} + 0x9e3779b97f4a7c15ull) + (h << 6) +
           (h >> 2);
      h ^= k.trace + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return std::hash<std::uint64_t>{}(h);
    }
  };
  std::unordered_map<FlushKey, std::vector<std::size_t>, FlushKeyHash>
      flush_groups_;
  std::vector<FlushKey> flush_group_order_;
  std::vector<mmsghdr> out_msgs_;
  std::vector<std::size_t> out_iov_first_;
  std::vector<iovec> out_iovs_;
  std::vector<sockaddr_in> out_dests_;
  std::vector<std::uint8_t> out_headers_;
  std::vector<std::uint8_t> out_prefixes_;
  std::vector<std::uint32_t> out_frame_counts_;
  std::vector<std::size_t> out_sizes_;
  std::vector<GroupId> out_groups_;
  std::vector<std::size_t> out_payload_bytes_;

  // Receive pool: kRecvBatch fixed-size buffers drained per recvmmsg.
  static constexpr unsigned kRecvBatch = 16;
  static constexpr std::size_t kRecvBufSize = kHeaderSize + kMaxPayload + 1;
  std::vector<std::uint8_t> recv_buffers_;
  std::vector<mmsghdr> recv_msgs_;
  std::vector<iovec> recv_iovs_;
  std::vector<sockaddr_in> recv_srcs_;
  std::vector<std::pair<std::size_t, std::size_t>> subframe_scratch_;
};

/// The runtime::Transport one hosted group instance actually sees: every
/// send is forwarded to the shared UdpTransport stamped with this group's
/// id. Receive-side wiring is separate (UdpTransport::set_deliver(group)),
/// done by the host when it binds the node.
class GroupChannel final : public runtime::Transport {
 public:
  GroupChannel(UdpTransport& transport, GroupId group)
      : transport_(transport), group_(group) {}

  GroupId group() const { return group_; }

  void send(ProcessId to, Bytes payload) override {
    transport_.send(group_, to, std::move(payload));
  }
  void send_to_site(SiteId site, Bytes payload) override {
    transport_.send_to_site(group_, site, std::move(payload));
  }
  void send_multi(const std::vector<ProcessId>& recipients,
                  SharedBytes payload) override {
    transport_.send_multi(group_, recipients, std::move(payload));
  }
  void set_trace_context(std::uint64_t trace) override {
    transport_.set_trace_context(trace);
  }

 private:
  UdpTransport& transport_;
  GroupId group_;
};

}  // namespace evs::net
