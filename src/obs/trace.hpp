// Observability: the structured trace bus.
//
// One TraceBus per sim::World collects typed, sim-timestamped events from
// every protocol layer (detector suspicions, view-change rounds, flush
// deliveries, e-view changes, mode transitions, state-transfer chunks...)
// into a bounded ring buffer. Recording is off by default and every hook
// is guarded by `enabled()` — a single bool load — so an uninstrumented
// run pays near-zero cost and, crucially, the wire path is never
// perturbed: the bus consumes no randomness and schedules no events.
//
// Two exporters serve two audiences:
//   * write_jsonl(): one JSON object per line, machine-readable; the
//     format round-trips through read_jsonl() so recorded runs can be
//     replayed through the oracle engine (obs/check.hpp) offline.
//   * write_chrome_trace(): Chrome trace-event JSON; open the file in
//     chrome://tracing or https://ui.perfetto.dev to see a per-process
//     timeline of every run (sites become processes, incarnations become
//     threads).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace evs::obs {

/// Every event the protocol layers can report. Values are stable: they
/// appear by name in trace files.
enum class EventKind : std::uint8_t {
  HeartbeatSuspect = 1,   // detector: peer dropped out of the reachable set
  HeartbeatUnsuspect,     // detector: peer re-entered the reachable set
  ViewProposed,           // coordinator started a round (seq = round number)
  ViewAcked,              // member froze and ACKed (peer = coordinator)
  ViewInstalled,          // new view installed (value = member count)
  FlushDelivery,          // delivery from an install union, in the old view
  MessageSent,            // data multicast sent (value = payload hash)
  MessageDelivered,       // in-view FIFO delivery (value = payload hash)
  EviewChange,            // e-view structure state (value/aux = sv/svset counts)
  SvSetMerge,             // sequencer accepted an SV-SetMerge (value = inputs)
  SubviewMerge,           // sequencer accepted a SubviewMerge (value = inputs)
  OrderDrain,             // EVS delivered unstamped app msgs at a view change
  ModeTransition,         // Figure-1 edge (seq = Transition, value/aux = to/from)
  ReconcilePhase,         // settle lifecycle (seq = ReconcilePhase value)
  StateTransferChunk,     // split-transfer chunk received (seq = index)
  AdminCommand,           // admin-plane control command (seq = AdminCommandCode,
                          // value = 1 accepted / 0 rejected)
  // Request lifecycle events: every hop a traced client request takes
  // through the svc front door and the ordered multicast it provokes.
  // All six carry the propagated 64-bit trace id in `seq` — that field is
  // the correlator trace_check --request joins on across processes.
  RequestAdmitted,        // svc server dispatched it (value = op, aux = req id)
  RequestFenced,          // e-view change fenced the pending op (value = epoch)
  RequestOrdered,         // coordinator multicast it (value = object op seq)
  RequestDelivered,       // ordered delivery at a replica (peer = sender,
                          // value = object op seq)
  RequestApplied,         // replica applied it (value = object op seq)
  RequestReplied,         // svc server is done with it: the reply was
                          // written, or dropped with its connection
                          // (value = status, aux = req id)
  // Never recorded on a bus: a trace file written while its process runs
  // on (net::NetRuntime::snapshot_trace) ends with one per hosted group,
  // so a reader knows `proc`'s events past it may be missing.
  TraceCut,
};

/// True for the six Request* lifecycle kinds (whose seq is a trace id).
constexpr bool is_request_event(EventKind kind) {
  return kind >= EventKind::RequestAdmitted && kind <= EventKind::RequestReplied;
}

/// Lifecycle rank of a request phase on one node: Admitted < Ordered <
/// Delivered < Applied < Replied. Fenced is out of band (a view change
/// can fence at any point) and, like every other kind, ranks -1.
constexpr int request_phase_rank(EventKind kind) {
  switch (kind) {
    case EventKind::RequestAdmitted: return 0;
    case EventKind::RequestOrdered: return 1;
    case EventKind::RequestDelivered: return 2;
    case EventKind::RequestApplied: return 3;
    case EventKind::RequestReplied: return 4;
    default: return -1;
  }
}

const char* to_string(EventKind kind);
/// Inverse of to_string; returns false on unknown names.
bool parse_event_kind(const std::string& name, EventKind& out);

/// Phases reported under EventKind::ReconcilePhase (seq field).
enum class ReconcilePhase : std::uint8_t {
  SettleStarted = 1,   // view needs reconstruction, offers requested
  StateAdopted = 2,    // classification complete, state good enough to serve
  FullyDone = 3,       // all state applied (split-transfer chunks included)
  Reconciled = 4,      // application took the Reconcile edge back to NORMAL
};

/// One structured event. A fixed small record (no heap fields) so the ring
/// buffer is cache-friendly and recording never allocates.
struct TraceEvent {
  SimTime time = 0;       // simulated microseconds
  ProcessId proc;         // the process the event happened at
  EventKind kind = EventKind::MessageSent;
  ViewId view;            // view context (delivery view, installed view...)
  ProcessId peer;         // sender / suspect / coordinator / chunk source
  std::uint64_t seq = 0;  // msg seq, round number, ev_seq, chunk index...
  std::uint64_t value = 0;  // payload hash, member count, new mode...
  std::uint64_t aux = 0;    // secondary numeric (sv-set count, prior mode...)
  /// Group instance the event belongs to; 0 (the default group) for
  /// single-group runs. Stamped by the host's GroupTraceBus forwarder, not
  /// by protocol code — the stack stays group-oblivious.
  GroupId group = kDefaultGroup;

  bool operator==(const TraceEvent&) const = default;
};

/// FNV-1a over a payload, carried as `value` by MessageSent /
/// MessageDelivered / FlushDelivery events. It is a content check, not
/// the message identity: a message is (group, sender, send view, seq), so
/// one sender may multicast the same bytes any number of times.
std::uint64_t payload_hash(const std::vector<std::uint8_t>& payload);

class TraceBus {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit TraceBus(std::size_t capacity = kDefaultCapacity);
  virtual ~TraceBus() = default;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Resets the buffer; only legal while empty or after clear().
  void set_capacity(std::size_t capacity);

  /// Appends one event; the oldest event is overwritten once the ring is
  /// full (dropped() counts how many were lost that way). Virtual so a
  /// forwarding bus (GroupTraceBus) can relabel events in flight.
  virtual void record(const TraceEvent& event);

  /// Events in recording order, oldest first.
  std::vector<TraceEvent> events() const;

  /// Incremental tail: events whose recording index (0-based, counted over
  /// everything ever recorded) is >= `since` and still in the ring, capped
  /// at `max_events`, paired with their index. `next_since` (if non-null)
  /// receives the index to pass on the next call — one past the last
  /// event returned, or `since` itself when nothing new arrived. Events
  /// older than the ring are simply gone; the caller observes the gap as
  /// a jump in the returned indices.
  std::vector<std::pair<std::uint64_t, TraceEvent>> events_since(
      std::uint64_t since, std::size_t max_events,
      std::uint64_t* next_since = nullptr) const;

  std::uint64_t recorded() const { return total_; }
  std::uint64_t dropped() const {
    return total_ > ring_.capacity() ? total_ - ring_.capacity() : 0;
  }
  std::size_t size() const { return ring_.size(); }

  void clear();

  /// Optional per-event tap, invoked for every event actually recorded
  /// (i.e. after the enabled() gate, with the final group label when the
  /// event arrived through a GroupTraceBus). This is the seam the oracle
  /// engine (obs::LiveChecker) hangs off; keep the callback cheap, it runs
  /// on the recording path.
  using ObserverFn = std::function<void(const TraceEvent&)>;
  void set_observer(ObserverFn fn) { observer_ = std::move(fn); }

  void write_jsonl(std::ostream& os) const;
  void write_chrome_trace(std::ostream& os) const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> ring_;  // capacity fixed up front
  std::uint64_t total_ = 0;       // events ever recorded
  ObserverFn observer_;
};

/// Per-group facade over a shared TraceBus: stamps every recorded event
/// with one group id and forwards it to the host's real bus. A multi-group
/// host hands each group instance one of these as its Env.trace, so the
/// protocol stack records exactly as before while every event lands in the
/// shared ring carrying its group label. Holds no events of its own (the
/// minimum ring of 1 slot exists only to satisfy the base class); enabled
/// state mirrors the sink at construction — flip the *sink* at runtime,
/// not the facade.
class GroupTraceBus final : public TraceBus {
 public:
  GroupTraceBus(TraceBus& sink, GroupId group)
      : TraceBus(/*capacity=*/1), sink_(sink), group_(group) {
    set_enabled(sink.enabled());
  }

  GroupId group() const { return group_; }

  void record(const TraceEvent& event) override {
    TraceEvent labelled = event;
    labelled.group = group_;
    sink_.record(labelled);
  }

 private:
  TraceBus& sink_;
  GroupId group_;
};

/// Writes `event` as one write_jsonl-format line; a non-null `index`
/// prepends an "i":<recording index> field (read_jsonl ignores it), which
/// is how the admin plane's /trace endpoint lets pollers resume.
void write_jsonl_event(std::ostream& os, const TraceEvent& event,
                       const std::uint64_t* index = nullptr);

/// Parses a trace written by write_jsonl(). Unparseable lines are skipped
/// (count reported via `skipped` when non-null): a truncated trail from a
/// crashed run should not hide the events before it.
std::vector<TraceEvent> read_jsonl(std::istream& is,
                                   std::size_t* skipped = nullptr);

}  // namespace evs::obs
