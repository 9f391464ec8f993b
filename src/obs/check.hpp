// Observability: the oracle engine.
//
// One incremental checker for the paper's contract, fed one trace event
// at a time: by a live node's trace bus (net::NetRuntime), by a sim
// World's bus in the tests, or by a recorded trace replayed through
// tools/trace_check. The result is a structured violation list instead of
// a test assertion.
//
// Properties checked:
//   Agreement  (P2.1) — processes surviving from view v to the same next
//                       view delivered the same messages in v.
//   Uniqueness (P2.2) — a message is delivered in one view only: a process
//                       delivers a message of view v only while v is the
//                       view it last installed.
//   Integrity  (P2.3) — at most once per process, and only if sent.
//   Structure  (P6.3) — within a view, subview/sv-set counts change only
//                       through applied e-view changes and only shrink
//                       (structures grow solely under application control;
//                       failures shrink them across view boundaries).
//   Modes (Figure 1)  — every reported mode transition is one of the four
//                       legal edges and transitions chain per process.
//   Request phases    — a traced request's per-(trace, process) phase
//                       timestamps never run backwards on that process's
//                       clock (a reused trace id may start a new cycle).
//
// A message is (group, sender, send view, seq), as vsync::Endpoint stamps
// it on MessageSent, MessageDelivered and FlushDelivery (seq restarts at 1
// in every view). The payload hash is a content check: it is folded into
// the agreement digest, so one sender may multicast the same bytes any
// number of times.
//
// State is bounded by the views in progress, not by the messages. Every
// map is keyed by group, so one engine checks every hosted group:
//   * per process: the view it last installed, the seqs it delivered
//     there (a DeliveredSet: O(senders) for in-order streams), its last
//     structure mark there and its mode. At the process's next
//     ViewInstalled its delivered set becomes its digest on the edge
//     (v -> v') and its per-view state is dropped.
//   * per view: the seqs stamped with it by their senders, the union of
//     every process's deliveries, and the digests on the edges into it.
//     Judged and dropped once every process the engine will see in it has
//     left it: as many as its ViewInstalled member count says, or every
//     traced process of the group (a live node traces only itself).
//   * per request and process: the last phase time, dropped when the
//     cycle ends there (Replied where admitted, Applied elsewhere).
// finish() gives the verdicts deferred to the end of the input:
// only-if-sent for the views some traced member never left (it crashed).
// It judges only senders that appear as traced processes, so a live node
// never judges peers it cannot see. A sender's trace vouches for all its
// sends unless it ends in a TraceCut marker (the last periodic dump of a
// killed node): then its sends in its last view past the last one
// recorded, and its sends in later views, are unknown rather than missing.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/delivered_set.hpp"
#include "obs/trace.hpp"

namespace evs::obs {

struct Violation {
  std::string property;  // e.g. "Uniqueness (P2.2)"
  std::string detail;

  std::string str() const { return property + ": " + detail; }
};

class LiveChecker {
 public:
  /// Most recent violations retained for /health reporting.
  static constexpr std::size_t kMaxRecent = 16;

  /// `log`, when given, receives every violation in report order.
  explicit LiveChecker(std::vector<Violation>* log = nullptr) : log_(log) {}

  void observe(const TraceEvent& event);

  /// Declares a process whose events this engine will see. observe()
  /// declares each process at its first event; RunChecker declares a
  /// recorded run's processes up front, so that a view is not judged and
  /// dropped before every traced process's events in it were replayed.
  void declare(GroupId group, ProcessId proc) { process(group, proc); }

  /// The verdicts that need the whole input (see header); the views they
  /// judge are dropped, so no event may follow.
  void finish();

  std::uint64_t events_checked() const { return events_checked_; }
  std::uint64_t violations() const { return violations_; }
  bool healthy() const { return violations_ == 0; }
  /// Entries held across every map, delivered-set entries included.
  std::size_t tracked() const;

  /// Violations per group label (only groups that violated appear).
  const std::map<GroupId, std::uint64_t>& violations_by_group() const {
    return group_violations_;
  }
  /// The last kMaxRecent violations, oldest first.
  const std::deque<Violation>& recent() const { return recent_; }

  /// One JSON object for the /health endpoint: healthy flag, counters,
  /// per-group violation counts and the recent violation details.
  std::string health_json() const;

 private:
  /// What one process delivered in one view: the seqs per sender plus an
  /// order-independent hash over (sender, seq, payload hash).
  struct Digest {
    DeliveredSet seqs;
    std::uint64_t hash = 0;
    std::uint64_t count = 0;

    bool operator==(const Digest&) const = default;
  };
  /// The structure a process last reported by an EviewChange event: the
  /// baseline for the next one in the same view (P6.3).
  struct StructureMark {
    ViewId view;
    std::uint64_t seq = 0;
    std::uint64_t subviews = 0;
    std::uint64_t svsets = 0;
  };
  struct Process {
    std::optional<ViewId> view;  // last installed, once seen
    ViewId delivered_in;         // `view` once known
    Digest delivered;
    std::optional<StructureMark> structure;
    std::uint64_t mode = 2;  // Figure 1: every process joins SETTLING
    bool cut = false;        // its trace ended in a TraceCut marker
  };
  struct Edge {
    ProcessId reference;  // the first survivor to report
    Digest digest;
  };
  struct View {
    std::uint64_t members = 0;  // ViewInstalled member count; 0 = unseen
    std::uint64_t left = 0;     // processes that installed a later view
    DeliveredSet sent;
    DeliveredSet delivered;     // union over every process
    std::map<ViewId, Edge> edges_in;  // keyed by the prior view
  };
  struct Request {
    SimTime last_time = 0;
    bool admitted_here = false;
  };

  Process& process(GroupId group, ProcessId proc);
  void install(const TraceEvent& e, Process& p);
  void deliver(const TraceEvent& e, Process& p);
  void request_phase(const TraceEvent& e);
  /// P2.3 only-if-sent over one view's deliveries, for traced senders.
  void judge_sends(GroupId group, const ViewId& view, const View& state);
  void report(GroupId group, std::string property, std::string detail);

  std::map<std::pair<GroupId, ProcessId>, Process> processes_;
  std::map<GroupId, std::uint64_t> traced_;  // processes_ per group
  std::map<std::pair<GroupId, ViewId>, View> views_;
  std::map<std::tuple<GroupId, std::uint64_t, ProcessId>, Request> requests_;

  std::vector<Violation>* log_;
  std::uint64_t events_checked_ = 0;
  std::uint64_t violations_ = 0;
  std::map<GroupId, std::uint64_t> group_violations_;
  std::deque<Violation> recent_;
};

/// A recorded run's verdict: replays `events` through one LiveChecker and
/// finishes it.
struct RunChecker {
  static std::vector<Violation> check(const std::vector<TraceEvent>& events);
};

}  // namespace evs::obs
