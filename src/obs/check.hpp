// Observability: the in-library run checker.
//
// Promotes the correctness oracles that used to live only in gtest
// support headers into the library itself: any recorded trace — from a
// test, a bench, an example run with EVS_TRACE_OUT, or a file replayed
// through tools/trace_check — can be validated against the paper's
// Section-2 specification plus the enriched-view structure rules, and the
// result is a structured violation list instead of a test assertion.
//
// Properties checked:
//   Agreement  (P2.1) — processes surviving from view v to the same next
//                       view delivered the same message set in v.
//   Uniqueness (P2.2) — a message is delivered in at most one view.
//   Integrity  (P2.3) — at most once per process, and only if sent.
//   Structure  (P6.3) — within a view, subview/sv-set counts change only
//                       through applied e-view changes and only shrink
//                       (structures grow solely under application control;
//                       failures shrink them across view boundaries).
//   Modes (Figure 1)  — every reported mode transition is one of the four
//                       legal edges and transitions chain per process.
//
// Message identity is the (sender, payload-hash) pair — the same
// "payloads are unique" convention the gtest oracles have always relied
// on; runs that multicast identical bytes twice from one process will
// alias them.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace evs::obs {

struct Violation {
  std::string property;  // e.g. "Uniqueness (P2.2)"
  std::string detail;

  std::string str() const { return property + ": " + detail; }
};

/// The structure a process last reported by an EviewChange event: the
/// baseline for the next one in the same view (P6.3).
struct StructureMark {
  std::uint64_t seq = 0;
  std::uint64_t subviews = 0;
  std::uint64_t svsets = 0;
};

class RunChecker {
 public:
  /// All checks; violations in property order, worst-offender lists
  /// truncated rather than exhaustive (one violation per broken fact).
  static std::vector<Violation> check(const std::vector<TraceEvent>& events);

  /// Only the Section-2 view-synchrony properties (what the old gtest
  /// oracles covered); used by the oracle wrappers and by vsync-level
  /// traces that carry no EVS or mode events.
  static std::vector<Violation> check_vs(const std::vector<TraceEvent>& events);

  static std::vector<Violation> check_uniqueness(
      const std::vector<TraceEvent>& events);
  static std::vector<Violation> check_integrity(
      const std::vector<TraceEvent>& events);
  static std::vector<Violation> check_agreement(
      const std::vector<TraceEvent>& events);
  static std::vector<Violation> check_structure(
      const std::vector<TraceEvent>& events);
  static std::vector<Violation> check_modes(
      const std::vector<TraceEvent>& events);
};

/// The online form of the oracles: evaluated incrementally, one event at
/// a time, on the live node (wired as the TraceBus observer by
/// net::NetRuntime). Because one process's trace ring only ever holds
/// that process's own events, only the *local* slices of the properties
/// run here:
///
///   Uniqueness (P2.2) — this process delivered a message in two views;
///   Integrity  (P2.3) — this process delivered a message twice;
///   Structure  (P6.3) — e-view seq regressed / structure grew in-view;
///   Modes (Figure 1)  — illegal edge or broken transition chain;
///   Request phases    — a traced request's per-(trace, process) phase
///                       timestamps ran backwards (Admitted <= Ordered <=
///                       Delivered <= Applied <= Replied).
///
/// The cross-process halves (agreement, only-if-sent) still belong to the
/// offline RunChecker over merged dumps. All tracking maps are bounded:
/// past the cap new keys are no longer tracked (counted in saturated()),
/// never evicted mid-run — a saturated checker under-reports, it never
/// false-positives.
class LiveChecker {
 public:
  /// Tracked keys per property map before saturation.
  static constexpr std::size_t kMaxTracked = 1 << 14;
  /// Most recent violations retained for /health reporting.
  static constexpr std::size_t kMaxRecent = 16;

  void observe(const TraceEvent& event);

  std::uint64_t events_checked() const { return events_checked_; }
  std::uint64_t violations() const { return violations_; }
  std::uint64_t saturated() const { return saturated_; }
  bool healthy() const { return violations_ == 0; }

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
  // --- per-property incremental state, all keyed under the group label
  // so one shared bus checks every hosted group's slice independently.
  using MsgId = std::pair<ProcessId, std::uint64_t>;  // (sender, payload hash)
  struct DeliveryState {
    ViewId first_view;
    bool duplicate_reported = false;
  };
  std::map<std::tuple<GroupId, ProcessId, MsgId>, DeliveryState> delivered_;
  std::map<std::tuple<GroupId, ProcessId, ViewId>, StructureMark> structure_;
  std::map<std::pair<GroupId, ProcessId>, std::uint64_t> mode_;
  struct RequestState {
    std::uint8_t last_phase = 0;  // rank within the Request* order
    SimTime last_time = 0;
  };
  std::map<std::tuple<GroupId, std::uint64_t, ProcessId>, RequestState>
      requests_;

  std::uint64_t events_checked_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t saturated_ = 0;
  std::map<GroupId, std::uint64_t> group_violations_;
  std::deque<Violation> recent_;
};

}  // namespace evs::obs
