#include "obs/check.hpp"

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace evs::obs {

namespace {

// (sender, payload-hash): the message identity under the unique-payload
// convention (see header).
using MsgId = std::pair<ProcessId, std::uint64_t>;

std::string proc_str(ProcessId p) {
  return std::to_string(p.site.value) + ":" + std::to_string(p.incarnation);
}

std::string view_str(ViewId v) {
  return std::to_string(v.epoch) + ":" + proc_str(v.coordinator);
}

std::string msg_str(const MsgId& id) {
  std::ostringstream os;
  os << "message (from " << proc_str(id.first) << ", hash " << std::hex
     << id.second << ")";
  return os.str();
}

bool is_delivery(EventKind kind) {
  return kind == EventKind::MessageDelivered || kind == EventKind::FlushDelivery;
}

const char* mode_name(std::uint64_t m) {
  switch (m) {
    case 0: return "NORMAL";
    case 1: return "REDUCED";
    case 2: return "SETTLING";
  }
  return "?";
}

const char* transition_name(std::uint64_t t) {
  switch (t) {
    case 0: return "Failure";
    case 1: return "Repair";
    case 2: return "Reconfigure";
    case 3: return "Reconcile";
  }
  return "?";
}

// Figure 1 mode numbering, as ModeTransition events carry it.
constexpr std::uint64_t kNormal = 0, kReduced = 1, kSettling = 2;

// P6.3 for one EviewChange `e` against the same process's previous one in
// the same view: the e-view seq strictly increases and the structure
// never grows.
void check_structure_step(const StructureMark& prev, const TraceEvent& e,
                          std::vector<Violation>& out) {
  if (e.seq <= prev.seq) {
    std::ostringstream os;
    os << "process " << proc_str(e.proc) << " in view " << view_str(e.view)
       << ": e-view seq went " << prev.seq << " -> " << e.seq
       << " (must strictly increase)";
    out.push_back({"Structure (P6.3)", os.str()});
  }
  if (e.value > prev.subviews || e.aux > prev.svsets) {
    std::ostringstream os;
    os << "process " << proc_str(e.proc) << " in view " << view_str(e.view)
       << ": structure grew within the view (subviews " << prev.subviews
       << " -> " << e.value << ", sv-sets " << prev.svsets << " -> " << e.aux
       << ")";
    out.push_back({"Structure (P6.3)", os.str()});
  }
}

// Figure 1 for one ModeTransition `e` of a process that was in `mode`:
// the transition leaves that mode (the chain is continuous) along one of
// the four legal edges.
void check_mode_step(std::uint64_t mode, const TraceEvent& e,
                     std::vector<Violation>& out) {
  const std::uint64_t via = e.seq, to = e.value, from = e.aux;
  if (from != mode) {
    std::ostringstream os;
    os << "process " << proc_str(e.proc) << " reports a transition out of "
       << mode_name(from) << " but was in " << mode_name(mode);
    out.push_back({"Modes (Figure 1)", os.str()});
  }
  const bool legal =
      (via == 0 && (from == kNormal || from == kSettling) && to == kReduced) ||
      (via == 1 && from == kReduced && to == kSettling) ||
      (via == 2 && (from == kNormal || from == kSettling) && to == kSettling) ||
      (via == 3 && from == kSettling && to == kNormal);
  if (!legal) {
    std::ostringstream os;
    os << "process " << proc_str(e.proc) << " took an illegal edge "
       << mode_name(from) << " -> " << mode_name(to) << " via "
       << transition_name(via);
    out.push_back({"Modes (Figure 1)", os.str()});
  }
}

// The state tracked under `key`, inserted as `initial` when new (second =
// true); nullptr once `map` is full and `key` is new, counted in
// `saturated`: past the cap the checker under-reports, it never evicts.
template <class Map>
std::pair<typename Map::mapped_type*, bool> track(
    Map& map, const typename Map::key_type& key,
    const typename Map::mapped_type& initial, std::uint64_t& saturated) {
  const auto it = map.find(key);
  if (it != map.end()) return {&it->second, false};
  if (map.size() >= LiveChecker::kMaxTracked) {
    ++saturated;
    return {nullptr, false};
  }
  return {&map.emplace(key, initial).first->second, true};
}

}  // namespace

// P2.2: every message is delivered in at most one view, globally.
std::vector<Violation> RunChecker::check_uniqueness(
    const std::vector<TraceEvent>& events) {
  std::vector<Violation> out;
  std::map<MsgId, std::set<ViewId>> views_of;
  for (const TraceEvent& e : events) {
    if (!is_delivery(e.kind)) continue;
    views_of[{e.peer, e.value}].insert(e.view);
  }
  for (const auto& [id, views] : views_of) {
    if (views.size() <= 1) continue;
    std::ostringstream os;
    os << msg_str(id) << " delivered in " << views.size() << " views:";
    for (const ViewId& v : views) os << " " << view_str(v);
    out.push_back({"Uniqueness (P2.2)", os.str()});
  }
  return out;
}

// P2.3: a process delivers a message at most once, and only if some
// process actually multicast it.
std::vector<Violation> RunChecker::check_integrity(
    const std::vector<TraceEvent>& events) {
  std::vector<Violation> out;
  std::map<ProcessId, std::set<std::uint64_t>> sent_by;
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::MessageSent) sent_by[e.proc].insert(e.value);
  }
  std::map<ProcessId, std::set<MsgId>> delivered_at;
  for (const TraceEvent& e : events) {
    if (!is_delivery(e.kind)) continue;
    const MsgId id{e.peer, e.value};
    if (!delivered_at[e.proc].insert(id).second) {
      out.push_back({"Integrity (P2.3)", "process " + proc_str(e.proc) +
                                             " delivered " + msg_str(id) +
                                             " more than once"});
      continue;
    }
    const auto sender = sent_by.find(e.peer);
    if (sender == sent_by.end() || sender->second.count(e.value) == 0) {
      out.push_back({"Integrity (P2.3)",
                     "process " + proc_str(e.proc) + " delivered " +
                         msg_str(id) + " which its sender never multicast"});
    }
  }
  return out;
}

// P2.1: two processes that both survive the same view change v -> v'
// delivered the same message set in v. View succession comes from each
// process's own ordered ViewInstalled events; deliveries tagged with a
// view the process never installed are agreement-relevant only through
// uniqueness/integrity, exactly like the original gtest oracle.
std::vector<Violation> RunChecker::check_agreement(
    const std::vector<TraceEvent>& events) {
  std::vector<Violation> out;
  std::map<ProcessId, std::vector<ViewId>> views_of;
  std::map<ProcessId, std::map<ViewId, std::set<MsgId>>> delivered_in;
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::ViewInstalled) {
      views_of[e.proc].push_back(e.view);
    } else if (is_delivery(e.kind)) {
      delivered_in[e.proc][e.view].insert({e.peer, e.value});
    }
  }

  // transition (v, v') -> the processes that took it.
  std::map<std::pair<ViewId, ViewId>, std::vector<ProcessId>> took;
  for (const auto& [proc, views] : views_of) {
    for (std::size_t i = 0; i + 1 < views.size(); ++i) {
      took[{views[i], views[i + 1]}].push_back(proc);
    }
  }

  for (const auto& [edge, procs] : took) {
    if (procs.size() <= 1) continue;
    const ViewId view = edge.first;
    const std::set<MsgId>& reference = delivered_in[procs.front()][view];
    for (std::size_t i = 1; i < procs.size(); ++i) {
      const std::set<MsgId>& other = delivered_in[procs[i]][view];
      if (other == reference) continue;
      std::ostringstream os;
      os << "processes " << proc_str(procs.front()) << " and "
         << proc_str(procs[i]) << " both moved " << view_str(view) << " -> "
         << view_str(edge.second) << " but delivered " << reference.size()
         << " vs " << other.size() << " messages in " << view_str(view);
      out.push_back({"Agreement (P2.1)", os.str()});
    }
  }
  return out;
}

// Enriched-view structure: within one installed view a process's structure
// only coarsens — e-view sequence numbers increase with every applied
// change, and subview / sv-set counts never grow (growth happens only
// across view boundaries, when the merged structures of a new membership
// are adopted).
std::vector<Violation> RunChecker::check_structure(
    const std::vector<TraceEvent>& events) {
  std::vector<Violation> out;
  std::map<std::pair<ProcessId, ViewId>, StructureMark> last;
  for (const TraceEvent& e : events) {
    if (e.kind != EventKind::EviewChange) continue;
    const StructureMark mark{e.seq, e.value, e.aux};
    const auto [prev, fresh] = last.try_emplace({e.proc, e.view}, mark);
    if (fresh) continue;
    check_structure_step(prev->second, e, out);
    prev->second = mark;
  }
  return out;
}

// Figure 1: only the four edges exist, and each process's transitions form
// a chain starting from SETTLING (every process joins settling).
std::vector<Violation> RunChecker::check_modes(
    const std::vector<TraceEvent>& events) {
  std::vector<Violation> out;
  std::map<ProcessId, std::uint64_t> mode_of;
  for (const TraceEvent& e : events) {
    if (e.kind != EventKind::ModeTransition) continue;
    std::uint64_t& mode = mode_of.try_emplace(e.proc, kSettling).first->second;
    check_mode_step(mode, e, out);
    mode = e.value;
  }
  return out;
}

std::vector<Violation> RunChecker::check_vs(
    const std::vector<TraceEvent>& events) {
  std::vector<Violation> out = check_agreement(events);
  std::vector<Violation> more = check_uniqueness(events);
  out.insert(out.end(), std::make_move_iterator(more.begin()),
             std::make_move_iterator(more.end()));
  more = check_integrity(events);
  out.insert(out.end(), std::make_move_iterator(more.begin()),
             std::make_move_iterator(more.end()));
  return out;
}

std::vector<Violation> RunChecker::check(const std::vector<TraceEvent>& events) {
  std::vector<Violation> out = check_vs(events);
  std::vector<Violation> more = check_structure(events);
  out.insert(out.end(), std::make_move_iterator(more.begin()),
             std::make_move_iterator(more.end()));
  more = check_modes(events);
  out.insert(out.end(), std::make_move_iterator(more.begin()),
             std::make_move_iterator(more.end()));
  return out;
}

// ----------------------------------------------------------------------
// LiveChecker: the incremental, local-only slices of the same oracles.

void LiveChecker::observe(const TraceEvent& e) {
  ++events_checked_;
  std::vector<Violation> found;
  switch (e.kind) {
    case EventKind::MessageDelivered:
    case EventKind::FlushDelivery: {
      const MsgId id{e.peer, e.value};
      const auto [state, fresh] =
          track(delivered_, {e.group, e.proc, id}, {e.view, false}, saturated_);
      if (state == nullptr || fresh || state->duplicate_reported) break;
      state->duplicate_reported = true;
      if (state->first_view == e.view) {
        found.push_back({"Integrity (P2.3)",
                         "process " + proc_str(e.proc) + " delivered " +
                             msg_str(id) + " more than once in view " +
                             view_str(e.view)});
      } else {
        found.push_back({"Uniqueness (P2.2)",
                         "process " + proc_str(e.proc) + " delivered " +
                             msg_str(id) + " in views " +
                             view_str(state->first_view) + " and " +
                             view_str(e.view)});
      }
      break;
    }
    case EventKind::EviewChange: {
      const StructureMark mark{e.seq, e.value, e.aux};
      const auto [prev, fresh] =
          track(structure_, {e.group, e.proc, e.view}, mark, saturated_);
      if (prev == nullptr || fresh) break;
      check_structure_step(*prev, e, found);
      *prev = mark;
      break;
    }
    case EventKind::ModeTransition: {
      const auto [mode, fresh] =
          track(mode_, {e.group, e.proc}, kSettling, saturated_);
      if (mode == nullptr) break;
      check_mode_step(*mode, e, found);
      *mode = e.value;
      break;
    }
    case EventKind::RequestAdmitted:
    case EventKind::RequestOrdered:
    case EventKind::RequestDelivered:
    case EventKind::RequestApplied:
    case EventKind::RequestReplied: {
      // Per-(trace, process) phase timestamps must never run backwards on
      // that process's own clock; a rank regression (Admitted after
      // Replied) is a *new cycle* of a reused trace id, legal as long as
      // time still advances. RequestFenced is out of band and unchecked.
      const RequestState now{
          static_cast<std::uint8_t>(static_cast<int>(e.kind) -
                                    static_cast<int>(EventKind::RequestAdmitted)),
          e.time};
      const auto [state, fresh] =
          track(requests_, {e.group, e.seq, e.proc}, now, saturated_);
      if (state == nullptr || fresh) break;
      if (e.time < state->last_time) {
        std::ostringstream os;
        os << "request " << e.seq << " at process " << proc_str(e.proc)
           << ": phase " << to_string(e.kind) << " at t=" << e.time
           << " precedes the prior phase at t=" << state->last_time;
        found.push_back({"Request phases", os.str()});
      }
      *state = now;
      break;
    }
    default:
      break;
  }
  for (Violation& v : found) {
    ++violations_;
    ++group_violations_[e.group];
    recent_.push_back(std::move(v));
    if (recent_.size() > kMaxRecent) recent_.pop_front();
  }
}

std::string LiveChecker::health_json() const {
  std::ostringstream os;
  os << "{\"healthy\":" << (healthy() ? "true" : "false")
     << ",\"events_checked\":" << events_checked_
     << ",\"violations\":" << violations_ << ",\"saturated\":" << saturated_
     << ",\"groups\":[";
  bool first = true;
  for (const auto& [group, count] : group_violations_) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << group << ",\"violations\":" << count << "}";
  }
  os << "],\"recent\":[";
  first = true;
  for (const Violation& v : recent_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << v.str() << "\"";
  }
  os << "]}";
  return os.str();
}

}  // namespace evs::obs
