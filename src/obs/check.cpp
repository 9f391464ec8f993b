#include "obs/check.hpp"

#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace evs::obs {

namespace {

std::string proc_str(ProcessId p) {
  return std::to_string(p.site.value) + ":" + std::to_string(p.incarnation);
}

std::string view_str(ViewId v) {
  return std::to_string(v.epoch) + ":" + proc_str(v.coordinator);
}

std::string msg_str(ProcessId sender, ViewId view, std::uint64_t seq) {
  return "message (from " + proc_str(sender) + ", view " + view_str(view) +
         ", seq " + std::to_string(seq) + ")";
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

constexpr int kApplied = request_phase_rank(EventKind::RequestApplied);
constexpr int kReplied = request_phase_rank(EventKind::RequestReplied);

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

LiveChecker::Process& LiveChecker::process(GroupId group, ProcessId proc) {
  const auto [it, fresh] = processes_.try_emplace({group, proc});
  if (fresh) ++traced_[group];
  return it->second;
}

void LiveChecker::observe(const TraceEvent& e) {
  ++events_checked_;
  // Every process that appears in the input is a traced process.
  Process& p = process(e.group, e.proc);
  switch (e.kind) {
    case EventKind::ViewInstalled:
      install(e, p);
      break;
    case EventKind::MessageSent:
      views_[{e.group, e.view}].sent.insert(e.proc, e.seq);
      break;
    case EventKind::MessageDelivered:
    case EventKind::FlushDelivery:
      deliver(e, p);
      break;
    case EventKind::EviewChange: {
      // P6.3: within one view the e-view seq strictly increases and the
      // structure never grows.
      const StructureMark mark{e.view, e.seq, e.value, e.aux};
      const std::optional<StructureMark> prev =
          std::exchange(p.structure, mark);
      if (!prev || prev->view != e.view) break;
      if (e.seq <= prev->seq) {
        std::ostringstream os;
        os << "process " << proc_str(e.proc) << " in view " << view_str(e.view)
           << ": e-view seq went " << prev->seq << " -> " << e.seq
           << " (must strictly increase)";
        report(e.group, "Structure (P6.3)", os.str());
      }
      if (e.value > prev->subviews || e.aux > prev->svsets) {
        std::ostringstream os;
        os << "process " << proc_str(e.proc) << " in view " << view_str(e.view)
           << ": structure grew within the view (subviews " << prev->subviews
           << " -> " << e.value << ", sv-sets " << prev->svsets << " -> "
           << e.aux << ")";
        report(e.group, "Structure (P6.3)", os.str());
      }
      break;
    }
    case EventKind::ModeTransition: {
      // Figure 1: the transition leaves the mode the process is in (the
      // chain is continuous) along one of the four legal edges.
      const std::uint64_t via = e.seq, to = e.value, from = e.aux;
      if (from != p.mode) {
        report(e.group, "Modes (Figure 1)",
               "process " + proc_str(e.proc) + " reports a transition out of " +
                   mode_name(from) + " but was in " + mode_name(p.mode));
      }
      const bool legal =
          (via == 0 && (from == kNormal || from == kSettling) && to == kReduced) ||
          (via == 1 && from == kReduced && to == kSettling) ||
          (via == 2 && (from == kNormal || from == kSettling) && to == kSettling) ||
          (via == 3 && from == kSettling && to == kNormal);
      if (!legal) {
        report(e.group, "Modes (Figure 1)",
               "process " + proc_str(e.proc) + " took an illegal edge " +
                   mode_name(from) + " -> " + mode_name(to) + " via " +
                   transition_name(via));
      }
      p.mode = to;
      break;
    }
    case EventKind::TraceCut:
      p.cut = true;
      break;
    default:
      if (request_phase_rank(e.kind) >= 0) request_phase(e);
      break;
  }
}

void LiveChecker::install(const TraceEvent& e, Process& p) {
  if (p.view) {
    const ViewId left = *p.view;
    // P2.1: the delivered set of the view just left is this process's
    // digest on the edge (left -> e.view); every survivor's must match.
    Digest digest = std::move(p.delivered);
    std::map<ViewId, Edge>& edges = views_[{e.group, e.view}].edges_in;
    const auto edge = edges.find(left);
    if (edge == edges.end()) {
      edges.emplace(left, Edge{e.proc, std::move(digest)});
    } else if (!(edge->second.digest == digest)) {
      std::ostringstream os;
      os << "processes " << proc_str(edge->second.reference) << " and "
         << proc_str(e.proc) << " both moved " << view_str(left) << " -> "
         << view_str(e.view) << " but delivered "
         << edge->second.digest.count << " vs " << digest.count
         << " messages in " << view_str(left);
      if (edge->second.digest.count == digest.count)
        os << " (different messages)";
      report(e.group, "Agreement (P2.1)", os.str());
    }
    // Once every member left a view, or every traced process did, this
    // engine sees nothing more delivered in it.
    const auto it = views_.find({e.group, left});
    if (it != views_.end() && (++it->second.left == it->second.members ||
                               it->second.left == traced_[e.group])) {
      judge_sends(e.group, left, it->second);
      views_.erase(it);
    }
  }
  p.view = e.view;
  p.delivered_in = e.view;
  p.delivered = {};
  p.structure.reset();
  views_[{e.group, e.view}].members = e.value;
}

void LiveChecker::deliver(const TraceEvent& e, Process& p) {
  if (p.view && *p.view != e.view) {
    report(e.group, "Uniqueness (P2.2)",
           "process " + proc_str(e.proc) + " delivered " +
               msg_str(e.peer, e.view, e.seq) + " while in view " +
               view_str(*p.view));
    return;
  }
  if (p.delivered_in != e.view) p.delivered = {};  // a trace with no install
  p.delivered_in = e.view;
  Digest& d = p.delivered;
  if (!d.seqs.insert(e.peer, e.seq)) {
    report(e.group, "Integrity (P2.3)",
           "process " + proc_str(e.proc) + " delivered " +
               msg_str(e.peer, e.view, e.seq) + " more than once");
    return;
  }
  d.hash += mix(mix(std::hash<ProcessId>{}(e.peer) ^ mix(e.seq)) ^ e.value);
  ++d.count;
  views_[{e.group, e.view}].delivered.insert(e.peer, e.seq);
}

void LiveChecker::judge_sends(GroupId group, const ViewId& view,
                              const View& state) {
  for (const ProcessId sender : state.delivered.origins()) {
    const auto traced = processes_.find({group, sender});
    if (traced == processes_.end()) continue;
    // A cut trace (one ending in a TraceCut marker: a killed process lost
    // its unflushed tail) ends in the sender's last view: its sends there
    // past the last one recorded, and in any later view, are unknown
    // rather than missing.
    const Process& s = traced->second;
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
    if (s.cut) {
      if (!s.view || *s.view < view) continue;
      if (*s.view == view) limit = state.sent.last(sender);
    }
    const auto seq = state.delivered.first_not_in(sender, state.sent, limit);
    if (seq) {
      report(group, "Integrity (P2.3)",
             msg_str(sender, view, *seq) +
                 " was delivered, which its sender never multicast");
    }
  }
}

void LiveChecker::request_phase(const TraceEvent& e) {
  // Per-(trace, process) phase timestamps must never run backwards on that
  // process's own clock. RequestFenced is out of band and unchecked.
  const int rank = request_phase_rank(e.kind);
  const auto [it, fresh] = requests_.try_emplace({e.group, e.seq, e.proc},
                                                 Request{e.time, rank == 0});
  Request& r = it->second;
  if (!fresh) {
    if (e.time < r.last_time) {
      std::ostringstream os;
      os << "request " << e.seq << " at process " << proc_str(e.proc)
         << ": phase " << to_string(e.kind) << " at t=" << e.time
         << " precedes the prior phase at t=" << r.last_time;
      report(e.group, "Request phases", os.str());
    }
    r.last_time = e.time;
    r.admitted_here = r.admitted_here || rank == 0;
  }
  // The cycle ends on this process: at the reply where the request was
  // admitted, at the apply elsewhere. A reused trace id starts afresh.
  if (rank == kReplied || (rank == kApplied && !r.admitted_here))
    requests_.erase(it);
}

void LiveChecker::finish() {
  for (const auto& [key, state] : views_)
    judge_sends(key.first, key.second, state);
  views_.clear();
}

void LiveChecker::report(GroupId group, std::string property,
                         std::string detail) {
  ++violations_;
  ++group_violations_[group];
  Violation v{std::move(property), std::move(detail)};
  if (log_ != nullptr) log_->push_back(v);
  recent_.push_back(std::move(v));
  if (recent_.size() > kMaxRecent) recent_.pop_front();
}

std::size_t LiveChecker::tracked() const {
  std::size_t n = requests_.size();
  for (const auto& [key, p] : processes_)
    n += 1 + p.structure.has_value() + p.delivered.seqs.held();
  for (const auto& [key, v] : views_) {
    n += 1 + v.sent.held() + v.delivered.held();
    for (const auto& [from, edge] : v.edges_in)
      n += 1 + edge.digest.seqs.held();
  }
  return n;
}

std::string LiveChecker::health_json() const {
  std::ostringstream os;
  os << "{\"healthy\":" << (healthy() ? "true" : "false")
     << ",\"events_checked\":" << events_checked_
     << ",\"violations\":" << violations_ << ",\"tracked\":" << tracked()
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

std::vector<Violation> RunChecker::check(
    const std::vector<TraceEvent>& events) {
  std::vector<Violation> out;
  LiveChecker checker(&out);
  for (const TraceEvent& e : events) checker.declare(e.group, e.proc);
  for (const TraceEvent& e : events) checker.observe(e);
  checker.finish();
  return out;
}

}  // namespace evs::obs
