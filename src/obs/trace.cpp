#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace evs::obs {

namespace {

constexpr std::array<const char*, 24> kKindNames = {
    "?",
    "HeartbeatSuspect",
    "HeartbeatUnsuspect",
    "ViewProposed",
    "ViewAcked",
    "ViewInstalled",
    "FlushDelivery",
    "MessageSent",
    "MessageDelivered",
    "EviewChange",
    "SvSetMerge",
    "SubviewMerge",
    "OrderDrain",
    "ModeTransition",
    "ReconcilePhase",
    "StateTransferChunk",
    "AdminCommand",
    "RequestAdmitted",
    "RequestFenced",
    "RequestOrdered",
    "RequestDelivered",
    "RequestApplied",
    "RequestReplied",
    "TraceCut",
};

// Compact textual ids that survive the JSONL round trip.
std::string proc_str(ProcessId p) {
  return std::to_string(p.site.value) + ":" + std::to_string(p.incarnation);
}

std::string view_str(ViewId v) {
  return std::to_string(v.epoch) + ":" + proc_str(v.coordinator);
}

bool parse_u32(std::string_view s, std::uint32_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > UINT32_MAX) return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  out = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

bool parse_proc(std::string_view s, ProcessId& out) {
  const std::size_t colon = s.find(':');
  if (colon == std::string_view::npos) return false;
  return parse_u32(s.substr(0, colon), out.site.value) &&
         parse_u32(s.substr(colon + 1), out.incarnation);
}

bool parse_view(std::string_view s, ViewId& out) {
  const std::size_t colon = s.find(':');
  if (colon == std::string_view::npos) return false;
  return parse_u64(s.substr(0, colon), out.epoch) &&
         parse_proc(s.substr(colon + 1), out.coordinator);
}

/// Value of `"key":` in a single-line JSON object written by write_jsonl
/// (string values without the quotes). Empty view on absence.
std::string_view field(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + needle.size();
  bool quoted = false;
  if (begin < line.size() && line[begin] == '"') {
    quoted = true;
    ++begin;
  }
  std::size_t end = begin;
  while (end < line.size()) {
    const char c = line[end];
    if (quoted ? c == '"' : (c == ',' || c == '}')) break;
    ++end;
  }
  return line.substr(begin, end - begin);
}

}  // namespace

const char* to_string(EventKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  return index < kKindNames.size() ? kKindNames[index] : "?";
}

bool parse_event_kind(const std::string& name, EventKind& out) {
  for (std::size_t i = 1; i < kKindNames.size(); ++i) {
    if (name == kKindNames[i]) {
      out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

std::uint64_t payload_hash(const std::vector<std::uint8_t>& payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : payload) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TraceBus::TraceBus(std::size_t capacity) {
  EVS_CHECK(capacity > 0);
  ring_.reserve(capacity);
}

void TraceBus::set_capacity(std::size_t capacity) {
  EVS_CHECK(capacity > 0);
  EVS_CHECK_MSG(ring_.empty(), "set_capacity on a non-empty TraceBus");
  ring_.shrink_to_fit();
  ring_.reserve(capacity);
}

void TraceBus::record(const TraceEvent& event) {
  if (!enabled_) return;
  if (ring_.size() < ring_.capacity()) {
    ring_.push_back(event);
  } else {
    ring_[total_ % ring_.capacity()] = event;
  }
  ++total_;
  if (observer_) observer_(event);
}

std::vector<TraceEvent> TraceBus::events() const {
  if (total_ <= ring_.capacity()) return ring_;
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  const std::size_t head = total_ % ring_.capacity();
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head));
  return out;
}

std::vector<std::pair<std::uint64_t, TraceEvent>> TraceBus::events_since(
    std::uint64_t since, std::size_t max_events,
    std::uint64_t* next_since) const {
  // Index of the oldest event still in the ring.
  const std::uint64_t oldest = total_ > ring_.size() ? total_ - ring_.size() : 0;
  std::uint64_t index = std::max(since, oldest);
  std::vector<std::pair<std::uint64_t, TraceEvent>> out;
  while (index < total_ && out.size() < max_events) {
    const std::size_t slot =
        total_ <= ring_.capacity()
            ? static_cast<std::size_t>(index)
            : static_cast<std::size_t>(index % ring_.capacity());
    out.emplace_back(index, ring_[slot]);
    ++index;
  }
  if (next_since != nullptr) *next_since = out.empty() ? since : index;
  return out;
}

void TraceBus::clear() {
  ring_.clear();
  total_ = 0;
}

void write_jsonl_event(std::ostream& os, const TraceEvent& e,
                       const std::uint64_t* index) {
  os << "{";
  if (index != nullptr) os << "\"i\":" << *index << ",";
  os << "\"t\":" << e.time << ",\"proc\":\"" << proc_str(e.proc)
     << "\",\"kind\":\"" << to_string(e.kind) << "\",\"view\":\""
     << view_str(e.view) << "\",\"peer\":\"" << proc_str(e.peer)
     << "\",\"seq\":" << e.seq << ",\"value\":" << e.value
     << ",\"aux\":" << e.aux;
  // Group label only when off the default group: single-group traces keep
  // their exact pre-multigroup shape (and old readers keep parsing them).
  if (e.group != kDefaultGroup) os << ",\"g\":" << e.group;
  os << "}\n";
}

void TraceBus::write_jsonl(std::ostream& os) const {
  for (const TraceEvent& e : events()) write_jsonl_event(os, e);
}

void TraceBus::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEvent> all = events();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Metadata: name each site's process track once.
  std::vector<std::uint32_t> seen_sites;
  for (const TraceEvent& e : all) {
    bool known = false;
    for (const std::uint32_t s : seen_sites) known = known || s == e.proc.site.value;
    if (known) continue;
    seen_sites.push_back(e.proc.site.value);
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << e.proc.site.value
       << ",\"args\":{\"name\":\"site " << e.proc.site.value << "\"}}";
  }
  for (const TraceEvent& e : all) {
    if (!first) os << ",";
    first = false;
    // Instant events on the incarnation's thread track; args carry the
    // structured fields so Perfetto's detail pane shows them verbatim.
    os << "{\"name\":\"" << to_string(e.kind) << "\",\"cat\":\"evs\""
       << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.time
       << ",\"pid\":" << e.proc.site.value << ",\"tid\":" << e.proc.incarnation
       << ",\"args\":{\"view\":\"" << view_str(e.view) << "\",\"peer\":\""
       << proc_str(e.peer) << "\",\"seq\":" << e.seq << ",\"value\":" << e.value
       << ",\"aux\":" << e.aux << ",\"group\":" << e.group << "}}";
  }
  os << "]}\n";
}

std::vector<TraceEvent> read_jsonl(std::istream& is, std::size_t* skipped) {
  std::vector<TraceEvent> out;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    TraceEvent e;
    const std::string kind_name{field(line, "kind")};
    const bool ok = parse_u64(field(line, "t"), e.time) &&
                    parse_proc(field(line, "proc"), e.proc) &&
                    parse_event_kind(kind_name, e.kind) &&
                    parse_view(field(line, "view"), e.view) &&
                    parse_proc(field(line, "peer"), e.peer) &&
                    parse_u64(field(line, "seq"), e.seq) &&
                    parse_u64(field(line, "value"), e.value) &&
                    parse_u64(field(line, "aux"), e.aux);
    if (!ok) {
      ++bad;
      continue;
    }
    // Optional group label; absent = the default group.
    const std::string_view g = field(line, "g");
    if (!g.empty() && !parse_u32(g, e.group)) {
      ++bad;
      continue;
    }
    out.push_back(e);
  }
  if (skipped != nullptr) *skipped = bad;
  return out;
}

}  // namespace evs::obs
