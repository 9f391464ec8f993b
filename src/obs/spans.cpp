#include "obs/spans.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <ostream>
#include <sstream>
#include <tuple>

namespace evs::obs {

namespace {

// Same compact textual ids the JSONL trace format uses.
std::string proc_str(ProcessId p) {
  return std::to_string(p.site.value) + ":" + std::to_string(p.incarnation);
}

std::string view_str(ViewId v) {
  return std::to_string(v.epoch) + ":" + proc_str(v.coordinator);
}

void put_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) v = 0.0;
  os << v;
}

using MsgKey = std::tuple<ProcessId, std::uint64_t, ViewId>;  // sender,seq,view
using PairKey = std::pair<ProcessId, ProcessId>;

}  // namespace

double ClockModel::correct(SimTime t, ProcessId p) const {
  const auto it = offset_us.find(p);
  const double off = it == offset_us.end() ? 0.0 : it->second;
  return static_cast<double>(t) + off;
}

std::string PhaseBreakdown::str() const {
  std::ostringstream os;
  os << "view " << view_str(new_view) << " round " << round << " coord "
     << proc_str(coordinator) << ": propose->last-ack ";
  const auto dur = [&os](double d) {
    if (d < 0) {
      os << "n/a";
    } else {
      os << d << "us";
    }
  };
  dur(propose_to_last_ack_us);
  os << " (" << acks << " acks), last-ack->install ";
  dur(last_ack_to_first_install_us);
  os << ", install spread ";
  dur(install_spread_us);
  os << ", install->e-view ";
  dur(install_to_eview_us);
  os << " (" << installs << " installs)";
  return os.str();
}

SpanAnalysis correlate_spans(const std::vector<TraceEvent>& events) {
  SpanAnalysis out;

  // ---- pass 1: index sends, collect deliveries and the process set.
  std::map<MsgKey, std::size_t> send_index;  // -> out.spans slot
  std::vector<ProcessId> procs;
  const auto note_proc = [&procs](ProcessId p) {
    if (std::find(procs.begin(), procs.end(), p) == procs.end())
      procs.push_back(p);
  };
  for (const TraceEvent& e : events) {
    note_proc(e.proc);
    if (e.kind != EventKind::MessageSent) continue;
    const MsgKey key{e.proc, e.seq, e.view};
    if (send_index.contains(key)) continue;  // duplicate line (merged dumps)
    send_index.emplace(key, out.spans.size());
    MessageSpan span;
    span.sender = e.proc;
    span.seq = e.seq;
    span.view = e.view;
    span.payload_hash = e.value;
    span.send_raw = e.time;
    out.spans.push_back(std::move(span));
  }

  // ---- pass 2: match deliveries, accumulating per-pair minimum one-way
  // deltas for the clock model (cross-process matches only).
  std::map<PairKey, SimTime> pair_send;  // raw send time per matched pair msg
  std::map<PairKey, double> min_delta;   // min(recv_raw - send_raw)
  for (const TraceEvent& e : events) {
    if (e.kind != EventKind::MessageDelivered &&
        e.kind != EventKind::FlushDelivery)
      continue;
    const auto it = send_index.find(MsgKey{e.peer, e.seq, e.view});
    if (it == send_index.end()) {
      ++out.unmatched_deliveries;
      continue;
    }
    MessageSpan& span = out.spans[it->second];
    const bool duplicate =
        std::any_of(span.deliveries.begin(), span.deliveries.end(),
                    [&e](const DeliverySpan& d) { return d.recipient == e.proc; });
    if (duplicate) continue;  // same dump merged twice
    DeliverySpan d;
    d.recipient = e.proc;
    d.recv_raw = e.time;
    d.flush = e.kind == EventKind::FlushDelivery;
    span.deliveries.push_back(d);
    ++out.matched_deliveries;
    if (e.proc != span.sender) {
      const PairKey pair{span.sender, e.proc};
      const double delta =
          static_cast<double>(e.time) - static_cast<double>(span.send_raw);
      const auto md = min_delta.find(pair);
      if (md == min_delta.end() || delta < md->second)
        min_delta[pair] = delta;
    }
  }
  for (const MessageSpan& span : out.spans)
    if (span.deliveries.empty()) ++out.unmatched_sends;

  // ---- clock model: BFS from the smallest traced process over the pair
  // graph, preferring two-sided (symmetric-path) edges.
  ClockModel& clocks = out.clocks;
  if (!procs.empty()) {
    std::sort(procs.begin(), procs.end());
    clocks.reference = procs.front();
    clocks.offset_us[clocks.reference] = 0.0;
    std::deque<ProcessId> frontier{clocks.reference};
    while (!frontier.empty()) {
      const ProcessId a = frontier.front();
      frontier.pop_front();
      const double off_a = clocks.offset_us.at(a);
      for (const ProcessId& b : procs) {
        if (clocks.offset_us.contains(b)) continue;
        const auto ab = min_delta.find(PairKey{a, b});
        const auto ba = min_delta.find(PairKey{b, a});
        if (ab == min_delta.end() && ba == min_delta.end()) continue;
        // rel = o_a - o_b; with both directions the symmetric-path
        // estimate, else the one-sided upper bound (zero-delay assumption).
        double rel;
        if (ab != min_delta.end() && ba != min_delta.end()) {
          rel = (ab->second - ba->second) / 2.0;
        } else if (ab != min_delta.end()) {
          rel = ab->second;
          clocks.one_sided.push_back(b);
        } else {
          rel = -ba->second;
          clocks.one_sided.push_back(b);
        }
        clocks.offset_us[b] = off_a - rel;
        frontier.push_back(b);
      }
    }
  }

  // ---- corrected times, latencies, per-channel histograms.
  // Two sweeps: the first computes corrected latencies and each directed
  // channel's minimum; a negative minimum means the symmetric-path split
  // under-corrected this (faster) direction of an asymmetric path, and the
  // second sweep lifts the whole direction by that floor so no channel
  // reports negative latency while relative shape is preserved.
  std::map<PairKey, double> channel_min;
  for (MessageSpan& span : out.spans) {
    span.send_corrected = clocks.correct(span.send_raw, span.sender);
    for (DeliverySpan& d : span.deliveries) {
      d.recv_corrected = clocks.correct(d.recv_raw, d.recipient);
      d.latency_us = d.recv_corrected - span.send_corrected;
      const PairKey pair{span.sender, d.recipient};
      const auto it = channel_min.find(pair);
      if (it == channel_min.end() || d.latency_us < it->second)
        channel_min[pair] = d.latency_us;
    }
  }
  const auto is_one_sided = [&clocks](ProcessId p) {
    return std::find(clocks.one_sided.begin(), clocks.one_sided.end(), p) !=
           clocks.one_sided.end();
  };
  std::map<PairKey, std::size_t> channel_index;
  for (MessageSpan& span : out.spans) {
    for (DeliverySpan& d : span.deliveries) {
      const PairKey pair{span.sender, d.recipient};
      const double minimum = channel_min.at(pair);
      const double floor = minimum < 0 ? -minimum : 0.0;
      d.latency_us += floor;
      auto it = channel_index.find(pair);
      if (it == channel_index.end()) {
        it = channel_index.emplace(pair, out.channels.size()).first;
        ChannelLatency channel;
        channel.from = span.sender;
        channel.to = d.recipient;
        channel.floor_us = floor;
        channel.one_sided =
            is_one_sided(span.sender) || is_one_sided(d.recipient);
        out.channels.push_back(std::move(channel));
      }
      out.channels[it->second].latency_us.record(d.latency_us);
    }
  }

  // ---- view-change phase breakdowns, keyed by (round, coordinator).
  struct RoundState {
    ViewId new_view;
    bool have_view = false;
    double propose = -1;
    std::vector<double> acks;
    std::vector<std::pair<ProcessId, double>> installs;
  };
  std::map<std::pair<std::uint64_t, ProcessId>, RoundState> rounds;
  // Earliest e-view baseline (EviewChange seq 0) per (process, view).
  std::map<std::pair<ProcessId, ViewId>, double> eview_baseline;
  for (const TraceEvent& e : events) {
    const double t = clocks.correct(e.time, e.proc);
    switch (e.kind) {
      case EventKind::ViewProposed: {
        RoundState& r = rounds[{e.seq, e.proc}];
        if (r.propose < 0 || t < r.propose) r.propose = t;
        break;
      }
      case EventKind::ViewAcked:
        rounds[{e.seq, e.peer}].acks.push_back(t);
        break;
      case EventKind::ViewInstalled: {
        if (e.seq == 0) break;  // singleton bootstrap install, no round
        RoundState& r = rounds[{e.seq, e.peer}];
        r.installs.emplace_back(e.proc, t);
        r.new_view = e.view;
        r.have_view = true;
        break;
      }
      case EventKind::EviewChange: {
        if (e.seq != 0) break;  // only the per-view baseline
        const auto key = std::make_pair(e.proc, e.view);
        const auto it = eview_baseline.find(key);
        if (it == eview_baseline.end() || t < it->second)
          eview_baseline[key] = t;
        break;
      }
      default:
        break;
    }
  }
  for (const auto& [key, r] : rounds) {
    if (r.installs.empty()) continue;  // aborted / superseded round
    PhaseBreakdown b;
    b.round = key.first;
    b.coordinator = key.second;
    b.new_view = r.new_view;
    b.installs = r.installs.size();
    b.acks = r.acks.size();
    const double first_install =
        std::min_element(r.installs.begin(), r.installs.end(),
                         [](const auto& x, const auto& y) {
                           return x.second < y.second;
                         })
            ->second;
    const double last_install =
        std::max_element(r.installs.begin(), r.installs.end(),
                         [](const auto& x, const auto& y) {
                           return x.second < y.second;
                         })
            ->second;
    b.install_spread_us = last_install - first_install;
    if (!r.acks.empty()) {
      const double last_ack = *std::max_element(r.acks.begin(), r.acks.end());
      if (r.propose >= 0) b.propose_to_last_ack_us = last_ack - r.propose;
      b.last_ack_to_first_install_us = first_install - last_ack;
    }
    double eview_lag = -1;
    for (const auto& [member, install_t] : r.installs) {
      const auto it = eview_baseline.find({member, r.new_view});
      if (it == eview_baseline.end()) continue;
      eview_lag = std::max(eview_lag, it->second - install_t);
    }
    b.install_to_eview_us = eview_lag;
    out.view_changes.push_back(std::move(b));
  }
  std::sort(out.view_changes.begin(), out.view_changes.end(),
            [](const PhaseBreakdown& a, const PhaseBreakdown& b) {
              return std::tie(a.new_view.epoch, a.round) <
                     std::tie(b.new_view.epoch, b.round);
            });
  return out;
}

void write_spans_json(std::ostream& os, const SpanAnalysis& a) {
  os << "{\"clock\":{\"reference\":\"" << proc_str(a.clocks.reference)
     << "\",\"offsets_us\":{";
  bool first = true;
  for (const auto& [p, off] : a.clocks.offset_us) {
    if (!first) os << ",";
    first = false;
    os << "\"" << proc_str(p) << "\":";
    put_number(os, off);
  }
  os << "},\"one_sided\":[";
  first = true;
  for (const ProcessId& p : a.clocks.one_sided) {
    if (!first) os << ",";
    first = false;
    os << "\"" << proc_str(p) << "\"";
  }
  os << "]},\"spans\":" << a.spans.size()
     << ",\"matched_deliveries\":" << a.matched_deliveries
     << ",\"unmatched_sends\":" << a.unmatched_sends
     << ",\"unmatched_deliveries\":" << a.unmatched_deliveries
     << ",\"channels\":[";
  first = true;
  for (const ChannelLatency& c : a.channels) {
    if (!first) os << ",";
    first = false;
    os << "{\"from\":\"" << proc_str(c.from) << "\",\"to\":\""
       << proc_str(c.to) << "\",\"count\":" << c.latency_us.count()
       << ",\"min_us\":";
    put_number(os, c.latency_us.min());
    os << ",\"mean_us\":";
    put_number(os, c.latency_us.mean());
    os << ",\"p50_us\":";
    put_number(os, c.latency_us.quantile(0.50));
    os << ",\"p95_us\":";
    put_number(os, c.latency_us.quantile(0.95));
    os << ",\"max_us\":";
    put_number(os, c.latency_us.max());
    os << ",\"floor_us\":";
    put_number(os, c.floor_us);
    os << ",\"one_sided\":" << (c.one_sided ? "true" : "false") << "}";
  }
  os << "],\"view_changes\":[";
  first = true;
  for (const PhaseBreakdown& b : a.view_changes) {
    if (!first) os << ",";
    first = false;
    os << "{\"view\":\"" << view_str(b.new_view) << "\",\"round\":" << b.round
       << ",\"coordinator\":\"" << proc_str(b.coordinator)
       << "\",\"installs\":" << b.installs << ",\"acks\":" << b.acks
       << ",\"propose_to_last_ack_us\":";
    put_number(os, b.propose_to_last_ack_us);
    os << ",\"last_ack_to_first_install_us\":";
    put_number(os, b.last_ack_to_first_install_us);
    os << ",\"install_spread_us\":";
    put_number(os, b.install_spread_us);
    os << ",\"install_to_eview_us\":";
    put_number(os, b.install_to_eview_us);
    os << "}";
  }
  os << "]}\n";
}

RequestTree assemble_request_tree(const std::vector<TraceEvent>& events,
                                  std::uint64_t trace_id,
                                  const ClockModel& clocks) {
  RequestTree tree;
  tree.trace_id = trace_id;
  for (const TraceEvent& e : events) {
    if (!is_request_event(e.kind) || e.seq != trace_id) continue;
    const bool duplicate = std::any_of(
        tree.hops.begin(), tree.hops.end(), [&e](const RequestHop& h) {
          return h.proc == e.proc && h.kind == e.kind && h.group == e.group &&
                 h.time_raw == e.time && h.value == e.value && h.aux == e.aux;
        });
    if (duplicate) continue;  // same dump merged twice
    RequestHop hop;
    hop.proc = e.proc;
    hop.kind = e.kind;
    hop.group = e.group;
    hop.time_raw = e.time;
    hop.time_corrected = clocks.correct(e.time, e.proc);
    hop.value = e.value;
    hop.aux = e.aux;
    tree.hops.push_back(hop);
  }
  tree.found = !tree.hops.empty();
  for (const RequestHop& hop : tree.hops)
    if (std::find(tree.processes.begin(), tree.processes.end(), hop.proc) ==
        tree.processes.end())
      tree.processes.push_back(hop.proc);
  std::sort(tree.processes.begin(), tree.processes.end());

  // Per-node phase monotonicity on raw clocks: order the node's ranked
  // hops by (raw time, rank) and require ranks non-decreasing — a later
  // raw timestamp with an earlier phase is a violation.
  for (const ProcessId& proc : tree.processes) {
    std::vector<std::pair<SimTime, int>> phases;
    for (const RequestHop& hop : tree.hops) {
      const int rank = request_phase_rank(hop.kind);
      if (hop.proc == proc && rank >= 0) phases.emplace_back(hop.time_raw, rank);
    }
    std::sort(phases.begin(), phases.end());
    for (std::size_t i = 1; i < phases.size(); ++i) {
      if (phases[i].second < phases[i - 1].second) {
        tree.monotonic = false;
        tree.errors.push_back(
            "process " + proc_str(proc) + ": phase rank " +
            std::to_string(phases[i].second) + " at t=" +
            std::to_string(phases[i].first) + "us after rank " +
            std::to_string(phases[i - 1].second) + " at t=" +
            std::to_string(phases[i - 1].first) + "us");
      }
    }
  }

  std::sort(tree.hops.begin(), tree.hops.end(),
            [](const RequestHop& a, const RequestHop& b) {
              return std::tie(a.time_corrected, a.proc, a.time_raw) <
                     std::tie(b.time_corrected, b.proc, b.time_raw);
            });
  return tree;
}

void write_request_tree_json(std::ostream& os, const RequestTree& tree) {
  os << "{\"trace_id\":" << tree.trace_id
     << ",\"found\":" << (tree.found ? "true" : "false")
     << ",\"monotonic\":" << (tree.monotonic ? "true" : "false")
     << ",\"processes\":[";
  bool first = true;
  for (const ProcessId& p : tree.processes) {
    if (!first) os << ",";
    first = false;
    os << "\"" << proc_str(p) << "\"";
  }
  os << "],\"hops\":[";
  first = true;
  for (const RequestHop& hop : tree.hops) {
    if (!first) os << ",";
    first = false;
    os << "{\"proc\":\"" << proc_str(hop.proc) << "\",\"kind\":\""
       << to_string(hop.kind) << "\",\"group\":" << hop.group
       << ",\"time_raw_us\":" << hop.time_raw << ",\"time_corrected_us\":";
    put_number(os, hop.time_corrected);
    os << ",\"value\":" << hop.value << ",\"aux\":" << hop.aux << "}";
  }
  os << "],\"errors\":[";
  first = true;
  for (const std::string& err : tree.errors) {
    if (!first) os << ",";
    first = false;
    os << "\"" << err << "\"";
  }
  os << "]}\n";
}

void write_chrome_flows(std::ostream& os, const SpanAnalysis& a) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::vector<std::uint32_t> seen_sites;
  const auto emit_process_meta = [&](ProcessId p) {
    for (const std::uint32_t s : seen_sites)
      if (s == p.site.value) return;
    seen_sites.push_back(p.site.value);
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << p.site.value
       << ",\"args\":{\"name\":\"site " << p.site.value << "\"}}";
  };
  std::size_t flow_id = 0;
  for (const MessageSpan& span : a.spans) {
    if (span.deliveries.empty()) continue;
    ++flow_id;
    emit_process_meta(span.sender);
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"send " << proc_str(span.sender) << "#" << span.seq
       << "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":";
    put_number(os, span.send_corrected);
    os << ",\"dur\":1,\"pid\":" << span.sender.site.value
       << ",\"tid\":" << span.sender.incarnation << "}";
    os << ",{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" << flow_id
       << ",\"ts\":";
    put_number(os, span.send_corrected);
    os << ",\"pid\":" << span.sender.site.value
       << ",\"tid\":" << span.sender.incarnation << "}";
    for (const DeliverySpan& d : span.deliveries) {
      emit_process_meta(d.recipient);
      os << ",{\"name\":\"" << (d.flush ? "flush-recv " : "recv ")
         << proc_str(span.sender) << "#" << span.seq
         << "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":";
      put_number(os, d.recv_corrected);
      os << ",\"dur\":1,\"pid\":" << d.recipient.site.value
         << ",\"tid\":" << d.recipient.incarnation << "}";
      os << ",{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
            "\"id\":"
         << flow_id << ",\"ts\":";
      put_number(os, d.recv_corrected);
      os << ",\"pid\":" << d.recipient.site.value
         << ",\"tid\":" << d.recipient.incarnation << "}";
    }
  }
  os << "]}\n";
}

}  // namespace evs::obs
