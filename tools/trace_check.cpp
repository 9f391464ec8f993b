// trace_check: replay recorded traces through the oracle engine.
//
// Usage: trace_check [--merge] [--group N] [--spans-json FILE]
//                    [--spans-chrome FILE] [--request ID [--request-json FILE]]
//                    <run.trace.jsonl>...
//
// Reads each JSONL trace produced by obs::TraceBus::write_jsonl (e.g. via
// EVS_TRACE_OUT), replays it through obs::RunChecker — the view-synchrony
// properties (P2.1-P2.3), the enriched-view structure invariant, the
// Figure-1 mode machine and the request-phase rule — and prints every
// violation. Exit status: 0 when every file is clean, 1 on any violation
// or unreadable file. CI runs the quickstart and partition_merge_demo
// examples under EVS_TRACE_OUT and pipes their traces through this tool.
//
// --merge treats all files as one run and checks their union. A sim run
// records every process in one World bus, so one file is the whole run;
// a real-socket run (tools/evs_node) dumps one trace per process, and the
// cross-process properties — P2.1 agreement, P2.3 only-if-sent — only
// hold on the union of the group's traces.
//
// Multi-group traces (events carrying a "g" label — one process hosting
// several group instances) need no split: the engine keys all its state
// by group, so each group instance is checked on its own. --group N
// restricts checking to one group.
//
// --spans-json / --spans-chrome run the cross-process span correlation
// (obs/spans.hpp) over the union of all input files: clock-offset
// estimation, per-channel latency histograms and view-change phase
// breakdowns as JSON, or Chrome-trace flow events for Perfetto. Either
// flag also prints the per-round phase summary to stdout.
//
// --request ID assembles the causal span tree of one traced client
// request (the 64-bit trace id the svc client propagated) from the union
// of all input files: every Request* lifecycle hop, ordered on the
// corrected clock, validated for per-node phase monotonicity on raw
// clocks. Prints the tree to stdout; --request-json FILE also writes it
// as one JSON object. Exits 1 when the id is absent or the phase order is
// violated.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/check.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"

namespace {

bool check_and_report(const char* label,
                      const std::vector<evs::obs::TraceEvent>& events,
                      std::size_t skipped) {
  const std::vector<evs::obs::Violation> violations =
      evs::obs::RunChecker::check(events);
  std::printf("%s: %zu events (%zu unparseable lines skipped), %zu violations\n",
              label, events.size(), skipped, violations.size());
  for (const evs::obs::Violation& v : violations)
    std::printf("  %s\n", v.str().c_str());
  return violations.empty();
}

bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& writer) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "%s: cannot write\n", path.c_str());
    return false;
  }
  writer(os);
  return os.good();
}

}  // namespace

int main(int argc, char** argv) {
  bool merge = false;
  std::optional<evs::GroupId> only_group;
  std::string spans_json_path;
  std::string spans_chrome_path;
  std::optional<std::uint64_t> request_id;
  std::string request_json_path;
  std::vector<const char*> files;
  const auto usage = [argv]() {
    std::fprintf(stderr,
                 "usage: %s [--merge] [--group N] [--spans-json FILE] "
                 "[--spans-chrome FILE] [--request ID [--request-json FILE]] "
                 "<run.trace.jsonl>...\n",
                 argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--merge") {
      merge = true;
    } else if (arg == "--group" && i + 1 < argc) {
      only_group = static_cast<evs::GroupId>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--spans-json" && i + 1 < argc) {
      spans_json_path = argv[++i];
    } else if (arg == "--spans-chrome" && i + 1 < argc) {
      spans_chrome_path = argv[++i];
    } else if (arg == "--request" && i + 1 < argc) {
      request_id = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--request-json" && i + 1 < argc) {
      request_json_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty()) return usage();
  if (request_id && *request_id == 0) {
    std::fprintf(stderr, "--request: trace id must be nonzero\n");
    return 2;
  }
  if (!request_json_path.empty() && !request_id) {
    std::fprintf(stderr, "--request-json requires --request\n");
    return 2;
  }
  const bool want_spans = !spans_json_path.empty() ||
                          !spans_chrome_path.empty() || request_id.has_value();

  bool ok = true;
  std::vector<evs::obs::TraceEvent> merged;
  std::size_t merged_skipped = 0;
  for (const char* path : files) {
    std::ifstream is(path);
    if (!is) {
      std::fprintf(stderr, "%s: cannot open\n", path);
      ok = false;
      continue;
    }
    std::size_t skipped = 0;
    std::vector<evs::obs::TraceEvent> events =
        evs::obs::read_jsonl(is, &skipped);
    if (only_group) {
      std::erase_if(events, [&](const evs::obs::TraceEvent& e) {
        return e.group != *only_group;
      });
    }
    if (merge || want_spans) {
      merged.insert(merged.end(), events.begin(), events.end());
      merged_skipped += skipped;
    }
    if (!merge && !check_and_report(path, events, skipped)) ok = false;
  }
  if (merge && !check_and_report("<merged>", merged, merged_skipped)) ok = false;

  if (want_spans) {
    const evs::obs::SpanAnalysis analysis = evs::obs::correlate_spans(merged);
    std::printf(
        "spans: %zu sends, %llu matched deliveries, %llu unmatched sends, "
        "%llu orphan deliveries, %zu channels, %zu view changes\n",
        analysis.spans.size(),
        static_cast<unsigned long long>(analysis.matched_deliveries),
        static_cast<unsigned long long>(analysis.unmatched_sends),
        static_cast<unsigned long long>(analysis.unmatched_deliveries),
        analysis.channels.size(), analysis.view_changes.size());
    for (const evs::obs::PhaseBreakdown& round : analysis.view_changes)
      std::printf("  %s\n", round.str().c_str());
    if (!spans_json_path.empty() &&
        !write_file(spans_json_path, [&](std::ostream& os) {
          evs::obs::write_spans_json(os, analysis);
        }))
      ok = false;
    if (!spans_chrome_path.empty() &&
        !write_file(spans_chrome_path, [&](std::ostream& os) {
          evs::obs::write_chrome_flows(os, analysis);
        }))
      ok = false;

    if (request_id) {
      const evs::obs::RequestTree tree =
          evs::obs::assemble_request_tree(merged, *request_id, analysis.clocks);
      std::printf("request %llu: %zu hops across %zu processes%s\n",
                  static_cast<unsigned long long>(tree.trace_id),
                  tree.hops.size(), tree.processes.size(),
                  !tree.found      ? " (NOT FOUND)"
                  : !tree.monotonic ? " (PHASE ORDER VIOLATED)"
                                    : "");
      for (const evs::obs::RequestHop& hop : tree.hops)
        std::printf("  %12.1fus  %s g=%u %s value=%llu aux=%llu\n",
                    hop.time_corrected,
                    (std::to_string(hop.proc.site.value) + ":" +
                     std::to_string(hop.proc.incarnation))
                        .c_str(),
                    hop.group, evs::obs::to_string(hop.kind),
                    static_cast<unsigned long long>(hop.value),
                    static_cast<unsigned long long>(hop.aux));
      for (const std::string& err : tree.errors)
        std::printf("  ERROR: %s\n", err.c_str());
      if (!request_json_path.empty() &&
          !write_file(request_json_path, [&](std::ostream& os) {
            evs::obs::write_request_tree_json(os, tree);
          }))
        ok = false;
      if (!tree.found || !tree.monotonic) ok = false;
    }
  }
  return ok ? 0 : 1;
}
