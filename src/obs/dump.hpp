// Observability: one-call run dumping, steered by EVS_TRACE_OUT.
//
// Set EVS_TRACE_OUT=<directory> before running any bench or example and
// dump_run() writes four artifacts there:
//   <name>.trace.jsonl   — the raw event stream (read_jsonl round-trips it,
//                          tools/trace_check replays it through RunChecker)
//   <name>.chrome.json   — Chrome trace-event form; open in ui.perfetto.dev
//   <name>.metrics.json  — the MetricsRegistry snapshot
//   <name>.metrics.prom  — the same snapshot as Prometheus text exposition
// When EVS_TRACE_OUT is unset, dump_run() is a no-op returning false, so
// callers can dump unconditionally.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace evs::obs {

/// Directory named by EVS_TRACE_OUT, or empty when tracing is off.
std::string trace_out_dir();

/// Writes the run artifacts into trace_out_dir(); returns true if files
/// were written. `name` must be a bare file stem ("quickstart", ...).
/// `trailer` is appended to the JSONL trace after the bus's events.
bool dump_run(const TraceBus& bus, const MetricsRegistry& metrics,
              const std::string& name,
              const std::vector<TraceEvent>& trailer = {});

}  // namespace evs::obs
