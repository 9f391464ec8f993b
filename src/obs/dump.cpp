#include "obs/dump.hpp"

#include <cstdlib>
#include <fstream>

#include "common/log.hpp"

namespace evs::obs {

std::string trace_out_dir() {
  const char* dir = std::getenv("EVS_TRACE_OUT");
  return dir == nullptr ? std::string{} : std::string{dir};
}

bool dump_run(const TraceBus& bus, const MetricsRegistry& metrics,
              const std::string& name,
              const std::vector<TraceEvent>& trailer) {
  const std::string dir = trace_out_dir();
  if (dir.empty()) return false;
  const std::string stem = dir + "/" + name;

  {
    std::ofstream os(stem + ".trace.jsonl");
    if (!os) {
      EVS_WARN("dump_run: cannot write into EVS_TRACE_OUT dir " << dir);
      return false;
    }
    bus.write_jsonl(os);
    for (const TraceEvent& e : trailer) write_jsonl_event(os, e);
  }
  {
    std::ofstream os(stem + ".chrome.json");
    bus.write_chrome_trace(os);
  }
  {
    std::ofstream os(stem + ".metrics.json");
    os << metrics.to_json() << "\n";
  }
  {
    // Same snapshot in Prometheus text exposition, so scrape configs and
    // dump files share one format (checked by the CI smoke).
    std::ofstream os(stem + ".metrics.prom");
    os << metrics.to_prometheus();
  }
  EVS_INFO("dump_run: wrote " << stem
                              << ".{trace.jsonl,chrome.json,metrics.json,"
                                 "metrics.prom} ("
                              << bus.recorded() << " events, " << bus.dropped()
                              << " dropped)");
  return true;
}

}  // namespace evs::obs
