// End-to-end loopback test: three real evs_node processes on 127.0.0.1.
//
//   usage: net_loopback_test <path-to-evs_node> <path-to-trace_check>
//                            <path-to-evs_top> <path-to-evs_ctl>
//
// The scenario the ISSUE prescribes, driven over the nodes' stdout:
//   1. spawn three evs_node processes from generated configs (each with
//      a per-node admin endpoint and a shared admin_token),
//   2. wait until every node installs the common 3-view,
//   3. wait until every node delivers all 300 multicasts (100 per node),
//   3b. scrape GET /status and /metrics from all three live admin
//       endpoints — identical view ids, live transport counters, parsing
//       Prometheus exposition — and run evs_top --once --expect-converged,
//   3c. partition-and-heal over the control plane: SIGSTOP one node until
//       the survivors install the 2-view, SIGCONT it and wait for the
//       3-view to come back in *split* mode (the structure does not grow
//       by itself — the paper's asymmetry), check a wrong-token POST is
//       refused, then drive evs_ctl --all merge-all (retrying: a node
//       blocked mid-view-change drops merge requests by design) until
//       every node reports the merged e-view in normal mode,
//   4. SIGKILL one member; the survivors must install the 2-view,
//   5. SIGTERM the survivors and check their clean exit,
//   6. replay the union of the trace dumps through trace_check --merge:
//      zero P2.1-P2.3 violations, plus the cross-process span correlation
//      (written into $EVS_LOOPBACK_ARTIFACTS when set, for CI upload).
//
// The victim's trace survives its SIGKILL because the nodes run with
// --trace-flush-ms; we only kill after the workload is quiescent, so the
// last flush already covers every multicast the survivors delivered.
//
// Plain main() runner (no gtest): exit 0 on success, 1 on failure with a
// narrated transcript on stderr. Registered RUN_SERIAL in ctest since it
// binds fixed-for-the-run loopback ports and forks real processes.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "support/loopback.hpp"

namespace {

using namespace evs::loopback;

constexpr int kNodes = 3;

/// Extracts the value of `"key":"..."` from a JSON body; "" if absent.
std::string json_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size();
  const std::size_t end = body.find('"', start);
  return end == std::string::npos ? std::string{}
                                  : body.substr(start, end - start);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr,
                 "usage: %s <evs_node> <trace_check> <evs_top> <evs_ctl>\n",
                 argv[0]);
    return 2;
  }
  const std::string evs_node = argv[1];
  const std::string trace_check = argv[2];
  const std::string evs_top = argv[3];
  const std::string evs_ctl = argv[4];

  char dir_template[] = "/tmp/evs_loopback_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) die("mkdtemp() failed");
  const std::string dir = dir_template;

  std::vector<std::uint16_t> ports(kNodes);
  std::uint16_t admin_ports[kNodes] = {};
  for (auto& p : ports) p = free_port();

  std::vector<std::string> config_paths;
  for (int i = 0; i < kNodes; ++i) {
    config_paths.push_back(dir + "/node" + std::to_string(i) + ".conf");
    write_config(config_paths.back(), i, ports, {{i, 0}}, {},
                 "admin_token looptoken\n");
  }

  std::vector<Child> children;
  for (int i = 0; i < kNodes; ++i)
    children.push_back(spawn_node(
        {evs_node, "--config", config_paths[i], "--multicast", "100",
         "--send-interval-ms", "5", "--trace-flush-ms", "100", "--merge-all"},
        dir));
  g_children = &children;

  // 1. Every node installs the common full view {0,1,2}.
  const std::string full_view = "size=3 members=0,1,2";
  if (!await(children, 30000, [&]() {
        for (const Child& c : children)
          if (!contains_after(c.out, 0, full_view)) return false;
        return true;
      })) {
    dump_outputs(children);
    die("nodes never converged to the common 3-view");
  }
  // The fleet tools find every node's admin plane through one config,
  // written once the nodes have printed the ports they bound.
  std::map<int, std::uint16_t> fleet_admin;
  for (int i = 0; i < kNodes; ++i)
    fleet_admin[i] = admin_ports[i] = await_port(children, i, "admin");
  const std::string fleet_config = dir + "/fleet.conf";
  write_config(fleet_config, 0, ports, fleet_admin, {},
               "admin_token looptoken\n");
  std::fprintf(stderr, "ok: common 3-view at every node\n");

  // 2. All 300 multicasts (100 per node) delivered everywhere, in the
  //    full view — total order means n=300 appears exactly once per node.
  if (!await(children, 60000, [&]() {
        for (const Child& c : children)
          if (!contains_after(c.out, 0, "deliver n=300 ")) return false;
        return true;
      })) {
    dump_outputs(children);
    die("nodes never delivered all 300 multicasts");
  }
  std::fprintf(stderr, "ok: 300 deliveries at every node\n");

  // 3b. The live admin plane: every node's /status must report the same
  //     installed view, /metrics must expose live transport counters, and
  //     the Prometheus exposition must be well-formed.
  std::string common_view;
  for (int i = 0; i < kNodes; ++i) {
    const std::string status = http_get(admin_ports[i], "/status");
    if (status.find("HTTP/1.0 200") != 0)
      die("admin /status of node" + std::to_string(i) + " not served");
    const std::string view = json_field(status, "view");
    if (view.empty())
      die("admin /status of node" + std::to_string(i) + " has no view id");
    if (common_view.empty()) common_view = view;
    if (view != common_view)
      die("node" + std::to_string(i) + " /status view " + view +
          " != node0's " + common_view);
    if (json_field(status, "mode").empty())
      die("node" + std::to_string(i) + " /status has no mode");

    const std::string metrics = http_get(admin_ports[i], "/metrics");
    if (metrics.find("HTTP/1.0 200") != 0)
      die("admin /metrics of node" + std::to_string(i) + " not served");
    if (!contains_after(metrics, 0, "\"transport.datagrams_sent\":"))
      die("node" + std::to_string(i) + " /metrics lacks transport counters");
    if (!contains_after(metrics, 0, "\"transport.dropped_malformed\":"))
      die("node" + std::to_string(i) + " /metrics lacks drop counters");
    if (!contains_after(metrics, 0, "\"transport.syscalls.sendmsg_calls\":") ||
        !contains_after(metrics, 0, "\"transport.syscalls.recvmsg_calls\":"))
      die("node" + std::to_string(i) + " /metrics lacks syscall counters");
    if (!contains_after(metrics, 0, "\"transport.recv_errors\":"))
      die("node" + std::to_string(i) + " /metrics lacks recv_errors");
    if (!contains_after(metrics, 0, "\"transport.datagrams_coalesced\":") ||
        !contains_after(metrics, 0, "\"transport.frames_sent\":"))
      die("node" + std::to_string(i) + " /metrics lacks coalescing counters");
    if (!contains_after(metrics, 0, "\"node.app_delivered\":"))
      die("node" + std::to_string(i) + " /metrics lacks endpoint counters");

    const std::string prom = http_get(admin_ports[i], "/metrics.prom");
    if (prom.find("HTTP/1.0 200") != 0 ||
        !contains_after(prom, 0, "# TYPE transport_datagrams_sent counter"))
      die("node" + std::to_string(i) + " /metrics.prom malformed");
  }
  std::fprintf(stderr, "ok: admin /status agrees on view %s at every node\n",
               common_view.c_str());

  // ... and the fleet tool agrees the fleet is converged.
  if (run_and_wait({evs_top, "--config", fleet_config, "--once",
                    "--expect-converged", "--timeout-ms", "5000"}) != 0)
    die("evs_top --once --expect-converged failed on a converged fleet");
  std::fprintf(stderr, "ok: evs_top sees a converged fleet\n");

  // 3c. Partition-and-heal, driven through the admin control plane.
  //
  // True iff every node serves /status with one common view id and the
  // given mode ("normal" = degenerate structure, "split" = the e-view
  // still carries partition-era subviews awaiting an application merge).
  const auto fleet_in_mode = [&](const char* want_mode) {
    std::string view0;
    for (int i = 0; i < kNodes; ++i) {
      const std::string status = http_get(admin_ports[i], "/status");
      const std::string view = json_field(status, "view");
      if (view.empty() || json_field(status, "mode") != want_mode)
        return false;
      if (i == 0)
        view0 = view;
      else if (view != view0)
        return false;
    }
    return true;
  };

  // SIGSTOP node 2: the survivors' detector drops it and they install the
  // 2-view. The stopped process keeps its sockets; nothing is torn down.
  const std::size_t stop_offset[2] = {children[0].out.size(),
                                      children[1].out.size()};
  ::kill(children[2].pid, SIGSTOP);
  const std::string survivor_pair = "size=2 members=0,1";
  if (!await(children, 60000, [&]() {
        return contains_after(children[0].out, stop_offset[0],
                              survivor_pair) &&
               contains_after(children[1].out, stop_offset[1], survivor_pair);
      })) {
    dump_outputs(children);
    die("survivors never installed the 2-view during the SIGSTOP partition");
  }
  std::fprintf(stderr, "ok: SIGSTOP partition: survivors in the 2-view\n");

  // SIGCONT: the view comes back to {0,1,2}, but the e-view structure must
  // NOT heal by itself — growth is application-controlled, so the fleet
  // reconverges in split mode, partition-era subviews intact.
  const std::size_t cont_offset[kNodes] = {children[0].out.size(),
                                           children[1].out.size(),
                                           children[2].out.size()};
  ::kill(children[2].pid, SIGCONT);
  if (!await(children, 60000, [&]() {
        for (int i = 0; i < kNodes; ++i)
          if (!contains_after(children[i].out, cont_offset[i], full_view))
            return false;
        return true;
      })) {
    dump_outputs(children);
    die("fleet never reconverged to the 3-view after SIGCONT");
  }
  bool split = false;
  for (int waited = 0; waited < 30000 && !split; waited += 250) {
    drain(children, 0);
    split = fleet_in_mode("split");
    if (!split) ::usleep(250 * 1000);
  }
  if (!split) {
    dump_outputs(children);
    die("healed fleet is not in split mode — structure merged on its own?");
  }
  std::fprintf(stderr, "ok: healed view is back, e-view still split\n");

  // The write side is token-guarded: a wrong token must be refused (401)
  // and counted, and must not merge anything.
  if (run_and_wait({evs_ctl, "--config", fleet_config, "--site", "0",
                    "--token", "wrong", "--timeout-ms", "2000",
                    "merge-all"}) == 0)
    die("evs_ctl with a wrong token was accepted");
  {
    const std::string metrics = http_get(admin_ports[0], "/metrics");
    if (!contains_after(metrics, 0, "\"admin.dropped_unauthorized\":1"))
      die("unauthorized POST was not counted in admin.dropped_unauthorized");
  }
  std::fprintf(stderr, "ok: wrong-token merge-all refused and counted\n");

  // Now the real heal: POST /merge-all to every node (only the current
  // primary acts on it; the others forward). A node that is blocked
  // mid-view-change drops merge requests by design, so retry until every
  // node reports the merged, degenerate e-view.
  bool merged = false;
  for (int attempt = 0; attempt < 40 && !merged; ++attempt) {
    run_and_wait({evs_ctl, "--config", fleet_config, "--all",
                  "--timeout-ms", "2000", "merge-all"});
    for (int i = 0; i < 4 && !merged; ++i) {
      drain(children, 100);
      merged = fleet_in_mode("normal");
      if (!merged) ::usleep(150 * 1000);
    }
  }
  if (!merged) {
    dump_outputs(children);
    die("fleet never merged back to normal mode after evs_ctl merge-all");
  }
  if (run_and_wait({evs_top, "--config", fleet_config, "--once",
                    "--expect-converged", "--timeout-ms", "5000"}) != 0)
    die("evs_top does not see the healed fleet as converged");
  {
    // The accepted commands are visible on the admin plane's own counters.
    const std::string metrics = http_get(admin_ports[0], "/metrics");
    if (!contains_after(metrics, 0, "\"admin.commands_ok\":"))
      die("admin.commands_ok missing from /metrics after merge-all");
  }
  std::fprintf(stderr,
               "ok: evs_ctl merge-all healed the e-view at every node\n");

  // Let each node's periodic trace flush cover the now-quiescent run, so
  // the victim's dump includes every multicast it sent.
  ::usleep(500 * 1000);

  // 3. SIGKILL node 2; survivors must install the 2-view {0,1}.
  const std::size_t kill_offset[2] = {children[0].out.size(),
                                      children[1].out.size()};
  ::kill(children[2].pid, SIGKILL);
  reap(children[2]);
  const std::string survivor_view = "size=2 members=0,1";
  if (!await(children, 60000, [&]() {
        return contains_after(children[0].out, kill_offset[0],
                              survivor_view) &&
               contains_after(children[1].out, kill_offset[1], survivor_view);
      })) {
    dump_outputs(children);
    die("survivors never installed the 2-view after the kill");
  }
  std::fprintf(stderr, "ok: survivors installed the 2-view\n");

  // 4. Graceful shutdown of the survivors.
  ::kill(children[0].pid, SIGTERM);
  ::kill(children[1].pid, SIGTERM);
  reap(children[0]);
  reap(children[1]);
  for (int i = 0; i < 2; ++i) {
    if (!WIFEXITED(children[i].exit_status) ||
        WEXITSTATUS(children[i].exit_status) != 0) {
      dump_outputs(children);
      die("survivor node" + std::to_string(i) + " exited uncleanly");
    }
    if (!contains_after(children[i].out, 0, "summary ")) {
      dump_outputs(children);
      die("survivor node" + std::to_string(i) + " printed no summary");
    }
  }
  std::fprintf(stderr, "ok: survivors exited cleanly\n");

  // 5. The union of the three traces passes the view-synchrony checker,
  //    and the cross-process span correlation runs over the same union.
  //    EVS_LOOPBACK_ARTIFACTS=<dir> keeps the span JSON for CI upload.
  std::vector<std::string> traces;
  for (int i = 0; i < kNodes; ++i) {
    const std::string path =
        dir + "/evs_node-site" + std::to_string(i) + ".trace.jsonl";
    if (::access(path.c_str(), R_OK) != 0) die("missing trace: " + path);
    traces.push_back(path);
  }
  const char* artifacts_env = std::getenv("EVS_LOOPBACK_ARTIFACTS");
  const std::string artifacts = artifacts_env != nullptr ? artifacts_env : dir;
  const std::string spans_json = artifacts + "/loopback-spans.json";
  const std::string spans_chrome = artifacts + "/loopback-flows.json";
  if (run_and_wait({trace_check, "--merge", "--spans-json", spans_json,
                    "--spans-chrome", spans_chrome, traces[0], traces[1],
                    traces[2]}) != 0) {
    dump_outputs(children);
    die("trace_check found violations in the merged traces");
  }
  std::ifstream spans_in(spans_json);
  std::string spans_body((std::istreambuf_iterator<char>(spans_in)),
                         std::istreambuf_iterator<char>());
  if (!contains_after(spans_body, 0, "\"view_changes\":[{"))
    die("span correlation produced no view-change phase breakdown");
  std::fprintf(stderr, "ok: merged traces pass trace_check + span analysis\n");

  // Success: clean up the scratch directory.
  for (const std::string& path : traces)
    remove_node_dumps(path.substr(0, path.size() - sizeof(".trace.jsonl") + 1));
  if (artifacts == dir) {
    ::unlink(spans_json.c_str());
    ::unlink(spans_chrome.c_str());
  }
  for (const std::string& path : config_paths) ::unlink(path.c_str());
  ::unlink(fleet_config.c_str());
  ::rmdir(dir.c_str());
  std::printf("PASS\n");
  return 0;
}
