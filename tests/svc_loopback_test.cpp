// End-to-end front-door test: three real evs_node processes hosting a
// MergeableKv on 127.0.0.1, with external clients speaking the svc wire
// protocol through a SIGSTOP partition and heal.
//
//   usage: svc_loopback_test <path-to-evs_node>
//
// The contract under test (ISSUE 7): every request an external client
// submits gets exactly one *typed* response — Ok, Conflict, InvalidEpoch
// or Unavailable — never a hang, across the whole partition lifecycle:
//   1. spawn three `--object kv` nodes, each with a `svc` endpoint,
//   2. converge to the 3-view; a client learns the epoch via Get,
//   3. Put with the learned epoch -> Ok; the value is readable through a
//      *different* node (total order crossed the group),
//   4. a stale epoch is rejected with InvalidEpoch carrying the current
//      epoch (the client's re-fencing handshake),
//   5. SIGSTOP one node: the survivors install the 2-view under load; a
//      client still holding the old epoch gets InvalidEpoch{new}, re-fences
//      from that very response, and its next Put lands Ok,
//   6. SIGCONT: the 3-view returns; a post-heal Put through node 0 becomes
//      readable through the revived node (state crossed the heal),
//   7. a burst pipelined in one write against a node with a tiny
//      --svc-inflight cap is
//      shed with typed Unavailable{retry_after_ms} — counted on /metrics,
//      with every single request of the burst answered, in fewer
//      svc.send_calls than replies,
//   8. SIGTERM everything; clean exits.
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
#include <string>
#include <vector>

#include "support/loopback.hpp"

namespace {

using namespace evs::loopback;
using evs::runtime::SvcOp;
using evs::runtime::SvcRequest;
using evs::runtime::SvcResponse;
using evs::runtime::SvcStatus;

constexpr int kNodes = 3;

SvcRequest make_get(std::string key, std::uint64_t epoch) {
  SvcRequest r;
  r.op = SvcOp::Get;
  r.view_epoch = epoch;
  r.key = std::move(key);
  return r;
}

SvcRequest make_put(std::string key, std::string value, std::uint64_t epoch) {
  SvcRequest r;
  r.op = SvcOp::Put;
  r.view_epoch = epoch;
  r.key = std::move(key);
  r.value = std::move(value);
  return r;
}

/// Puts with the fenced epoch, honouring the protocol's own retry
/// contract: Unavailable{retry_after_ms} means "not serving right now"
/// (settling after a view change, admission shed) and is retried; any
/// other non-Ok answer is a test failure.
SvcResponse put_until_ok(SvcClient& client, const std::string& key,
                         const std::string& value, std::uint64_t epoch,
                         const char* what) {
  for (int waited = 0; waited < 30000;) {
    const SvcResponse resp = client.call(make_put(key, value, epoch));
    if (resp.status == SvcStatus::Ok) return resp;
    if (resp.status != SvcStatus::Unavailable)
      die(std::string(what) + ": Put answered " +
          evs::runtime::to_string(resp.status) + " instead of Ok");
    const int backoff_ms =
        resp.retry_after_ms > 0 ? static_cast<int>(resp.retry_after_ms) : 50;
    ::usleep(backoff_ms * 1000);
    waited += backoff_ms;
  }
  die(std::string(what) + ": Put never succeeded");
}

/// Polls `node` with wildcard Gets until `key` reads `want` (typed Ok
/// every round — replication is eventual, a hang is not).
void await_value(SvcClient& client, const std::string& key,
                 const std::string& want, const char* what) {
  for (int waited = 0; waited < 30000; waited += 100) {
    const SvcResponse resp = client.call(make_get(key, 0));
    if (resp.status != SvcStatus::Ok)
      die(std::string(what) + ": Get answered " +
          evs::runtime::to_string(resp.status) + " instead of Ok");
    if (resp.value == want) return;
    ::usleep(100 * 1000);
  }
  die(std::string(what) + ": value never became \"" + want + "\"");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <evs_node>\n", argv[0]);
    return 2;
  }
  const std::string evs_node = argv[1];

  char dir_template[] = "/tmp/evs_svc_loopback_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) die("mkdtemp() failed");
  const std::string dir = dir_template;

  std::vector<std::uint16_t> ports(kNodes);
  std::uint16_t admin_ports[kNodes] = {};
  std::uint16_t svc_ports[kNodes] = {};
  for (auto& p : ports) p = free_port();

  std::vector<std::string> config_paths;
  for (int i = 0; i < kNodes; ++i) {
    config_paths.push_back(dir + "/node" + std::to_string(i) + ".conf");
    write_config(config_paths.back(), i, ports, {{i, 0}}, {{i, 0}},
                 "admin_token looptoken\n");
  }

  if (const char* artifacts = std::getenv("EVS_LOOPBACK_ARTIFACTS")) {
    const std::string out_dir = artifacts;
    g_on_fail = [out_dir, &admin_ports]() {
      for (int i = 0; i < kNodes; ++i) {
        const std::string metrics = http_get(admin_ports[i], "/metrics");
        if (metrics.empty()) continue;
        std::ofstream os(out_dir + "/svc-node" + std::to_string(i) +
                         ".metrics.json");
        os << metrics;
      }
    };
  }

  // Node 2 gets a deliberately tiny in-flight cap: the shed phase later
  // pipelines a burst through it and expects typed Unavailable answers.
  std::vector<Child> children;
  for (int i = 0; i < kNodes; ++i) {
    std::vector<std::string> args = {evs_node, "--config", config_paths[i],
                                     "--object", "kv"};
    if (i == 2) args.insert(args.end(), {"--svc-inflight", "4"});
    children.push_back(spawn_node(args));
  }
  g_children = &children;

  // 1. Everyone serves its svc port and installs the common 3-view.
  const std::string full_view = "size=3 members=0,1,2";
  if (!await(children, 30000, [&]() {
        for (const Child& c : children) {
          if (!contains_after(c.out, 0, "svc site=")) return false;
          if (!contains_after(c.out, 0, full_view)) return false;
        }
        return true;
      })) {
    dump_outputs(children);
    die("nodes never served svc and converged to the common 3-view");
  }
  for (int i = 0; i < kNodes; ++i) {
    admin_ports[i] = await_port(children, i, "admin");
    svc_ports[i] = await_port(children, i, "svc");
  }
  std::fprintf(stderr, "ok: 3-view installed, svc ports up\n");

  SvcClient client0(svc_ports[0]);
  SvcClient client1(svc_ports[1]);
  SvcClient client2(svc_ports[2]);

  // 2. An external client learns the epoch through a wildcard Get.
  const SvcResponse hello = client0.call(make_get("k", 0));
  if (hello.status != SvcStatus::Ok)
    die("wildcard Get was not Ok");
  const std::uint64_t epoch = hello.view_epoch;
  if (epoch == 0) die("Ok response carries no view epoch");
  std::fprintf(stderr, "ok: client learned epoch %llu\n",
               static_cast<unsigned long long>(epoch));

  // 3. A fenced Put through node 0 becomes readable through node 1.
  put_until_ok(client0, "k", "v1", epoch, "fenced Put");
  await_value(client1, "k", "v1", "cross-node read");
  std::fprintf(stderr, "ok: fenced Put visible through another node\n");

  // 4. A stale epoch is rejected with the current epoch to re-fence by.
  const SvcResponse stale = client0.call(make_put("k", "bad", epoch - 1));
  if (stale.status != SvcStatus::InvalidEpoch)
    die("stale-epoch Put was not InvalidEpoch");
  if (stale.view_epoch != epoch)
    die("InvalidEpoch does not carry the current epoch");
  std::fprintf(stderr, "ok: stale epoch rejected with current epoch\n");

  // 5. SIGSTOP node 2: survivors install the 2-view. The client's old
  //    epoch goes stale; the InvalidEpoch answer itself is the re-fence.
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
  const SvcResponse fenced = client0.call(make_put("k", "v2", epoch));
  if (fenced.status != SvcStatus::InvalidEpoch)
    die("old-epoch Put across the view change was not InvalidEpoch");
  const std::uint64_t epoch2 = fenced.view_epoch;
  if (epoch2 <= epoch)
    die("InvalidEpoch across the view change carries a stale epoch");
  put_until_ok(client0, "k", "v2", epoch2, "re-fenced 2-view Put");
  await_value(client1, "k", "v2", "2-view read");
  std::fprintf(stderr,
               "ok: partition fenced the old epoch, re-fenced Put landed\n");

  // 6. SIGCONT: the 3-view returns; a post-heal Put through node 0 must
  //    become readable through the revived node 2.
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
  const SvcResponse healed = client0.call(make_get("k", 0));
  if (healed.status != SvcStatus::Ok) die("post-heal Get was not Ok");
  const std::uint64_t epoch3 = healed.view_epoch;
  if (epoch3 <= epoch2) die("post-heal epoch did not advance");
  put_until_ok(client0, "post-heal", "v3", epoch3, "post-heal Put");
  await_value(client2, "post-heal", "v3", "revived-node read");
  std::fprintf(stderr, "ok: post-heal Put visible through revived node\n");

  // 7. Overload shed: pipeline a burst through node 2's tiny in-flight
  //    cap. Every request must be answered — Ok for the admitted ones,
  //    Unavailable with a retry hint for the shed ones, nothing dropped.
  constexpr int kBurst = 64;
  const long long sends_before =
      json_number(http_get(admin_ports[2], "/metrics"), "svc.send_calls");
  if (sends_before < 0) die("svc.send_calls missing from /metrics");
  std::vector<SvcRequest> burst;
  for (int i = 0; i < kBurst; ++i)
    burst.push_back(make_put("burst" + std::to_string(i), "x", 0));
  const std::vector<std::uint64_t> ids = client2.send_requests(burst);
  int burst_ok = 0;
  int burst_shed = 0;
  for (const std::uint64_t id : ids) {
    const SvcResponse resp = client2.recv_response(id);
    if (resp.status == SvcStatus::Ok) {
      ++burst_ok;
    } else if (resp.status == SvcStatus::Unavailable) {
      if (resp.retry_after_ms == 0)
        die("shed response carries no retry hint");
      ++burst_shed;
    } else {
      die(std::string("burst request answered ") +
          evs::runtime::to_string(resp.status));
    }
  }
  if (burst_ok == 0) die("no burst request was admitted");
  if (burst_shed == 0)
    die("pipelining past the in-flight cap shed nothing");
  std::fprintf(stderr, "ok: burst of %d -> %d ok, %d shed, 0 unanswered\n",
               kBurst, burst_ok, burst_shed);

  // ...and the shed is first-class on the admin plane.
  const std::string metrics = http_get(admin_ports[2], "/metrics");
  if (json_number(metrics, "svc.requests_shed") < burst_shed)
    die("svc.requests_shed on /metrics below the observed shed count");
  if (json_number(metrics, "svc.requests_ok") < 1)
    die("svc.requests_ok missing from /metrics");
  if (json_number(metrics, "svc.connections_accepted") < 1)
    die("svc.connections_accepted missing from /metrics");
  std::fprintf(stderr, "ok: shed and serve counters exported on /metrics\n");
  // Replies completed in one loop iteration share one write: the burst's
  // synchronous sheds must not cost a send(2) each.
  const long long burst_sends =
      json_number(metrics, "svc.send_calls") - sends_before;
  if (burst_sends >= kBurst)
    die("burst of " + std::to_string(kBurst) + " replies took " +
        std::to_string(burst_sends) + " send calls");
  if (json_number(metrics, "svc.read_calls") < 1)
    die("svc.read_calls missing from /metrics");
  std::fprintf(stderr, "ok: burst of %d replies in %lld send calls\n", kBurst,
               burst_sends);

  // 8. Graceful shutdown.
  for (int i = 0; i < kNodes; ++i) ::kill(children[i].pid, SIGTERM);
  for (int i = 0; i < kNodes; ++i) reap(children[i]);
  for (int i = 0; i < kNodes; ++i) {
    if (!WIFEXITED(children[i].exit_status) ||
        WEXITSTATUS(children[i].exit_status) != 0) {
      dump_outputs(children);
      die("node" + std::to_string(i) + " exited uncleanly");
    }
    if (!contains_after(children[i].out, 0, "summary ")) {
      dump_outputs(children);
      die("node" + std::to_string(i) + " printed no summary");
    }
  }
  std::fprintf(stderr, "ok: all nodes exited cleanly\n");

  for (const std::string& path : config_paths) ::unlink(path.c_str());
  ::rmdir(dir.c_str());
  std::printf("PASS\n");
  return 0;
}
