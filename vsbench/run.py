#!/usr/bin/env python3
"""Benchmark of a real-UDP evs_node fleet: three processes on loopback.

Run from the root of a checkout:

    python3 vsbench/run.py --workload log_append --seed 1 --seconds 10 --trace 0

The first run builds evs_node, the load generator (vsb_loadgen) and the
layer replay (vsb_replay) into .bench_build/. Each run then starts FLEETS
fresh fleets (fresh ports, fresh directory), timing each from spawn until
every group on every node is in one full view in mode normal, and drives
them with vsb_loadgen: a paced open loop (on partition_heal, under fault
cycles this script runs), a closed loop, and a read-back of every
acknowledged write. It scrapes every node's /metrics at the phase
boundaries, reads each node's peak RSS, stops the fleet (SIGINT, then
SIGKILL) and prints one JSON line: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. README.md lists every metric and what
it should move.
"""

import argparse
import ctypes
import http.client
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_runs")
TARGETS = ["evs_node", "vsb_loadgen", "vsb_replay"]
BUILD_TYPE = "RelWithDebInfo"
FLEETS = 8  # set-ups per run; a traced run measures the last one
DELAYED_SHARE = 0.15  # of --seconds: paced phase of the delayed-ACK client
RUN_DEADLINE_S = 170

# Per workload: fleet shape and traffic. Rates and windows are fixed, below
# what the program sustains without view churn. The first phase lasts
# `first` × --seconds; the closed loop runs `closed_ops` ops (split over the
# fleets), each fleet's part capped at three times the rest of --seconds, so
# a slow program still runs its full amount of work.
WORKLOADS = {
    "log_append": dict(
        kv=False, shards=4, store=False, conns=4, value_bytes=64, keys=4096,
        read_share=0.2, paced_rate=2000, closed_window=8, closed_ops=200_000,
        first=0.7, faults=False),
    "log_durable": dict(
        kv=False, shards=4, store=True, conns=4, value_bytes=64, keys=4096,
        read_share=0.5, paced_rate=400, closed_window=2, closed_ops=2_000,
        first=0.7, faults=False),
    "kv_read_mostly": dict(
        kv=True, shards=0, store=False, conns=3, value_bytes=32, keys=512,
        read_share=0.9, paced_rate=4000, closed_window=48, closed_ops=300_000,
        first=0.7, faults=False),
    "partition_heal": dict(
        kv=False, shards=1, store=False, conns=3, value_bytes=64, keys=4096,
        read_share=0.2, paced_rate=200, closed_window=32, closed_ops=150_000,
        first=0.85, faults=True, stop_ms=500),
}


def log(msg):
    print("vsbench: " + msg, file=sys.stderr, flush=True)


def mono_us():
    return time.clock_gettime(time.CLOCK_MONOTONIC) * 1e6


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


# --- build ------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to vsbench/ (expected src/)")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + gen,
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
                         stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        fail("build failed")


def binary(name):
    for sub in ("", os.path.join("evs", "tools")):
        path = os.path.join(BUILD, sub, name)
        if os.path.isfile(path):
            return path
    fail("missing binary " + name)


# --- the fleet --------------------------------------------------------------

def free_ports(n):
    socks, ports = [], []
    for i in range(n):
        kind = socket.SOCK_DGRAM if i < 3 else socket.SOCK_STREAM
        s = socket.socket(socket.AF_INET, kind)
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def http_call(port, method, path, body=None, headers=None, timeout=1.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.read(), dict(resp.getheaders())
    finally:
        conn.close()


def pin(cpu):
    """Pins a child to one CPU when there are four: node i on CPU i, the
    generator on CPU 3, so run-to-run placement does not move the figures."""
    if (os.cpu_count() or 1) < 4:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def keep_awake():
    """With pinning, starts a lowest-priority (SCHED_IDLE) busy loop on each
    node's CPU, so a node's vCPU never idles: on a VM, waking an idle vCPU
    waits for the host's scheduler, and the p50s followed the host's load
    (README, "What a run does"). Any runnable task preempts the loop at
    once. Returns the processes, to be stopped when the run ends."""
    if pin(0) is None:
        return []

    def idle(cpu):
        def setup():
            ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
            os.sched_setaffinity(0, {cpu})
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        return setup
    return [subprocess.Popen([sys.executable, "-c", "while True: pass"],
                             preexec_fn=idle(cpu)) for cpu in range(3)]


class Fleet:
    TOKEN = "vsbench"

    def __init__(self, spec, directory, traced=False):
        self.spec = spec
        self.dir = directory
        self.traced = traced
        os.makedirs(directory)
        ports = free_ports(9)
        self.peer, self.admin, self.svc = ports[0:3], ports[3:6], ports[6:9]
        self.procs = []

    def config(self, site):
        lines = ["self %d" % site]
        for s in range(3):
            lines.append("peer %d 127.0.0.1:%d" % (s, self.peer[s]))
            lines.append("admin %d 127.0.0.1:%d" % (s, self.admin[s]))
            lines.append("svc %d 127.0.0.1:%d" % (s, self.svc[s]))
        lines.append("admin_token " + self.TOKEN)
        if self.spec["store"]:
            lines.append("store " + os.path.join(self.dir, "store%d" % site))
        if self.spec["kv"]:
            lines.append("group 1 kv")
        else:
            for g in range(self.spec["shards"]):
                lines.append("group %d log" % (g + 1))
        return "\n".join(lines) + "\n"

    def spawn(self, site):
        env = dict(os.environ)
        env.pop("EVS_TRACE_OUT", None)
        if self.traced:
            env["EVS_TRACE_OUT"] = os.path.join(self.dir, "trace")
        path = os.path.join(self.dir, "node%d.conf" % site)
        if not os.path.exists(path):
            with open(path, "w") as f:
                f.write(self.config(site))
        with open(os.path.join(self.dir, "node%d.out" % site), "a") as out, \
                open(os.path.join(self.dir, "node%d.err" % site), "a") as err:
            return subprocess.Popen([binary("evs_node"), "--config", path],
                                    stdout=out, stderr=err, env=env, cwd=self.dir,
                                    preexec_fn=pin(site))

    def start(self):
        """Spawns the three nodes; returns seconds until the fleet is ready."""
        t0 = time.monotonic()
        self.procs = [self.spawn(site) for site in range(3)]
        self.wait(self.all_normal, 30)
        return time.monotonic() - t0

    def status(self, site):
        body, _ = http_call(self.admin[site], "GET", "/status", timeout=0.5)
        return json.loads(body)

    def statuses(self):
        out = {}
        for s in range(3):
            try:
                out[s] = self.status(s)
            except (OSError, ValueError, http.client.HTTPException):
                return None
        return out

    @staticmethod
    def groups(st):
        return [(g["id"], g["node"]) for g in st.get("groups", [])]

    def merged(self, sts, normal=False):
        """One 3-member view per group, the same on every node; with
        `normal`, every node in mode normal too."""
        if sts is None or len(sts) != 3:
            return False
        views = {}
        for st in sts.values():
            for gid, node in self.groups(st):
                if len(node["members"]) != 3 or (normal and node["mode"] != "normal"):
                    return False
                views.setdefault(gid, set()).add(node["view"])
        return bool(views) and all(len(v) == 1 for v in views.values())

    def all_normal(self, sts):
        return self.merged(sts, normal=True)

    def wait(self, pred, timeout_s, poll_s=0.005):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for p in self.procs:
                if p.poll() is not None:
                    raise FleetError("evs_node exited with %s" % p.returncode)
            sts = self.statuses()
            if pred(sts):
                return sts
            time.sleep(poll_s)
        raise FleetError("fleet not in the expected state after %ds (%s)"
                         % (timeout_s, getattr(pred, "__name__", "setup")))

    def coordinator(self):
        """The primary group's coordinator, as node 0 sees it."""
        return int(self.groups(self.status(0))[0][1]["view"].split("@p")[1].split(".")[0])

    def metrics(self):
        return [json.loads(http_call(self.admin[s], "GET", "/metrics")[0]) for s in range(3)]

    def merge_all(self, site):
        http_call(self.admin[site], "POST", "/merge-all",
                  headers={"X-Admin-Token": self.TOKEN})

    def rss_mb(self):
        total = 0.0
        for p in self.procs:
            with open("/proc/%d/status" % p.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def trace_events(self, site):
        events, since = [], 0
        while True:
            body, headers = http_call(self.admin[site], "GET", "/trace?since=%d" % since,
                                      timeout=5.0)
            nxt = int(headers.get("X-Evs-Next-Since", since))
            for line in body.decode().splitlines():
                if '"kind":"Request' in line:
                    events.append(json.loads(line))
            if nxt == since:
                return events
            since = nxt

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                try:
                    os.kill(p.pid, signal.SIGCONT)
                    p.send_signal(signal.SIGINT)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + 3
        for p in self.procs:
            try:
                p.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []


class FleetError(Exception):
    pass


# --- metrics helpers --------------------------------------------------------

GROUP_KEY = re.compile(r"^node\.g\d+\.(.+)$")


def csum(snaps, name):
    return sum(s["counters"].get(name, 0) for s in snaps)


def delta(before, after, name):
    return csum(after, name) - csum(before, name)


def gdelta(before, after, suffix):
    """Delta summed over nodes and over every hosted group's node.gN. slice."""
    total = 0
    for b, a in zip(before, after):
        for key, value in a["counters"].items():
            m = GROUP_KEY.match(key)
            if m and m.group(1) == suffix:
                total += value - b["counters"].get(key, 0)
    return total


def gmax(snaps, suffix):
    return max([v for s in snaps for k, v in s["counters"].items()
                if GROUP_KEY.match(k) and GROUP_KEY.match(k).group(1) == suffix] or [0])


def ghist(snap, suffix, field):
    """Count-weighted mean of one percentile over the node.gN. histograms."""
    hs = [h for k, h in snap.get("histograms", {}).items()
          if GROUP_KEY.match(k) and GROUP_KEY.match(k).group(1) == suffix
          and h.get("count")]
    n = sum(h["count"] for h in hs)
    return sum(h[field] * h["count"] for h in hs) / n if n else 0.0


def hfield(snap, name, field):
    return snap.get("histograms", {}).get(name, {}).get(field, 0)


def pct(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


# --- one run ----------------------------------------------------------------

def run(args):
    spec = WORKLOADS[args.workload]
    os.makedirs(RUNS, exist_ok=True)
    run_dir = os.path.join(RUNS, "%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    fleets = []
    ok = False
    spinners = keep_awake()
    try:
        result = measure(args, spec, run_dir, fleets)
        ok = result["correct"]
        return result
    finally:
        for proc in Loadgen.running + spinners:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for f in fleets:
            f.stop()
        if ok:
            shutil.rmtree(run_dir, ignore_errors=True)
        else:
            log("kept %s (node logs, configs, generator output)" % run_dir)


def loadgen_cmd(args, spec, fleet, coord, out_dir, paced_ms, closed_ms, sample,
                delayed_acks=False, closed_ops=0):
    cmd = [binary("vsb_loadgen"), "--ports", ",".join(map(str, fleet.svc)),
           "--seed", str(args.seed), "--conns", str(min(spec["conns"], os.cpu_count() or 1)),
           "--leader", str(coord), "--value-bytes", str(spec["value_bytes"]),
           "--keys", str(spec["keys"]), "--read-share", str(spec["read_share"]),
           "--paced-rate", str(spec["paced_rate"]), "--paced-ms", str(paced_ms),
           "--closed-window", str(spec["closed_window"]), "--closed-ms", str(closed_ms),
           "--closed-ops", str(closed_ops),
           "--sample-every", str(sample), "--out-dir", out_dir]
    if closed_ms <= 0:
        cmd.append("--paced-only")
    if spec["faults"]:
        cmd.append("--faults")
    if delayed_acks:
        cmd.append("--delayed-acks")
    if spec["kv"]:
        cmd.append("--kv")
    return cmd


class Loadgen:
    running = []  # every generator started, stopped when the run ends

    def __init__(self, cmd):
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, bufsize=1, preexec_fn=pin(3))
        Loadgen.running.append(self.proc)

    def expect(self, what):
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise FleetError("loadgen exited (%s) waiting for %r"
                                 % (self.proc.wait(), what))
            if line.strip() == what:
                return

    def say(self, word):
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def summary(self):
        last = None
        for line in self.proc.stdout:
            if line.startswith("{"):
                last = json.loads(line)
        rc = self.proc.wait()
        if rc != 0 or last is None:
            raise FleetError("loadgen failed with %s" % rc)
        return last


def fault_cycles(fleet, spec, budget_s):
    """SIGSTOP the coordinator, SIGCONT it, POST /merge-all once the merged
    view shows, wait for mode normal; repeat until the budget is spent.
    Returns one record of CLOCK_MONOTONIC µs stamps per cycle."""
    cycles = []
    end = time.monotonic() + budget_s
    while not cycles or time.monotonic() < end:
        victim = fleet.coordinator()
        epoch = fleet.groups(fleet.status(victim))[0][1]["view_epoch"]
        pid = fleet.procs[victim].pid
        t_stop = mono_us()
        os.kill(pid, signal.SIGSTOP)
        time.sleep(spec["stop_ms"] / 1000.0)
        t_cont = mono_us()
        os.kill(pid, signal.SIGCONT)
        fleet.wait(fleet.merged, 15, poll_s=0.002)
        t_post = mono_us()
        # The application's Reconcile: ask the merged view's coordinator for
        # the merge, and ask again while some member stays split.
        coord = fleet.coordinator()
        posts = 0
        while True:
            fleet.merge_all(coord)
            posts += 1
            try:
                fleet.wait(fleet.all_normal, 0.5, poll_s=0.002)
                break
            except FleetError:
                if mono_us() - t_post > 15e6:
                    raise
        t_normal = mono_us()
        cycles.append(dict(epoch=epoch, t_stop=t_stop, t_cont=t_cont,
                           t_post=t_post, t_normal=t_normal, posts=posts))
        time.sleep(0.3)
    return cycles


def fault_times(cycles, acks_path):
    acks = []
    with open(acks_path) as f:
        for line in f:
            recv, _node, epoch = line.split()
            acks.append((float(recv), int(epoch)))
    acks.sort()
    outages, heals, merges = [], [], []
    for c in cycles:
        # First write acknowledged in the survivors' view.
        first = next((r for r, e in acks if r >= c["t_stop"] and e > c["epoch"]), None)
        # First write acknowledged once every node is back in mode normal.
        healed = next((r for r, e in acks if r >= c["t_normal"]), None)
        if first is None or healed is None:
            raise FleetError("no acknowledged write after a fault cycle")
        outages.append((first - c["t_stop"]) / 1e3)
        heals.append((healed - c["t_cont"]) / 1e3)
        merges.append(max(0.0, (c["t_normal"] - c["t_post"]) / 1e3))
    return outages, heals, merges


def paced_only(args, spec, fleet, out_dir, paced_s, delayed_acks=False):
    """The paced phase alone on `fleet`: summary, the serving node's
    /metrics and the generator's output directory."""
    os.makedirs(out_dir)
    coord = fleet.coordinator()
    gen = Loadgen(loadgen_cmd(args, spec, fleet, coord, out_dir, paced_s * 1e3, 0, 0,
                              delayed_acks))
    gen.expect("phase setup done")
    gen.say("next")
    summary = gen.summary()
    return summary, fleet.metrics()[coord if not spec["kv"] else 0], out_dir


def front_door_gap(summary, snap):
    """Write p50 minus the serving node's admit, server and reply p50s: the
    part of the latency the front door does not account for."""
    return summary["write_p50_us"] - sum(
        hfield(snap, "svc." + h, "p50") for h in ("admit_us", "latency_us", "reply_us"))


def drive(args, spec, fleet, out_dir, first_s, closed_ops, closed_cap_s):
    """Runs the generator's phases on one fleet, scraping /metrics at each
    boundary, and running the fault cycles on a fault workload."""
    os.makedirs(out_dir)
    coord = fleet.coordinator()
    gen = Loadgen(loadgen_cmd(args, spec, fleet, coord, out_dir, first_s * 1e3,
                              closed_cap_s * 1e3, 10 if args.trace else 0,
                              closed_ops=closed_ops))
    gen.expect("phase setup done")
    snaps = [fleet.metrics()]
    gen.say("next")
    cycles = []
    if spec["faults"]:
        gen.expect("phase fault begin")
        cycles = fault_cycles(fleet, spec, first_s)
        gen.say("stop")
        gen.expect("phase fault done")
    else:
        gen.expect("phase paced done")
    snaps.append(fleet.metrics())
    spans = None
    if args.trace and not spec["faults"]:
        spans = {s: fleet.trace_events(s) for s in range(3)}
    # The closed loop sends to the coordinator, which fault cycles can move.
    gen.say("next %d" % fleet.coordinator())
    gen.expect("phase closed done")
    snaps.append(fleet.metrics())
    gen.say("next")
    summary = gen.summary()
    summary["rss_mb"] = fleet.rss_mb()
    log("fleet: %d views installed, %d suspicions, %d oversize drops, %d replica-unserved "
        "reads, %.1f ms replica catch-up" % (
            gdelta(snaps[0], snaps[2], "views_installed"),
            gdelta(snaps[0], snaps[2], "detector.suspicions"),
            delta(snaps[0], snaps[2], "transport.dropped_oversize"),
            summary["replica_unserved"], summary["catch_up_ms"]))
    return dict(summary=summary, snaps=snaps, spans=spans, cycles=cycles, coord=coord,
                out_dir=out_dir)


def latencies(out_dir):
    """The generator's first-phase latencies: {"w": writes, "r": reads}."""
    lat = {"w": [], "r": []}
    with open(os.path.join(out_dir, "latency.txt")) as f:
        for line in f:
            kind, us = line.split()
            lat[kind].append(float(us))
    return lat


def measure(args, spec, run_dir, fleets):
    first_s = args.seconds * spec["first"]
    delayed_s = args.seconds * DELAYED_SHARE
    closed_cap_s = 3 * (args.seconds - first_s)
    # An untraced run repeats the whole workload on every set-up fleet, an
    # equal part of it each: latencies are pooled over the fleets, memory is
    # their median and throughput their best, since a busy host only ever
    # slows a fleet down. Each fleet first serves a short paced phase to a
    # client that keeps its ACKs delayed (README, finding 1).
    spread = not args.trace
    setups, probes, driven, delayed = [], [], [], []
    for i in range(FLEETS):
        last = i == FLEETS - 1
        fleet = Fleet(spec, os.path.join(run_dir, "fleet%d" % i),
                      traced=bool(args.trace) and last)
        fleets.append(fleet)
        setups.append(fleet.start())
        if spread:
            delayed.append(paced_only(args, dict(spec, faults=False), fleet,
                                      os.path.join(run_dir, "delayed%d" % i),
                                      delayed_s / FLEETS, delayed_acks=True))
            driven.append(drive(args, spec, fleet, os.path.join(run_dir, "gen%d" % i),
                                first_s / FLEETS, spec["closed_ops"] // FLEETS,
                                closed_cap_s))
        elif last:
            driven.append(drive(args, spec, fleet, os.path.join(run_dir, "gen%d" % i),
                                first_s, spec["closed_ops"], closed_cap_s))
        elif args.trace and not spec["faults"] and i == 0:
            # The untraced baseline of the tracing overhead.
            probes.append(paced_only(args, spec, fleet, os.path.join(run_dir, "probe"),
                                     first_s))
        fleet.stop()

    runs = [d["summary"] for d in driven]
    checked = runs + [summary for summary, _, _ in delayed + probes]
    attempted = sum(r["paced"]["attempted"] + r["closed"]["attempted"] for r in checked)
    failed = sum(r["paced"]["failed"] + r["closed"]["failed"] + r["mismatches"]
                 + r["dup_positions"] for r in checked)
    mismatches = sum(r["mismatches"] for r in checked)
    dups = sum(r["dup_positions"] for r in checked)
    invalid = sum(r["paced"]["invalid"] + r["closed"]["invalid"] for r in checked)
    correct = mismatches == 0 and dups == 0 and invalid == 0
    main = driven[-1]

    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, nproc=os.cpu_count(), build_type=BUILD_TYPE,
                  commit=git_commit(), offered_rate=spec["paced_rate"],
                  read_share=spec["read_share"], window=spec["closed_window"],
                  closed_ops=spec["closed_ops"], shards=spec["shards"],
                  store=spec["store"], fleets=len(driven), cycles=len(main["cycles"]),
                  stop_ms=spec["stop_ms"] if spec["faults"] else 0,
                  setups_s=setups, generator=runs,
                  delayed_ack_generator=[summary for summary, _, _ in delayed])
    with open(os.path.join(RUNS, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    log("record " + json.dumps({k: v for k, v in record.items()
                                if not k.endswith("generator")}))

    if args.trace:
        metrics = layer_metrics(spec, main, probes, attempted, run_dir)
    else:
        lat = {"w": [], "r": []}
        for d in driven:
            for kind, values in latencies(d["out_dir"]).items():
                lat[kind] += values
        held = [us for _, _, out_dir in delayed
                for values in latencies(out_dir).values() for us in values]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "write_p50_us": (pct(lat["w"], 0.50), "us"),
            "read_p50_us": (pct(lat["r"], 0.50), "us"),
            "delayed_ack_p75_us": (pct(held, 0.75), "us"),
            "peak_ops_per_s": (max(r["closed_rate"] for r in runs), "1/s"),
            "node_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
            "ops_ok_ratio": (1.0 - failed / max(1, attempted), "ratio"),
        }
    if not correct:
        log("CORRECTNESS CHECK FAILED: %d read-back mismatches, %d duplicate positions, "
            "%d invalid reads" % (mismatches, dups, invalid))
    return dict(correct=correct, attempted=attempted, failed=failed,
                metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def request_spans(events, out_dir):
    """Per-layer self times of each traced write, on the blocking path.

    Client-side stamps (due, sent, received) come from the generator, on
    CLOCK_MONOTONIC; the serving node's Request* events give admitted,
    ordered, delivered, applied and replied on that node's loop clock. The
    loop clock's origin is estimated per node NTP-style, assuming the
    fastest request and the fastest reply of the run took equally long on
    the wire.
    Consecutive differences telescope, so each request's layers sum exactly
    to its latency."""
    hops = {}
    for site, evs in events.items():
        for e in evs:
            kind = e["kind"][len("Request"):]
            hops.setdefault((e["seq"], site), {}).setdefault(kind, e["t"])
    rows = []
    with open(os.path.join(out_dir, "traced.txt")) as f:
        for line in f:
            tid, write, due, sent, recv, node, status = line.split()
            h = hops.get((int(tid), int(node)), {})
            if write == "1" and status == "1" and all(
                    k in h for k in ("Admitted", "Ordered", "Delivered", "Applied",
                                     "Replied")):
                rows.append((float(due), float(sent), float(recv), int(node), h))
    origin = {}
    for node in {row[3] for row in rows}:
        mine = [row for row in rows if row[3] == node]
        origin[node] = (min(r - h["Replied"] for _, _, r, _, h in mine)
                        - min(h["Admitted"] - s for _, s, _, _, h in mine)) / 2
    layers = {k: [] for k in SPAN_LAYERS}
    gaps, totals = [], []
    for due, sent, recv, node, h in rows:
        marks = [due, sent] + [h[k] + origin[node] for k in
                               ("Admitted", "Ordered", "Delivered", "Applied",
                                "Replied")] + [recv]
        for name, a, b in zip(SPAN_LAYERS, marks, marks[1:]):
            layers[name].append(b - a)
        gaps.append((recv - sent) - (h["Replied"] - h["Admitted"]))
        totals.append(recv - due)
    return layers, gaps, totals


# Blocking path of one write, in order: each layer runs from the previous
# mark to the next (see request_spans).
SPAN_LAYERS = ["span.send_late_us_p50", "span.to_server_us_p50",
               "span.admit_to_order_us_p50", "span.order_to_deliver_us_p50",
               "span.deliver_to_apply_us_p50", "span.apply_to_reply_us_p50",
               "span.to_client_us_p50"]


def layer_metrics(spec, main, probes, attempted, run_dir):
    summary, spans, cycles, coord = main["summary"], main["spans"], main["cycles"], main["coord"]
    s0, s1, s2 = main["snaps"]
    faults = fault_times(cycles, os.path.join(main["out_dir"], "fault_acks.txt")) \
        if cycles else None
    writes = max(1, summary["writes_ok"])
    serving = coord if not spec["kv"] else 0
    m = {}
    # svc: the serving node's front-door histograms over the first phase.
    m["svc.admit_us_p50"] = (hfield(s1[serving], "svc.admit_us", "p50"), "us")
    m["svc.server_us_p50"] = (hfield(s1[serving], "svc.latency_us", "p50"), "us")
    m["svc.reply_us_p50"] = (hfield(s1[serving], "svc.reply_us", "p50"), "us")
    m["svc.shed_per_op"] = (delta(s0, s2, "svc.requests_shed") / max(1, attempted), "ratio")
    # app: the group objects' ordering, apply and fence histograms.
    m["app.order_us_p50"] = (ghist(s1[serving], "svc.order_us", "p50"), "us")
    m["app.order_us_p99"] = (ghist(s1[serving], "svc.order_us", "p99"), "us")
    m["app.apply_us_p50"] = (ghist(s1[serving], "svc.apply_us", "p50"), "us")
    m["app.fence_us_p99"] = (max(ghist(s, "svc.fence_us", "p99") for s in s1), "us")
    # log / correctness
    m["log.dup_positions"] = (summary["dup_positions"], "count")
    m["log.readback_mismatches"] = (summary["mismatches"], "count")
    m["log.replica_unserved"] = (summary["replica_unserved"], "count")
    m["log.replica_catchup_ms"] = (summary["catch_up_ms"], "ms")
    m["app.invalid_reads"] = (summary["paced"]["invalid"] + summary["closed"]["invalid"],
                              "count")
    # evs / vsync / gms / detector over the whole run (s0 -> s2)
    m["evs.eviews_delivered"] = (gdelta(s0, s2, "eviews_delivered"), "count")
    m["vsync.views_installed"] = (gdelta(s0, s2, "views_installed"), "count")
    m["vsync.stability_gc_per_write"] = (gdelta(s0, s2, "stability_gc_messages") / writes,
                                         "ratio")
    m["vsync.buffer_peak"] = (gmax(s2, "buffer_peak"), "count")
    m["detector.suspicions"] = (gdelta(s0, s2, "detector.suspicions"), "count")
    # net: the whole fleet's wire work per acknowledged write
    sends = delta(s0, s2, "transport.syscalls.sendmsg_calls")
    recvs = delta(s0, s2, "transport.syscalls.recvmsg_calls")
    dgrams = delta(s0, s2, "transport.datagrams_sent")
    m["net.syscalls_per_write"] = ((sends + recvs) / writes, "ratio")
    m["net.datagrams_per_write"] = (dgrams / writes, "ratio")
    m["net.frames_per_datagram"] = (delta(s0, s2, "transport.frames_sent") / max(1, dgrams),
                                    "ratio")
    m["net.bytes_sent_per_write"] = (delta(s0, s2, "transport.bytes_sent") / writes, "bytes")
    m["net.dropped_oversize"] = (delta(s0, s2, "transport.dropped_oversize"), "count")
    # store (zero on the volatile workloads)
    m["store.fsync_per_write"] = (delta(s0, s2, "store.fsync_calls") / writes, "ratio")
    m["store.wal_bytes_per_write"] = (delta(s0, s2, "store.wal_bytes") / writes, "bytes")
    m["store.sync_us_p50"] = (hfield(s2[serving], "store.sync_us", "p50"), "us")
    m["store.sync_us_p99"] = (hfield(s2[serving], "store.sync_us", "p99"), "us")
    m["store.batch_records_mean"] = (hfield(s2[serving], "store.batch_records", "mean"),
                                     "count")
    m["store.snapshots"] = (delta(s0, s2, "store.snapshots"), "count")
    # The client's tail over the first phase (not gated, README: the tail
    # follows the host).
    lat = latencies(main["out_dir"])
    for kind, name in (("w", "write"), ("r", "read")):
        for q in (95, 99):
            m["client.%s_p%d_us" % (name, q)] = (pct(lat[kind], q / 100), "us")
    # loadgen validity
    m["loadgen.late_us_p99"] = (summary["late_p99_us"], "us")
    m["loadgen.cpu_busy_share"] = (summary["cpu_busy_share"], "ratio")
    if cycles:
        # Fault cycles (partition_heal): the first phase, per cycle.
        n = len(cycles)
        outages, heals, merges = faults
        m["fault.cycles"] = (n, "count")
        m["fault.outage_ms"] = (statistics.median(outages), "ms")
        m["fault.heal_to_normal_ms"] = (statistics.median(heals), "ms")
        m["evs.merge_ms"] = (statistics.median(merges), "ms")
        m["evs.merge_posts_per_heal"] = (statistics.mean(c["posts"] for c in cycles), "count")
        m["app.state_bytes_per_heal"] = (gdelta(s0, s1, "snapshot_bytes") / n, "bytes")
        m["vsync.ack_bytes_per_heal"] = (gdelta(s0, s1, "ack_bytes") / n, "bytes")
        m["vsync.install_bytes_per_heal"] = (gdelta(s0, s1, "install_bytes") / n, "bytes")
    # request spans of the traced paced phase (fault-free workloads)
    if spans is not None:
        layers, gaps, totals = request_spans(spans, main["out_dir"])
    else:
        layers, gaps, totals = {k: [] for k in SPAN_LAYERS}, [], []
    for name in SPAN_LAYERS:
        m[name] = (pct(layers[name], 0.5), "us")
    m["span.requests"] = (len(totals), "count")
    m["span.client_us_p50"] = (pct(totals, 0.5), "us")
    m["span.residual_us"] = (pct(totals, 0.5) - sum(m[k][0] for k in SPAN_LAYERS)
                             if totals else 0, "us")
    m["svc.client_gap_us_p50"] = (pct(gaps, 0.5), "us")
    m["trace.overhead_us"] = (summary["write_p50_us"] - probes[0][0]["write_p50_us"]
                              if probes else 0, "us")
    m["svc.untraced_gap_us"] = (front_door_gap(*probes[0][:2]) if probes else 0, "us")
    # in-process layer replay on the workload's request shape
    replay_dir = os.path.join(run_dir, "replay")
    os.makedirs(replay_dir)
    out = subprocess.check_output(
        [binary("vsb_replay"), "--dir", os.path.join(replay_dir, "wal"),
         "--value-bytes", str(spec["value_bytes"]),
         "--records", str(max(1, summary["writes_ok"] // max(1, spec["shards"])))],
        text=True, timeout=60, cwd=replay_dir)
    for name, value in json.loads(out.strip().splitlines()[-1]).items():
        m[name] = (value, "ns")
    return m


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.check_output(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                       text=True, stderr=subprocess.DEVNULL).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to vsbench/ (expected src/)")

    def on_alarm(_signum, _frame):
        raise FleetError("run exceeded %ds" % RUN_DEADLINE_S)
    signal.signal(signal.SIGALRM, on_alarm)
    # The first run in a checkout builds; the deadline covers measuring only.
    build()
    signal.alarm(RUN_DEADLINE_S)
    try:
        result = run(args)
    except FleetError as e:
        fail("run failed: %s" % e, 1)
    signal.alarm(0)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
