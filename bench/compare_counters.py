#!/usr/bin/env python3
"""Checks that a fresh Google Benchmark JSON run reproduces a committed one.

    compare_counters.py COMMITTED.json FRESH.json

Both runs must list the same rows, and every field of every row except the
wall-clock timings (real_time, cpu_time) must be equal, bit for bit. Meant
for simulated benches whose counters are deterministic, e.g.

    ./build/bench/substrate_multicast --benchmark_format=json > fresh.json
    bench/compare_counters.py BENCH_substrate_multicast.json fresh.json

Prints each difference and exits 1 if there is any.
"""
import json
import sys

TIMINGS = {"real_time", "cpu_time"}


def rows(path):
    with open(path) as f:
        return {row["name"]: row for row in json.load(f)["benchmarks"]}


def main(committed_path, fresh_path):
    committed = rows(committed_path)
    fresh = rows(fresh_path)
    errors = []
    for name in sorted(committed.keys() - fresh.keys()):
        errors.append(f"{name}: missing from the fresh run")
    for name in sorted(fresh.keys() - committed.keys()):
        errors.append(f"{name}: not in the committed run")
    for name in sorted(committed.keys() & fresh.keys()):
        want, got = committed[name], fresh[name]
        for field in sorted((want.keys() | got.keys()) - TIMINGS):
            if want.get(field) != got.get(field):
                errors.append(f"{name}: {field} committed {want.get(field)!r}"
                              f" fresh {got.get(field)!r}")
    for error in errors:
        print(error)
    if errors:
        return 1
    print(f"ok: {len(committed)} rows reproduce {committed_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
