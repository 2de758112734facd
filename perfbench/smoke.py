#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size.

    python3 perfbench/smoke.py

Runs every workload once end to end (--trace 0) and once traced
(--trace 1) at --tiny size, and checks that:
  - each run exits 0 with a correct result and no failed operation;
  - every metric BENCHMARK.json names is emitted, finite, with its unit;
  - the bypass predictions hold as exact zeros: no wire, codec, shim,
    WAL or snapshot activity on live-*, no WAL or snapshot activity on
    cluster-closed, no parked-mailbox wake on cluster-*; and the
    exercised layers are non-zero;
  - the traced spans of the Chrome trace nest: every span lies inside
    one transaction span, and every self time is >= 0.
Exit 0 when all hold. Takes about 15 seconds once built.
"""

import json
import math
import os
import subprocess
import sys

WORKLOADS = ["live-closed", "live-open", "cluster-closed", "cluster-durable"]
TRACE_DIR = ".perfbench"
EPS_US = 0.002  # the trace prints times in µs with three decimals

problems = []


def check(cond, msg):
    if not cond:
        problems.append(msg)
        print(f"FAIL: {msg}", file=sys.stderr)


def run(workload, trace, units):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    tag = f"{workload} --trace {trace}"
    check(r.returncode == 0, f"{tag}: exit {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        check(False, f"{tag}: no result line")
        return {}
    res = json.loads(lines[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys {sorted(res)}")
    check(res.get("correct") is True, f"{tag}: not correct")
    check(res.get("failed") == 0, f"{tag}: {res.get('failed')} failed")
    check(isinstance(res.get("attempted"), int) and res["attempted"] >= 1, f"{tag}: attempted {res.get('attempted')}")
    metrics = res.get("metrics", {})
    check(set(metrics) == set(units), f"{tag}: metric names differ: {sorted(set(metrics) ^ set(units))}")
    values = {}
    for name, m in metrics.items():
        v = m.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v), f"{tag}: {name} = {v!r}")
        check(m.get("unit") == units.get(name), f"{tag}: {name} unit {m.get('unit')!r}")
        values[name] = v
    return values


def check_bypass(workload, v):
    def zero(prefixes):
        for name, x in v.items():
            if name.startswith(prefixes):
                check(x == 0, f"{workload}: bypassed {name} = {x}, expected exactly 0")

    if workload.startswith("live-"):
        zero(("wire.", "codec.", "shim.", "wal.", "walcodec.", "snapshot."))
        check(v.get("mailbox.push_drain_calls", 0) > 0, f"{workload}: no mailbox hops")
    if workload == "cluster-closed":
        zero(("wal.", "walcodec.", "snapshot."))
    if workload.startswith("cluster-"):
        zero(("mailbox.wake_calls",))
        check(v.get("mailbox.push_drain_calls", 0) > 0, f"{workload}: no shim or core-inbox hops")
        check(v.get("wire.frames_per_txn", 0) > 0, f"{workload}: no frames counted")
        check(v.get("codec.encode_calls", 0) > 0, f"{workload}: no codec calls")
    if workload == "cluster-durable":
        check(v.get("wal.appends_per_txn", 0) > 0, f"{workload}: no WAL appends counted")
        check(v.get("wal.append_calls", 0) > 0, f"{workload}: no WAL appends traced")


def check_spans(workload):
    path = os.path.join(TRACE_DIR, f"trace-{workload}.json")
    events = [e for e in json.load(open(path))["traceEvents"] if e.get("ph") == "X"]
    check(len(events) > 0, f"{workload}: empty trace")
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    stack = []  # [end, children_us, event]
    negative = 0
    orphans = 0

    def close(frame):
        nonlocal negative
        if frame[2]["dur"] - frame[1] < -EPS_US:
            negative += 1

    for e in events:
        end = e["ts"] + e["dur"]
        # Spans on the one track run one after another: whatever ended
        # by the time this one starts is not its parent.
        while stack and stack[-1][0] <= e["ts"] + 1e-6:
            close(stack.pop())
        if stack:
            parent = stack[-1]
            check(end <= parent[0] + EPS_US, f"{workload}: span {e['name']} overlaps its parent {parent[2]['name']}")
            parent[1] += e["dur"]
            if stack[0][2]["name"] != "txn":
                orphans += 1
        elif e["name"] != "txn":
            orphans += 1
        stack.append([end, 0.0, e])
    while stack:
        close(stack.pop())
    check(negative == 0, f"{workload}: {negative} spans with negative self time")
    check(orphans == 0, f"{workload}: {orphans} spans outside any txn span")


def main():
    bench = json.load(open("BENCHMARK.json"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in WORKLOADS:
        run(w, 0, e2e)
        check_bypass(w, run(w, 1, layer))
        check_spans(w)
        print(f"{w}: checked", file=sys.stderr)
    if problems:
        print(f"{len(problems)} problem(s)", file=sys.stderr)
        sys.exit(1)
    print("smoke: ok")


if __name__ == "__main__":
    main()
