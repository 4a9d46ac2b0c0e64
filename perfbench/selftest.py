#!/usr/bin/env python3
"""Self-test of the benchmark at a small size (about half a minute).

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks, on every workload at --size small:
  * two untraced runs with the same seed give identical simulated
    metrics, allocation per op and space (host timings may differ);
  * two traced runs with the same seed give identical counter-derived
    per-layer metrics;
  * a second seed stays within each end-to-end metric's bound, for the
    metrics that do not time the host;
  * the oracle reports no failed op and every run exits 0;
  * each layer does its work where the catalogue says it does: pool
    misses on scan-cold and none on lookup-cached, WAL, snapshot and
    replica work only on update-durable;
and that the printed metric names and units are those of
BENCHMARK.json, and perfbench/catalogue.json is what `main.exe
catalogue` prints.  Exits 1 on the first failed check.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "10"
HOST_TIMED = ("host_ops_per_s", "setup_s", "host_peak_heap_mb")


def host_derived(name):
    return ("host_ns" in name or name.startswith(("gc.", "host."))
            or name == "trace.overhead_share")


def bench(workload, seed, trace):
    out = run.run(["--workload", workload, "--seed", str(seed),
                   "--seconds", SECONDS, "--trace", str(trace),
                   "--size", "small"], capture_output=True, text=True)
    if out.returncode != 0:
        fail("%s seed %d trace %d exited %d:\n%s%s" % (
            workload, seed, trace, out.returncode, out.stdout, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        fail("%s seed %d trace %d: oracle reports %d failed ops" % (
            workload, seed, trace, result["failed"]))
    return {k: v["value"] for k, v in result["metrics"].items()}, result


def fail(msg):
    print("FAIL " + msg)
    sys.exit(1)


def ok(msg):
    print("ok   " + msg)


def main():
    if run.build() != 0:
        fail("build")
    spec = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    out = run.run(["catalogue"], capture_output=True, text=True)
    with open(os.path.join(run.ROOT, "perfbench", "catalogue.json")) as f:
        if out.stdout != f.read():
            fail("perfbench/catalogue.json is stale: regenerate it with "
                 "`main.exe catalogue`")
    ok("catalogue.json matches `main.exe catalogue`")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layers = {}
    for w in [w["name"] for w in spec["workloads"]]:
        a, ra = bench(w, 1, 0)
        b, _ = bench(w, 1, 0)
        c, _ = bench(w, 2, 0)
        units = {k: v["unit"] for k, v in ra["metrics"].items()}
        if units != {m["name"]: m["unit"] for m in spec["end_to_end"]}:
            fail("%s: end-to-end names/units differ from BENCHMARK.json" % w)
        same = [k for k in a if k not in HOST_TIMED]
        diff = [k for k in same if a[k] != b[k]]
        if diff:
            fail("%s: same seed, different %s" % (w, diff))
        ok("%s: same seed reproduces %s" % (w, ", ".join(same)))
        for k in same:
            if abs(c[k] - a[k]) > bounds[k] * abs(a[k]):
                fail("%s: seed 2 moves %s from %g to %g, past its bound %g"
                     % (w, k, a[k], c[k], bounds[k]))
        ok("%s: seed 2 stays within the bounds" % w)
        ta, rta = bench(w, 1, 1)
        tb, _ = bench(w, 1, 1)
        units = {k: v["unit"] for k, v in rta["metrics"].items()}
        if units != {m["name"]: m["unit"] for m in spec["per_layer"]}:
            fail("%s: per-layer names/units differ from BENCHMARK.json" % w)
        diff = [k for k in ta if not host_derived(k) and ta[k] != tb[k]]
        if diff:
            fail("%s: same seed, different per-layer %s" % (w, diff))
        ok("%s: same seed reproduces every counter-derived layer metric" % w)
        layers[w] = ta
    lc, sc, ud = (layers["lookup-cached"], layers["scan-cold"],
                  layers["update-durable"])
    if not (lc["storage.pool_misses_per_op"] == 0
            and sc["storage.pool_misses_per_op"] > 0.1):
        fail("pool misses: lookup-cached %g, scan-cold %g" % (
            lc["storage.pool_misses_per_op"], sc["storage.pool_misses_per_op"]))
    ok("pool misses: none on lookup-cached, %.3g per op on scan-cold"
       % sc["storage.pool_misses_per_op"])
    for layer, probe in [("wal", "wal.flushes_per_commit"),
                         ("snapshot", "snapshot.checkpoints"),
                         ("replica", "replica.net_bytes_per_commit")]:
        for w, m in layers.items():
            nonzero = [k for k, v in m.items()
                       if k.startswith(layer + ".") and v != 0]
            if w != "update-durable" and nonzero:
                fail("%s: %s works on %s" % (layer, nonzero, w))
        if ud[probe] == 0:
            fail("%s: %s is 0 on update-durable" % (layer, probe))
        ok("%s: works on update-durable only" % layer)
    print("selftest passed")


if __name__ == "__main__":
    main()
