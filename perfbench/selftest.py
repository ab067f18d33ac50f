#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Runs all three workloads end to end through run.py, untraced and traced,
at toy sizes. Each run must pass its output checks and print a result
line whose schema and metric names match BENCHMARK.json, and a report
with the figures each workload promises. It also checks that run.py
fails, without printing a result, in a directory that holds only
BENCHMARK.json and perfbench/. Exits non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]

# Figures printed in the report section (not gated) per workload.
REPORT = {
    "cold_solve": ["cost_ratio.max", "center_blowup.max", "solve_s.max", "fail_share"],
    "serve_read": ["read_ms.p50", "read_ms.p99", "slo_qps", "fail_share", "gen_late_ms.p99.ref", "backlog_end.ref",
                   "shed.q200"],
    "serve_mixed": ["read_ms.p50", "read_ms.p99", "write_ms.p50", "write_ms.p99", "resolve_ms.p50", "fail_share",
                    "gen_late_ms.max.mixed", "backlog_end.mixed"],
}


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def check_run(spec, workload, trace):
    args = ["--workload", workload, "--seed", "5", "--seconds", "2", "--trace", str(trace), "--toy"]
    p = subprocess.run(RUN + args, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        fail(f"{workload} trace={trace} exited {p.returncode}:\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
    lines = p.stdout.rstrip("\n").split("\n")
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        fail(f"{workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics {sorted(got.items())} != {sorted(want.items())}")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail(f"{workload}: metric {k} = {v['value']!r}")
        if not trace and v["value"] <= 0:
            fail(f"{workload}: end-to-end metric {k} is not positive")
    text = "\n".join(lines[:-1])
    if not lines[0].startswith("host: nproc="):
        fail(f"{workload}: no host line")
    if not trace:
        for name in REPORT[workload]:
            if f"  {name} " not in text:
                fail(f"{workload}: report lacks {name}")
    elif "self time per span" not in text:
        fail(f"{workload}: traced run printed no self-time table")
    print(f"selftest: ok {workload} trace={trace} attempted={res['attempted']}")


def check_bare_directory():
    bare = os.path.join(".perfbench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    p = subprocess.run(RUN + ["--workload", "cold_solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or '"correct"' in p.stdout:
        fail("run.py succeeded or printed a result outside a full checkout")
    print(f"selftest: ok bare directory refused (exit {p.returncode})")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare_directory()
    print("selftest: all ok")


if __name__ == "__main__":
    main()
