#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 20 --trace 0

It builds the workload runner (perfbench/bench.exe) and the csokitd daemon from
source with dune, runs one workload under a hard timeout, kills every
process the run started, checks the result line against BENCHMARK.json
and prints it as the last line of stdout. Exit code 0 means the run
measured what it should and every output check passed.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("cold_solve", "serve_read", "serve_mixed")
BUILD_TIMEOUT_S = 850
# The one hard timeout of a run: past it the run's whole process group,
# daemons included, is killed and the run fails.
RUN_TIMEOUT_S = 165
WORKDIR = ".perfbench_run"
BENCH_EXE = "_build/default/perfbench/bench.exe"
DAEMON_EXE = "_build/default/bin/csokitd.exe"


def die(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when the checkout is a git clone, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for d, subdirs, files in sorted(os.walk(top)):
            subdirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    dune = find_dune()
    if dune is None:
        die("dune not found on PATH", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune + ["build", "--root", ".", "./perfbench/bench.exe", "./bin/csokitd.exe"]
    try:
        out = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"build did not finish in {BUILD_TIMEOUT_S} s", 2)
    if out.returncode != 0:
        die("build failed", 2)


def become_subreaper():
    """Orphaned grandchildren (a daemon whose runner died) get re-parented
    to this process, so they can be reaped below."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1 or not isinstance(res["failed"], int):
        return "attempted/failed are not counts"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if want is not None and got != want:
        return f"metric names/units differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            return f"metric {k} has no numeric value"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy sizes (self-test)")
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin/csokitd.ml", "perfbench/bench.ml"):
        if not os.path.exists(need):
            die(f"{need} not found: run from the root of a full source checkout", 2)

    build()
    os.makedirs(WORKDIR, exist_ok=True)
    become_subreaper()
    cmd = [
        BENCH_EXE, args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", DAEMON_EXE,
        "--workdir", WORKDIR,
        "--commit", source_id(),
    ] + (["--toy"] if args.toy else [])
    t0 = time.time()
    # A SIGTERM to this process still kills the run's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap(proc.pid)
        die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 3)
    finally:
        reap(proc.pid)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    print(f"wall: {time.time() - t0:.1f} s", flush=True)
    problem = check_result(lines[-1], args.trace)
    if problem:
        die(f"{args.workload}: {problem} (exit code {proc.returncode})", 1)
    print(lines[-1], flush=True)
    sys.exit(0 if proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
