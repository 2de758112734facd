#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload live-closed --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout. It builds
perfbench/perfbench.exe and bin/meerkat_node.exe with dune, then makes
one run of perfbench.exe; the last line of stdout is the result JSON
(see perfbench/README.md). Scratch files -- cluster data directories,
Chrome traces, run records -- go to .perfbench/ in the checkout.

Exit status: 0 on a correct run, 1 when a correctness check failed
(the result JSON is still printed), 2 when no run could be made.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["live-closed", "live-open", "cluster-closed", "cluster-durable"]
BENCH_EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
NODE_EXE = os.path.join("_build", "default", "bin", "meerkat_node.exe")
WORK_DIR = ".perfbench"
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (dune-project and lib/ missing)")
    try:
        # dune's own output goes to stderr: stdout carries only the result.
        # Its shared cache lives outside the checkout, so it stays off.
        r = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/perfbench.exe", "bin/meerkat_node.exe"],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed (dune exit {r.returncode})")


def source_commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        return r.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def reap_group(pgid):
    """SIGKILL whatever is left of the run's process group (node
    processes orphaned by a crash) and wait until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test size (perfbench/smoke.py)")
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    cmd = [
        BENCH_EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--node-exe", NODE_EXE,
        "--work-dir", WORK_DIR,
        "--commit", source_commit(),
    ] + (["--tiny"] if args.tiny else [])
    # Own process group, so a timeout or crash can take the forked
    # nodes down with the benchmark.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        reap_group(proc.pid)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
