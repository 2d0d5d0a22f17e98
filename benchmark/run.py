#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload tables|check|serve --seed N \
        --seconds S --trace 0|1 [--tiny] [--corrupt]

Run from the repository root.  Builds bin/ischedc.exe (the daemon the
serve workload spawns) and benchmark/perfbench.exe with dune, then runs
the benchmark; its last stdout line is the JSON result.  The exit code is
nonzero when the build fails, an output is wrong, or the run exceeds its
time limit.  See benchmark/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = "_build/default/benchmark/perfbench.exe"
ISCHEDC = "_build/default/bin/ischedc.exe"


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def stop_group(proc):
    """SIGTERM the benchmark's process group (it and the daemon it
    spawned), SIGKILL what is left after 5 s, and wait until the group is
    gone."""
    try:
        os.killpg(proc.pid, signal.SIGTERM)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while True:
        proc.poll()
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["tables", "check", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true", help="small inputs (self-tests)")
    ap.add_argument("--corrupt", action="store_true", help="plant one wrong answer (self-tests)")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of an isched checkout" % needed)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./" + EXE[len("_build/default/"):],
             "./" + ISCHEDC[len("_build/default/"):]],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode, build.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--ischedc", ISCHEDC]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    # serve runs the client and the daemon it spawns on one vCPU: the
    # closed loop alternates strictly between them, and a same-CPU
    # hand-off avoids the cross-vCPU wake-up (README.md).
    pin = None
    if args.workload == "serve" and hasattr(os, "sched_setaffinity"):
        pin = {min(os.sched_getaffinity(0))}
    proc = subprocess.Popen(
        cmd, start_new_session=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, pin)) if pin else None)

    def on_signal(signum, _frame):
        stop_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 124)
    # A benchmark killed outright cannot stop its daemon itself.
    stop_group(proc)
    sys.exit(code)


if __name__ == "__main__":
    main()
