#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 benchmark/tests/selftest.py        (from the repository root)

For every workload, on tiny inputs:
  * an untraced run exits 0 and prints every end-to-end metric of
    BENCHMARK.json, with its unit, in a correct result line;
  * a traced run does the same for every per-layer metric;
  * a run with one planted wrong answer (--corrupt: a flipped verdict, an
    altered pinned total, an altered served reply) reports it as failed
    operations and exits nonzero.
Then the benchmark must refuse to run, without a result line, in a
directory that holds only BENCHMARK.json and the benchmark itself.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(args, cwd=ROOT):
    p = subprocess.run([sys.executable, "benchmark/run.py"] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=400)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p, result


def expect(cond, what, p=None):
    if not cond:
        print("FAIL: " + what)
        if p is not None:
            print(p.stdout[-3000:])
            print(p.stderr[-3000:])
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "7", "--seconds", "1", "--tiny"]
        for trace, want in (("0", e2e), ("1", layers)):
            p, r = run(base + ["--trace", trace])
            what = "%s --trace %s" % (name, trace)
            expect(p.returncode == 0, what + " exits 0", p)
            expect(r is not None and r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   what + " prints a correct result line", p)
            expect(sorted(r["metrics"]) == sorted(want), what + " prints exactly the named metrics", p)
            for k, unit in want.items():
                expect(r["metrics"][k]["unit"] == unit, "%s: %s has unit %s" % (what, k, unit), p)
            print("ok   %s" % what)
        p, r = run(base + ["--trace", "0", "--corrupt"])
        expect(p.returncode != 0, name + " --corrupt exits nonzero", p)
        expect(r is not None and not r["correct"] and r["failed"] > 0,
               name + " --corrupt reports failed operations (error_rate > 0)", p)
        print("ok   %s --corrupt fails with %d of %d operations wrong" % (name, r["failed"], r["attempted"]))
    out = os.path.join(ROOT, "benchmark", "out")
    os.makedirs(out, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for d in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, d), os.path.join(bare, d),
                            ignore=shutil.ignore_patterns("out"))
        p, r = run(["--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        expect(p.returncode != 0 and r is None, "a bare directory is refused without a result", p)
        print("ok   bare directory refused (exit %d)" % p.returncode)
    finally:
        shutil.rmtree(bare)
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
