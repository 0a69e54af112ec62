#!/usr/bin/env python3
"""Build and run the serving benchmark (servebench.exe) from a source tree.

    python3 servebench/run.py --workload read-hot --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --self-test

Run from the root of the source tree.  The benchmark is built with dune
first; the last line of standard output is the result object.  Exits
non-zero, without a result, when the tree cannot be built.

One run is split into PARTS consecutive processes of seconds/PARTS each,
placed in turn on the CPUs this process may use.  Every part replays the
same seeded workload, so the parts must print identical deterministic
counter blocks (a mismatch fails the correctness gate); each reported
metric is the median over the parts.  Splitting averages out what one
process cannot: which core it ran on and the state of the machine while
it ran.

--self-test runs every workload twice with one seed in each mode and
checks that both runs print identical deterministic counter blocks and
pass the correctness gate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "servebench", "servebench.exe")
WORKLOADS = ["read-hot", "write-mix", "cold-view"]
PARTS = 4
PART_TIMEOUT_S = 40


def fail(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no source tree to build here (missing %s)" % needed)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "servebench/servebench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def part(workload, seed, seconds, trace, cpu=None):
    """One servebench.exe process; returns (exit code, stdout lines)."""
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        r = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=PART_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        fail("a part exceeded %d s" % PART_TIMEOUT_S)
    return r.returncode, r.stdout.splitlines()


def counters(lines):
    return next((l for l in lines if l.startswith("counters ")), None)


def run(workload, seed, seconds, trace):
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = [None]
    per_part = max(1, round(seconds / PARTS))
    results, blocks = [], []
    for i in range(PARTS):
        code, lines = part(workload, seed, per_part, trace, cpus[i % len(cpus)])
        for l in lines[:-1]:
            print("part %d: %s" % (i + 1, l))
        try:
            results.append(json.loads(lines[-1]))
        except (IndexError, ValueError):
            fail("part %d exited %d without a result" % (i + 1, code))
        blocks.append(counters(lines))
    deterministic = blocks[0] is not None and all(b == blocks[0] for b in blocks)
    if not deterministic:
        print("servebench: parts disagree on the deterministic counters",
              file=sys.stderr)
    names = list(results[0]["metrics"])
    metrics = {
        n: {"value": statistics.median(r["metrics"][n]["value"] for r in results),
            "unit": results[0]["metrics"][n]["unit"]}
        for n in names}
    out = {"correct": deterministic and all(r["correct"] for r in results),
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "metrics": metrics}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def self_test():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            outs = [part(workload, 7, 1, trace) for _ in range(2)]
            blocks = [counters(lines) for _, lines in outs]
            good = (all(code == 0 for code, _ in outs)
                    and blocks[0] is not None and blocks[0] == blocks[1])
            print("%-10s trace=%d %s" % (workload, trace,
                                         "ok" if good else "FAILED"))
            if not good:
                ok = False
                for b in blocks:
                    print("  " + str(b))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        sys.exit(self_test())
    if a.workload is None:
        fail("--workload is required")
    sys.exit(run(a.workload, a.seed, a.seconds, a.trace))


if __name__ == "__main__":
    main()
