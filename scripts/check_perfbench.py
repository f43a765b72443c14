#!/usr/bin/env python3
"""Check the output of `perfbench/run.py --workload all --seed N`.

The output must hold exactly one JSON result line per workload (three),
and every result must report "correct": true and "failed": 0. run.py
itself exits non-zero on a build failure or a NONDETERMINISM verdict
(exit 3); this check catches a run that finished but checked wrong or
missing outputs.

Each workload's output digest, and in an untraced run its four modeled
metrics, must also equal bench/baselines/perfbench_seed<N>.json for the
run's seed N exactly: they are simulated, so they do not depend on the
host or on --seconds. Seeds 1 and 7919 (held out) are committed; a run
at a seed with no committed baseline fails. To re-baseline, write the
run's values into the seed's file and say why in CHANGES.md.

Usage:
    check_perfbench.py OUTPUT.txt

Exit status: 0 when the output passes, 1 otherwise.
"""
import json
import os
import re
import sys

WORKLOADS = 3
MODELED = ("items_per_kcycle", "energy_nj_per_item",
           "p50_job_latency_kcycles", "p95_job_latency_kcycles")
BASELINES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "bench", "baselines")


def modeled(lines):
    """{workload: {key: value}} of the keys a run pins, and its seeds."""
    got, seeds, workload, traced = {}, set(), None, False
    for line in lines:
        header = re.match(r"# (\w+) seed=(\d+)( traced)?:", line)
        digest = re.search(r"digest +([0-9a-f]{16})\b", line)
        if header:
            workload, traced = header.group(1), bool(header.group(3))
            seeds.add(int(header.group(2)))
            pinned = ("output_digest",) + (() if traced else MODELED)
            got[workload] = dict.fromkeys(pinned)
        if digest and workload:
            got[workload]["output_digest"] = digest.group(1)
        if line.startswith("{") and workload and not traced:
            metrics = json.loads(line)["metrics"]
            for name in MODELED:
                got[workload][name] = metrics[name]["value"]
    return got, seeds


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    with open(sys.argv[1]) as f:
        lines = f.readlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    bad = [r for r in results
           if r.get("correct") is not True or r.get("failed") != 0]
    if len(results) != WORKLOADS or bad:
        print("perfbench: %d result lines (want %d), %d bad"
              % (len(results), WORKLOADS, len(bad)), file=sys.stderr)
        return 1

    got, seeds = modeled(lines)
    if len(seeds) != 1:
        print("perfbench: seeds %s; one run holds one seed"
              % sorted(seeds), file=sys.stderr)
        return 1
    baseline = os.path.normpath(os.path.join(
        BASELINES, "perfbench_seed%d.json" % seeds.pop()))
    if not os.path.exists(baseline):
        print("perfbench: no baseline %s is committed for this seed"
              % baseline, file=sys.stderr)
        return 1
    with open(baseline) as f:
        want = json.load(f)
    diffs = ["%s %s: baseline %r, this run %r"
             % (w, k, want.get(w, {}).get(k), v)
             for w, pinned in sorted(got.items())
             for k, v in sorted(pinned.items())
             if want.get(w, {}).get(k) != v]
    if sorted(got) != sorted(want):
        diffs.append("workloads: baseline %s, this run %s"
                     % (sorted(want), sorted(got)))
    if diffs:
        print("perfbench: modeled output differs from %s:\n  %s"
              % (baseline, "\n  ".join(diffs)),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
