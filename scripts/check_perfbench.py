#!/usr/bin/env python3
"""Check the output of `perfbench/run.py --workload all`.

The output must hold exactly one JSON result line per workload (three),
and every result must report "correct": true and "failed": 0. run.py
itself exits non-zero on a build failure or a NONDETERMINISM verdict
(exit 3); this check catches a run that finished but checked wrong or
missing outputs.

Usage:
    check_perfbench.py OUTPUT.txt

Exit status: 0 when the output passes, 1 otherwise.
"""
import json
import sys

WORKLOADS = 3


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    with open(sys.argv[1]) as f:
        results = [json.loads(line) for line in f if line.startswith("{")]
    bad = [r for r in results
           if r.get("correct") is not True or r.get("failed") != 0]
    if len(results) != WORKLOADS or bad:
        print("perfbench: %d result lines (want %d), %d bad"
              % (len(results), WORKLOADS, len(bad)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
