#!/usr/bin/env python3
"""Run a bench and compare its output byte-for-byte with its committed table.

Usage: check_baseline.py NAME COMMAND [ARG ...]

The run's canonical output is written to baselines/NAME under the working
directory (ctest runs in the build tree) and compared with
bench/baselines/NAME in the source tree. NAME's suffix says what it is:

  .txt       the command's stdout;
  .json      the file the command writes to the path appended to it;
  .counters  a Google-benchmark run (--benchmark_format=json appended),
             one `name counter repr(value)` line per row and counter,
             without gbench's own time, iteration and rate fields.

A missing, extra or different row fails the check, which prints the first.
To re-baseline, copy baselines/NAME over bench/baselines/NAME and say why
in CHANGES.md.
"""
import itertools
import json
import pathlib
import subprocess
import sys

GBENCH_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "items_per_second",
    "bytes_per_second", "label",
}


def show(row):
    return "(no such row)" if row is None else repr(row.decode())


def main():
    name, cmd = sys.argv[1], sys.argv[2:]
    out = pathlib.Path("baselines", name)
    out.parent.mkdir(exist_ok=True)
    if name.endswith(".json"):
        subprocess.run(cmd + [str(out)], check=True,
                       stdout=subprocess.DEVNULL)
    elif name.endswith(".counters"):
        run = subprocess.run(cmd + ["--benchmark_format=json"], check=True,
                             stdout=subprocess.PIPE, text=True)
        out.write_text("".join(
            "%s %s %r\n" % (row["name"], key, value)
            for row in json.loads(run.stdout)["benchmarks"]
            for key, value in row.items() if key not in GBENCH_FIELDS))
    else:
        out.write_bytes(subprocess.run(cmd, check=True,
                                       stdout=subprocess.PIPE).stdout)

    table = pathlib.Path(__file__).resolve().parents[1] / "bench/baselines"
    want = table / name
    if not want.exists():
        print("%s: no committed table; the run wrote %s"
              % (want, out.resolve()))
        return 1
    rows = itertools.zip_longest(want.read_bytes().splitlines(True),
                                 out.read_bytes().splitlines(True))
    for line, (old, new) in enumerate(rows, 1):
        if old != new:
            print("%s:%d differs from %s\n  committed: %s\n  this run:  %s"
                  % (want, line, out.resolve(), show(old), show(new)))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
