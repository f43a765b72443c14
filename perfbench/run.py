#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload knn_search --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (the model library through the repository's
own CMakeLists.txt, plus the rfbench program) into $CARGO_TARGET_DIR or
.bench_build, then runs rfbench and prints its output. The last line is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
Before printing it, the metric names are checked against BENCHMARK.json.
--workload all runs the three workloads in turn, one result line each.

The traced run writes its host spans as a Chrome trace (open it in
Perfetto) to <build dir>/perfbench/traces/<workload>-seed<N>.json.
See perfbench/README.md for the workloads and the metric table.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("frame_chip", "knn_search", "stream_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def commit():
    """HEAD of the checkout, read from .git without leaving it."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the model sources are missing; run from a full checkout")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "rfbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT, env=env).returncode
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s); log in %s" % (" ".join(cmd),
                                                      log_path))
    return os.path.join(out, "rfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, out, workload, args):
    """Run one workload; print its output once its metrics check out."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("rfbench ran past %d s" % RUN_TIMEOUT_S, 5)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("rfbench exited with %d" % proc.returncode, proc.returncode)

    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(result["metrics"])),
            sorted(set(result["metrics"]) - set(want))), 4)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(binary, out, workload, args)


if __name__ == "__main__":
    main()
