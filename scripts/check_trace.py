#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file emitted by obs::writeChromeTrace.

Used by CI on the render_scene [trace] smoke run, and handy locally
before loading a trace into Perfetto: a malformed trace often still
loads (viewers are lenient), silently dropping events — this script
fails loudly instead.

Checks, in order:

  1. the file parses as JSON and is the object form of the trace-event
     format: {"traceEvents": [...]};
  2. every event carries the keys its phase requires (name/ph/pid/tid
     always; ts for everything but metadata; args for counter and
     metadata events);
  3. per (pid, tid) track, timestamps are non-decreasing in file order
     for non-metadata events — the exporter sorts by (pid, tid, ts,
     seq), so any inversion means a broken emitter or a corrupted file;
  4. B/E duration slices balance per track: every E closes the most
     recent open B of the same name, and no B is left open at EOF.

Optional coverage gates (for CI smoke runs): --expect-counter NAME
requires at least one counter ('C') event whose name starts with NAME,
and --min-events bounds the total from below, so an accidentally-empty
trace cannot pass. The exporter's counter tracks are packet_occupancy[uN]
(live packet lanes), mshr_residency[uN] (MSHR entries in flight),
mshr_refusals[uN] (fetches the full MSHR file refused that cycle, one
sample per change) and l2_bank_queue[bN] (requests queued at an L2 bank).

Usage:
    check_trace.py TRACE.json [--expect-counter NAME]... [--min-events N]

Exit status: 0 when every check passes, 1 otherwise (all violations are
reported, not just the first).
"""

import argparse
import json
import sys


REQUIRED_ALWAYS = ("name", "ph", "pid", "tid")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="Chrome trace-event JSON file")
    ap.add_argument(
        "--expect-counter",
        action="append",
        default=[],
        metavar="NAME",
        help="require at least one counter event whose name starts "
        "with NAME (repeatable)",
    )
    ap.add_argument(
        "--min-events",
        type=int,
        default=1,
        metavar="N",
        help="minimum number of events (default 1: non-empty)",
    )
    args = ap.parse_args()

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: {args.trace}: {e}")
        return 1

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        print('FAIL: top level is not {"traceEvents": [...]}')
        return 1
    events = doc["traceEvents"]
    if not isinstance(events, list):
        print("FAIL: traceEvents is not a list")
        return 1

    errors = []

    def err(i, ev, msg):
        errors.append(f"event {i} ({ev.get('name', '?')!r}): {msg}")

    # last seen ts and open B-slice name stack, per (pid, tid) track
    last_ts = {}
    open_slices = {}
    counter_names = set()

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        missing = [k for k in REQUIRED_ALWAYS if k not in ev]
        if ph != "M" and "ts" not in ev:
            missing.append("ts")
        if ph in ("C", "M") and "args" not in ev:
            missing.append("args")
        if missing:
            err(i, ev, f"missing keys {missing}")
            continue
        if ph == "M":
            continue

        track = (ev["pid"], ev["tid"])
        ts = ev["ts"]
        if not isinstance(ts, (int, float)):
            err(i, ev, f"non-numeric ts {ts!r}")
            continue
        if track in last_ts and ts < last_ts[track]:
            err(
                i,
                ev,
                f"ts {ts} goes backwards on track {track} "
                f"(previous {last_ts[track]})",
            )
        last_ts[track] = ts

        if ph == "C":
            counter_names.add(ev["name"])
        elif ph == "B":
            open_slices.setdefault(track, []).append(ev["name"])
        elif ph == "E":
            stack = open_slices.get(track, [])
            if not stack:
                err(i, ev, f"E with no open B on track {track}")
            elif stack[-1] != ev["name"]:
                err(
                    i,
                    ev,
                    f"E {ev['name']!r} does not close open B "
                    f"{stack[-1]!r} on track {track}",
                )
            else:
                stack.pop()

    for track, stack in open_slices.items():
        for name in stack:
            errors.append(f"B {name!r} on track {track} never closed")

    if len(events) < args.min_events:
        errors.append(
            f"only {len(events)} events (--min-events {args.min_events})"
        )
    for want in args.expect_counter:
        if not any(n.startswith(want) for n in counter_names):
            errors.append(f"no counter track named {want!r}*")

    if errors:
        for e in errors:
            print(f"FAIL: {e}")
        print(f"check_trace: {len(errors)} violation(s) in {args.trace}")
        return 1
    n_tracks = len(last_ts)
    print(
        f"check_trace: OK — {len(events)} events on {n_tracks} tracks, "
        f"{len(counter_names)} counter track(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
