#!/usr/bin/env python3
"""Compare a fresh perfbench result with the committed trajectory.

For one workload, every end-to-end metric that BENCHMARK.json declares is
compared with that workload's `change` median in the last line of
perf/trajectory.jsonl. Each row prints the reference, the fresh value, the
move in the metric's "worse" direction (positive = worse, as a fraction of
the reference), the metric's bound, and a flag when the move exceeds the
bound.

Usage:
  perf_diff.py WORKLOAD RESULT [--trajectory FILE] [--benchmark FILE]

RESULT is perfbench's output: a file whose content, or whose last non-empty
line, is the result object {"metrics": {"<name>": {"value": ...}}, ...}.
So both `run.py ... > out.txt` and the bare JSON line work.

The script only reports: it exits 0 after printing, flags or not, because
the host that produced RESULT need not be the trajectory's host. An
unreadable or malformed input exits 2 with one line naming the file; so
does a workload BENCHMARK.json does not declare.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class InputError(Exception):
    """A bad input file: the message starts with its path."""


def read_text(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"{path}: unreadable: {getattr(e, 'strerror', None) or e}")


def parse_json(path, text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: {what} is not valid JSON: {e.msg} "
                         f"(line {e.lineno} column {e.colno})")


def load_bounds(path):
    """{metric: (better, bound)} and the workload names from BENCHMARK.json."""
    doc = parse_json(path, read_text(path), "the file")
    try:
        bounds = {m["name"]: (m["better"], float(m["bound"]))
                  for m in doc["end_to_end"]}
        workloads = {w["name"] for w in doc["workloads"]}
    except (TypeError, KeyError, ValueError) as e:
        raise InputError(f"{path}: no well-formed end_to_end/workloads lists ({e})")
    for name, (better, _) in bounds.items():
        if better not in ("lower", "higher"):
            raise InputError(f"{path}: metric {name} has better={better!r}")
    return bounds, workloads


def load_reference(path, workload):
    """The last trajectory line's `change` medians for `workload`."""
    lines = [l for l in read_text(path).splitlines() if l.strip()]
    if not lines:
        raise InputError(f"{path}: no trajectory lines")
    doc = parse_json(path, lines[-1], f"line {len(lines)}")
    change = doc.get("change") if isinstance(doc, dict) else None
    if not isinstance(change, dict):
        raise InputError(f"{path}: line {len(lines)} has no 'change' object")
    prefix = workload + "/"
    return {k[len(prefix):]: v for k, v in change.items()
            if k.startswith(prefix) and isinstance(v, (int, float))}


def load_result(path):
    """{metric: value} from a perfbench result (whole file or last line)."""
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        lines = [l for l in text.splitlines() if l.strip()]
        doc = parse_json(path, lines[-1] if lines else "", "the last line")
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    if not isinstance(metrics, dict):
        raise InputError(f"{path}: no 'metrics' object")
    out = {}
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, (int, float)):
            out[name] = value
    return out


def worse_move(better, reference, fresh):
    """Relative move toward worse: positive means fresh is worse."""
    if reference == 0:
        return None
    if better == "lower":
        return (fresh - reference) / reference
    return (reference - fresh) / reference


def report(workload, bounds, reference, fresh):
    rows = [("metric", "reference", "fresh", "worse move", "bound", "")]
    flagged = 0
    for name, (better, bound) in bounds.items():
        ref = reference.get(name)
        new = fresh.get(name)
        if ref is None or new is None:
            note = "no reference" if ref is None else "not in result"
            rows.append((name, "-" if ref is None else f"{ref:.6g}",
                         "-" if new is None else f"{new:.6g}", "-",
                         f"{bound:.0%}", note))
            continue
        move = worse_move(better, ref, new)
        beyond = move is not None and move > bound
        flagged += beyond
        rows.append((name, f"{ref:.6g}", f"{new:.6g}",
                     "-" if move is None else f"{move:+.1%}", f"{bound:.0%}",
                     "BEYOND BOUND" if beyond else ""))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    print(f"perf_diff {workload}: fresh result vs the last trajectory line's "
          "change medians")
    for r in rows:
        cells = [r[0].ljust(widths[0])] + [r[i].rjust(widths[i]) for i in range(1, 5)]
        print("  ".join(cells + [r[5]]).rstrip())
    print(f"{flagged} metric(s) beyond bound (report only)")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload")
    ap.add_argument("result", help="perfbench output file")
    ap.add_argument("--trajectory",
                    default=os.path.join(ROOT, "perf", "trajectory.jsonl"))
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    try:
        bounds, workloads = load_bounds(args.benchmark)
        if args.workload not in workloads:
            raise InputError(f"{args.benchmark}: declares no workload "
                             f"{args.workload!r}")
        reference = load_reference(args.trajectory, args.workload)
        fresh = load_result(args.result)
    except InputError as e:
        print(f"perf_diff: {e}", file=sys.stderr)
        return 2
    report(args.workload, bounds, reference, fresh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
