"""Compare two sets of benchmark runs, or summarize one.

    python3 bench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the records ``run.py --out DIR --trace 0`` wrote, one
per (workload, seed).  For every workload and end-to-end metric of
``BENCHMARK.json`` this prints, per set, the median and quartiles over its
runs and the spread (quartile distance over median).  With two sets it adds
the relative delta of the medians, signed so that positive is worse, and a
verdict: ``unresolved`` when either set's spread is wider than the metric's
bound, ``worse`` when the delta exceeds the bound, ``ok`` otherwise.  With
one set the verdict says whether the spread is within a third of the bound
(``steady``), within the bound (``wide``) or wider (``unresolved``).

It is a report, not a gate; ``setup_s`` spreads are shown but, like the
acceptance rule, only its medians are judged.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parents[1]


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per run."""
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        for name, metric in record["metrics"].items():
            runs[record["manifest"]["workload"]][name].append(metric["value"])
    return runs


def _verdict_one(values, bound, name) -> str:
    s = spread(values)
    if s <= bound / 3:
        return "steady"
    if name == "setup_s":
        return "median only"
    return "wide" if s <= bound else "unresolved"


def _columns(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"  {len(values):3d} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread(values):7.3f}"


def report(base, new, metrics) -> list[str]:
    columns = f"  {'n':>3s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s}"
    header = f"{'workload':16s} {'metric':12s}" + columns
    if new is not None:
        header += columns + f" {'delta':>8s}"
    lines = [header + "  verdict"]
    for workload in sorted(set(base) | set(new or {})):
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = base.get(workload, {}).get(name)
            b = (new or {}).get(workload, {}).get(name)
            if not a or (new is not None and not b):
                continue
            line = f"{workload:16s} {name:12s}" + _columns(a)
            if new is None:
                lines.append(line + "  " + _verdict_one(a, bound, name))
                continue
            med, medb = quartiles(a)[1], quartiles(b)[1]
            delta = (medb - med) / med * (1 if m["better"] == "lower" else -1)
            wide = name != "setup_s" and max(spread(a), spread(b)) > bound
            verdict = "unresolved" if wide else ("worse" if delta > bound else "ok")
            lines.append(line + _columns(b) + f" {delta:+8.3f}  {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = load(args.base)
    new = load(args.new) if args.new is not None else None
    if not base:
        print(f"error: no run records in {args.base}", file=sys.stderr)
        return 1
    print("\n".join(report(base, new, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
