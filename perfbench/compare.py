"""Compare two sets of run records written by run.py (perfbench/out/*.json).

    python3 perfbench/compare.py --before A1.json A2.json A3.json \\
                                 --after B1.json B2.json B3.json

Every record must come from the same inputs: the same workload, seed, run
length and trace setting, and the same input fingerprint, as it would not
after an edit to ``repro.workloads``.  Every record must also have passed
the correctness gate.  Otherwise the comparison is refused (exit 2).

Each metric is compared by the median of each side.  An end-to-end metric
is WORSE when the after median is worse than the before median by more
than its bound in BENCHMARK.json (exit 1 if any is), and ``unresolved``
when either side spreads by more than that bound (the distance between
its quartiles as a share of its median), or has a single record, so that
its noise is unknown.  Per-layer metrics have no bound; their change is
printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME = ("workload", "seed", "seconds", "trace", "fingerprint")


class Refused(Exception):
    pass


def load(names: list) -> list:
    records = []
    for name in names:
        record = json.loads(Path(name).read_text())
        if not record.get("correct"):
            raise Refused(f"{name} failed the correctness gate: "
                          f"{record.get('problems')}")
        records.append(record)
    return records


def spread(values: list) -> "float | None":
    """Quartile distance as a share of the median; None for one value."""
    if len(values) < 2:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (high - low) / median if median else 0.0


def compare(before: list, after: list, specs: dict) -> int:
    """Print the comparison; returns the exit status."""
    first = before[0]
    for record in before + after:
        for key in SAME:
            if record[key] != first[key]:
                raise Refused(f"{key} differs ({first[key]!r} vs "
                              f"{record[key]!r})")
    names = list(first["metrics"])
    for record in before + after:
        missing = set(names) ^ set(record["metrics"])
        if missing:
            raise Refused(f"metrics missing from one record: "
                          f"{sorted(missing)}")
    worse = False
    print(f"{'metric':<28} {'before':>14}    {'after':>14} {'unit':<6}"
          f" {'change':>7}  spreads")
    for name in names:
        spec = specs.get(name)
        if spec is None:
            raise Refused(f"{name} is not declared in BENCHMARK.json")
        old_values = [r["metrics"][name]["value"] for r in before]
        new_values = [r["metrics"][name]["value"] for r in after]
        old = statistics.median(old_values)
        new = statistics.median(new_values)
        change = (new - old) / old if old else 0.0
        loss = change if spec["better"] == "lower" else -change
        spreads = (spread(old_values), spread(new_values))
        verdict = ""
        if "bound" in spec:
            if any(s is None or s > spec["bound"] for s in spreads):
                verdict = "unresolved"
            elif loss > spec["bound"]:
                verdict, worse = "WORSE", True
            else:
                verdict = "ok"
        shown = "/".join("-" if s is None else f"{s:.3f}" for s in spreads)
        print(f"{name:<28} {old:>14.4f} -> {new:>14.4f} {spec['unit']:<6}"
              f" {100 * change:+6.1f}%  {shown} {verdict}")
    return 1 if worse else 0


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m
             for m in declared["end_to_end"] + declared["per_layer"]}
    try:
        return compare(load(args.before), load(args.after), specs)
    except Refused as refusal:
        print(f"refusing to compare: {refusal}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
