"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the detail files that run.py writes to --results,
one per run. For each workload and end-to-end metric this prints, for
both sides, the median and quartiles over the runs and the spread (the
distance between the quartiles as a share of the median), then whether
the two medians agree within the metric's bound from BENCHMARK.json.
Exits with 1 if any pair does not agree, or a side has no runs of it.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced runs in directory."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        d = json.loads(path.read_text(encoding="utf-8"))
        if d.get("trace") != 0:
            continue
        for name, m in d["result"]["metrics"].items():
            out[d["workload"]][name].append(m["value"])
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: float, new: float, bound: float, better: str) -> str:
    change = (new - base) / base
    if abs(change) <= bound:
        return "agree"
    return "better" if (change < 0) == (better == "lower") else "WORSE"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = [load(Path(a)) for a in argv]
    ok = True
    print(f"{'workload':<14} {'metric':<12} {'side':<4} {'n':>3} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'spread':>7}  change  verdict (bound)")
    for wl in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            values = [s.get(wl, {}).get(m["name"], []) for s in sides]
            if not all(values):
                print(f"{wl:<14} {m['name']:<12} missing on {'base' if not values[0] else 'new'}")
                ok = False
                continue
            meds = []
            for label, xs in zip(("base", "new"), values):
                q1, med, q3 = quartiles(xs)
                meds.append(med)
                print(f"{wl:<14} {m['name']:<12} {label:<4} {len(xs):>3} {q1:>11.5g} {med:>11.5g} "
                      f"{q3:>11.5g} {(q3 - q1) / med:>7.1%}", end="" if label == "new" else "\n")
            v = verdict(meds[0], meds[1], m["bound"], m["better"])
            ok &= v == "agree"
            print(f"  {(meds[1] - meds[0]) / meds[0]:+6.1%}  {v} ({m['bound']:.0%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
