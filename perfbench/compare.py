"""Compare two sets of benchmark results, one row per workload and metric.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the run records ``perfbench/run.py`` writes (one JSON
file per run; use ``--results DIR`` to keep sets apart).  For every
workload and metric the row shows each side's median and quartiles, the
ratio of the change's median to the base's median, and a verdict:

* ``unresolved`` -- either side's spread (quartile distance over median)
  is wider than the bound, unless every change run beats every base run;
* ``better`` -- the median improved by more than the base's quartile
  distance, and the change won at least nine in ten seed-matched pairs;
* ``worse`` -- the median got worse by more than the bound;
* ``within bound`` -- anything else.

Bounds come from ``BENCHMARK.json``; end-to-end metrics that apply to only
some workloads use :data:`DEFAULT_BOUND`.  Per-layer metrics have no bound
and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Bound of the workload-specific end-to-end metrics.
DEFAULT_BOUND = 0.15
WORKLOAD_SPECIFIC = {
    "question_tail_ms": "lower", "diff_p50_ms": "lower", "append_p50_ms": "lower",
    "append_tail_ms": "lower", "failed_share": "lower",
}


def load(directory: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} over every record in a directory."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), {})[record["seed"]] = metric["value"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: dict[int, float], change: dict[int, float], bound: float,
            lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    if not any(base.values()) and not any(change.values()):
        return "within bound"  # zero on both sides, e.g. no failures
    b1, b_med, b3 = quartiles(list(base.values()))
    c1, c_med, c3 = quartiles(list(change.values()))

    def spread(q1: float, median: float, q3: float) -> float:
        return (q3 - q1) / abs(median) if median else float("inf")

    all_better = max(sign * v for v in change.values()) < min(sign * v for v in base.values())
    if max(spread(b1, b_med, b3), spread(c1, c_med, c3)) > bound:
        return "better" if all_better else "unresolved"
    paired = [seed for seed in base if seed in change]
    wins = sum(1 for seed in paired if sign * change[seed] < sign * base[seed])
    if sign * (b_med - c_med) > (b3 - b1) and (not paired or wins >= 0.9 * len(paired)):
        return "better"
    if sign * (c_med - b_med) > bound * abs(b_med):
        return "worse"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    bounds.update({name: (DEFAULT_BOUND, better == "lower")
                   for name, better in WORKLOAD_SPECIFIC.items()})
    base, change = load(args.base), load(args.change)
    print(f"{'workload':16s} {'metric':36s} {'base median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'ratio':>8s}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        b1, b_med, b3 = quartiles(list(base[key].values()))
        c1, c_med, c3 = quartiles(list(change[key].values()))
        ratio = f"{c_med / b_med:8.3f}" if b_med else "     n/a"
        if metric in bounds:
            bound, lower = bounds[metric]
            outcome = verdict(base[key], change[key], bound, lower)
        else:
            outcome = "-"
        base_text = f"{b_med:.4f} [{b1:.4g}, {b3:.4g}]"
        change_text = f"{c_med:.4f} [{c1:.4g}, {c3:.4g}]"
        print(f"{workload:16s} {metric:36s} {base_text:>32s} {change_text:>32s} "
              f"{ratio}  {outcome}")
    print(f"ratio = change median / base median; base n="
          f"{max((len(v) for v in base.values()), default=0)}, change n="
          f"{max((len(v) for v in change.values()), default=0)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
