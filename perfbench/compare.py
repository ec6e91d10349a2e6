"""Compare two sets of benchmark results, one row per (workload, metric).

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``<workload>/seed<N>.json`` files, each the JSON line
``run.py`` printed (``sweep.py`` writes them).  Runs are paired by workload
and seed.  A row reads:

* ``improved`` -- the new side wins at least 9 of every 10 pairs (ties count
  for neither) and the medians differ by more than the base's interquartile
  range;
* ``worse`` -- the same rule with the sides swapped;
* ``unresolved`` -- anything else.

The ``bound`` column applies the benchmark's regression rule to end-to-end
metrics: ``ok`` when the new median is no worse than the base median by more
than the bound in BENCHMARK.json, ``EXCEEDED`` otherwise.  Every ratio is
printed with its base value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_benchmark(path: str = BENCHMARK) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_results(directory: str) -> dict[str, dict[int, dict]]:
    """{workload: {seed: result}} from ``<workload>/seed<N>.json`` files."""
    out: dict[str, dict[int, dict]] = {}
    for workload in sorted(os.listdir(directory)):
        folder = os.path.join(directory, workload)
        if not os.path.isdir(folder):
            continue
        for name in os.listdir(folder):
            if name.startswith("seed") and name.endswith(".json"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    out.setdefault(workload, {})[int(name[4:-5])] = json.load(handle)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def metric_specs(benchmark: dict) -> dict[str, dict]:
    return {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def verdict(base: list[float], new: list[float], better: str) -> tuple[str, int, int]:
    """(verdict, pairs the new side won, pairs the base side won)."""
    sign = -1 if better == "lower" else 1
    new_wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    base_wins = sum(1 for b, n in zip(base, new) if sign * (b - n) > 0)
    pairs = len(base)
    q1, base_median, q3 = quartiles(base)
    gap = abs(statistics.median(new) - base_median)
    if pairs and gap > q3 - q1:
        if new_wins * 10 >= 9 * pairs:
            return "improved", new_wins, base_wins
        if base_wins * 10 >= 9 * pairs:
            return "worse", new_wins, base_wins
    return "unresolved", new_wins, base_wins


def compare(base_dir: str, new_dir: str, benchmark: dict) -> list[str]:
    specs = metric_specs(benchmark)
    base_all, new_all = load_results(base_dir), load_results(new_dir)
    rows = ["workload metric unit pairs base_median[q1,q3] new_median ratio(new/base) "
            "won(new:base) verdict bound"]
    for workload in sorted(set(base_all) & set(new_all)):
        seeds = sorted(set(base_all[workload]) & set(new_all[workload]))
        names = sorted(set.intersection(*(
            set(side[workload][s]["metrics"]) for side in (base_all, new_all) for s in seeds)))
        for name in names:
            spec = specs.get(name, {"unit": "?", "better": "lower"})
            base = [base_all[workload][s]["metrics"][name]["value"] for s in seeds]
            new = [new_all[workload][s]["metrics"][name]["value"] for s in seeds]
            outcome, new_wins, base_wins = verdict(base, new, spec["better"])
            q1, base_median, q3 = quartiles(base)
            new_median = statistics.median(new)
            ratio = f"{new_median / base_median:.3f}" if base_median else "n/a"
            bound = "-"
            if "bound" in spec:
                sign = 1 if spec["better"] == "lower" else -1
                worse_by = sign * (new_median - base_median) / base_median if base_median else 0
                bound = "ok" if worse_by <= spec["bound"] else "EXCEEDED"
            rows.append(
                f"{workload} {name} {spec['unit']} {len(seeds)} "
                f"{base_median:.6g}[{q1:.6g},{q3:.6g}] {new_median:.6g} "
                f"{ratio}(base {base_median:.6g}) {new_wins}:{base_wins} {outcome} {bound}")
        for label, side in (("base", base_all), ("new", new_all)):
            failed = sum(side[workload][s]["failed"] for s in seeds)
            attempted = sum(side[workload][s]["attempted"] for s in seeds)
            rows.append(f"{workload} failed ({label}) {failed}/{attempted}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    for row in compare(args.base, args.new, load_benchmark()):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
