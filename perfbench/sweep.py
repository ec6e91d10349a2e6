"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --out perfbench/results/mine
    python3 perfbench/sweep.py --out results --run parent=../parent --run change=.

Each ``--run LABEL=ROOT`` names a checkout; its own ``perfbench/run.py`` runs
there and results go to ``OUT/LABEL/<workload>/seed<N>.json``.  With several
checkouts the order alternates from seed to seed, so neither side always
runs first.  Without ``--run`` the checkout holding this file runs and
results go to ``OUT/<workload>/seed<N>.json``.  The summary gives, per
workload and metric, the median, the quartiles and the interquartile range
as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from compare import load_benchmark, load_results, metric_specs, quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(root: str, workload: str, seed: int, seconds: int, trace: int) -> str:
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {root} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return done.stdout


def summarize(directory: str, benchmark: dict) -> list[str]:
    specs = metric_specs(benchmark)
    rows = ["workload metric unit runs median q1 q3 iqr/median bound"]
    for workload, by_seed in load_results(directory).items():
        results = [by_seed[s] for s in sorted(by_seed)]
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            share = (q3 - q1) / median if median else 0.0
            bound = specs.get(name, {}).get("bound", "-")
            rows.append(f"{workload} {name} {results[0]['metrics'][name]['unit']} "
                        f"{len(values)} {median:.6g} {q1:.6g} {q3:.6g} {share:.4f} {bound}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        rows.append(f"{workload} failed_frac ratio {len(results)} {failed / attempted:.6g} "
                    f"({failed}/{attempted}) correct={correct}")
    return rows


def main(argv=None) -> int:
    benchmark = load_benchmark()
    workload_names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description="Run the benchmark over several seeds.")
    parser.add_argument("--out", required=True)
    parser.add_argument("--run", action="append", default=[], metavar="LABEL=ROOT")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sides = [tuple(spec.split("=", 1)) for spec in args.run] or [("", ROOT)]
    for i, seed in enumerate(args.seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in workload_names:
            for label, root in order:
                stdout = run_one(os.path.abspath(root), workload, seed,
                                 benchmark["run_seconds"], args.trace)
                folder = os.path.join(args.out, label, workload)
                os.makedirs(folder, exist_ok=True)
                result = json.loads(stdout.strip().splitlines()[-1])
                with open(os.path.join(folder, f"seed{seed}.json"), "w", encoding="utf-8") as f:
                    json.dump(result, f)
                with open(os.path.join(folder, f"seed{seed}.log"), "w", encoding="utf-8") as f:
                    f.write(stdout)
                print(f"{label or 'run'} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                                 if k in metric_specs(benchmark)
                                 and "bound" in metric_specs(benchmark)[k]),
                      flush=True)
    for label, _ in sides:
        print(f"== {label or args.out}")
        for row in summarize(os.path.join(args.out, label), benchmark):
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
