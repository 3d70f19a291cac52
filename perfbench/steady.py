"""Steadiness self-check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--workloads table,scan]

For each workload, runs ten untraced runs of ``run_seconds`` (set A, seeds
1..10), then ten more (set B, seeds 11..20), each as its own process through
the command in BENCHMARK.json. Per end-to-end metric it reports, for each
set, the median and the spread (distance between the first and third
quartile as a share of the median), and how far B's median is worse than
A's. A metric passes when both spreads are within its bound and B is not
worse than A by more than the bound; a workload passes when every run was
correct and the share of failed ops is the same in both sets. The last
stdout line is every value as JSON. Exits 0 when everything passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import checkout

RUNS = 10  # runs per set


def run_once(bench: dict, workload: str, seed: int) -> dict:
    proc = subprocess.run([*bench["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                          cwd=checkout.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, first: float, second: float) -> float:
    """Share by which the second median is worse than the first (negative: better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def check_workload(bench: dict, workload: str, summary: dict) -> bool:
    set_a = [run_once(bench, workload, seed) for seed in range(1, RUNS + 1)]
    set_b = [run_once(bench, workload, seed) for seed in range(RUNS + 1, 2 * RUNS + 1)]
    ok = True
    for label, results in (("A", set_a), ("B", set_b)):
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload} set {label}: correct={correct} failed {failed}/{attempted}")
        ok &= correct
    shares = {r["failed"] / r["attempted"] for r in set_a + set_b}
    if len(shares) != 1:
        print(f"{workload}: failed share differs between runs: {sorted(shares)}")
        ok = False
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values_a = [r["metrics"][name]["value"] for r in set_a]
        values_b = [r["metrics"][name]["value"] for r in set_b]
        median_a, median_b = statistics.median(values_a), statistics.median(values_b)
        spreads = (spread(values_a), spread(values_b))
        shift = worse_by(metric, median_a, median_b)
        passed = max(spreads) <= bound and shift <= bound
        ok &= passed
        summary.setdefault(workload, {})[name] = {
            "median": [median_a, median_b], "spread": spreads, "worse_by": shift,
            "values": [values_a, values_b]}
        margin = "" if max(spreads) < bound / 3 else "  (spread above bound/3)"
        print(f"  {name:<12} median {median_a:.4f} {median_b:.4f}"
              f"  spread {spreads[0]:.3f} {spreads[1]:.3f}  worse by {shift:+.3f}"
              f"  bound {bound}  {'ok' if passed else 'FAIL'}{margin}")
    return ok


def main(argv=None) -> int:
    with open(checkout.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    ok, summary = True, {}
    for workload in args.workloads.split(","):
        if workload not in names:
            raise SystemExit(f"unknown workload {workload!r}; BENCHMARK.json has {names}")
        ok &= check_workload(bench, workload, summary)
        sys.stdout.flush()
    print("steady" if ok else "NOT steady")
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
