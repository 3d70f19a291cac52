"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload {table,scan,planar,cli} --seed N \
        --seconds S --trace {0,1}

The workload runs serially in this process (``cli`` starts one interpreter
per op). Every round runs the same ops, and rounds repeat until at least S
seconds of timed work, MIN_ROUNDS rounds and MIN_OPS ops are done. Every time
is scaled to the reference host's speed (see hostspeed.py).
``ops_per_s`` is the number of ops over the sum of their times, and
``op_ms.p50`` and ``op_ms.p90`` are percentiles over all ops of the run.
Every op's output is checked against references computed apart from the
program; check failures are written to stderr and make ``correct`` false.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced rounds of the same ops and reports the per-layer metrics per traced
round, the tracing overhead (median traced round minus median untraced
round, both in scaled op time) and import times.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import checkout
import layertrace
import refs
from hostspeed import HostSpeed

MIN_ROUNDS = 3        # repetitions of each op, at least
MIN_OPS = 100         # so that op_ms.p90 has ten ops beyond it, on a slow host too
SETUP_REPEATS = 7     # set-ups per run; setup_s is their median
IMPORT_REPEATS = 3    # importtime probes per traced run
CHILD = Path(__file__).with_name("child.py")


class Run:
    """Rounds of one workload, the checks on their results, and the op tally."""

    def __init__(self, workload, inputs, ref):
        self.workload, self.inputs, self.ref = workload, inputs, ref
        self.attempted = self.failed = 0
        self.rounds = 0
        self.speed = HostSpeed()
        self.op_s: list[float] = []  # every op's time, scaled
        self.first_round = None
        self.problems: list[str] = []

    def round(self) -> tuple[float, float]:
        """One round; returns its timed seconds and the sum of its scaled op times.

        The host is measured between ops, outside the timed part, and the
        cheap checks run after the round.
        """
        done, elapsed, scaled = [], 0.0, 0.0
        steps = self.workload.round(self.inputs)
        while True:
            scale = self.speed.recent()
            start = perf_counter()
            step = next(steps, None)
            elapsed += perf_counter() - start
            if step is None:
                break
            seconds, item, result, ok = step
            self.op_s.append(seconds * scale)
            scaled += seconds * scale
            self.attempted += 1
            if ok:
                done.append((item, result))
            else:
                self.failed += 1
                print(f"failed op {item!r}: {result!r}", file=sys.stderr)
        self.rounds += 1
        for item, result in done:
            self._check(self.workload.check_op, self.ref, item, result)
        if self.first_round is None:
            self.first_round = done
        return elapsed, scaled

    def check_run(self) -> None:
        self._check(self.workload.check_run, self.ref, self.first_round)

    def _check(self, fn, *args) -> None:
        try:
            fn(*args)
        except refs.CheckFailed as exc:
            self.problems.append(str(exc))
            print(f"check failed: {exc}", file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def timed_run(run: Run, seed: int, seconds: float) -> dict:
    timed, setups = 0.0, []
    while timed < seconds or run.rounds < MIN_ROUNDS or run.attempted < MIN_OPS:
        timed += run.round()[0]
        # set-ups are spread over the run, so they meet the host as the rounds do
        while len(setups) < min(SETUP_REPEATS, SETUP_REPEATS * timed / seconds):
            setups.append(setup_seconds(run.workload.name, seed) * run.speed.read())
    peak_mb = run.workload.peak_rss_mb()  # read before the run checks import numpy
    run.check_run()
    op_ms = [1000 * seconds for seconds in run.op_s]
    return run.result({
        "ops_per_s": {"value": 1000 * len(op_ms) / sum(op_ms), "unit": "1/s"},
        "op_ms.p50": {"value": statistics.median(op_ms), "unit": "ms"},
        "op_ms.p90": {"value": statistics.quantiles(op_ms, n=10)[8], "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    })


def setup_seconds(name: str, seed: int) -> float:
    """Time from starting a fresh interpreter until it has imported the package
    and built the inputs.

    The child reads the monotonic clock when it is ready; the clock is the
    same for every process on Linux. Timing the child's exit instead would
    add its teardown and the 50 ms polling steps of ``subprocess`` waits.
    """
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD), "setup", name, str(seed)],
                          cwd=checkout.ROOT, capture_output=True, text=True, check=True,
                          timeout=60)
    return float(proc.stdout.split()[-1]) - start


def traced_run(run: Run, seconds: float) -> dict:
    tracer = layertrace.Tracer(run.speed)  # self times scaled as the op times are
    timed, plain, traced = 0.0, [], []  # plain and traced: scaled op time per round
    while timed < seconds:
        spent, scaled = run.round()
        timed += spent
        plain.append(scaled)
        with run.workload.tracing(tracer):
            spent, scaled = run.round()  # the same ops as the untraced round
        timed += spent
        traced.append(scaled)
    run.check_run()
    metrics = {name: {"value": value / len(traced), "unit": _unit(name)}
               for name, value in tracer.totals().items()}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100 * overhead / statistics.median(plain),
                                     "unit": "%"}
    for name, ms in import_ms(run.speed).items():
        metrics[f"import.{name}.ms"] = {"value": ms, "unit": "ms"}
    return run.result(metrics)


def _unit(name: str) -> str:
    return "s" if name.endswith(".self_s") else "count"


IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


def import_ms(speed: HostSpeed) -> dict[str, float]:
    """Self import time of each layer module, and the whole ``latticejets.cli`` import,
    scaled by a host reading taken before each probe."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_REPEATS):
        scale = speed.read()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import latticejets.cli"],
            cwd=checkout.ROOT, env={**os.environ, "PYTHONPATH": str(checkout.SRC)},
            capture_output=True, text=True, check=True, timeout=60)
        for self_us, total_us, module in IMPORTTIME.findall(proc.stderr):
            layer = module.removeprefix("latticejets.")
            if layer in layertrace.LAYERS:
                samples.setdefault(layer, []).append(int(self_us) / 1000 * scale)
            if module == "latticejets.cli":
                samples.setdefault("total", []).append(int(total_us) / 1000 * scale)
    return {name: statistics.median(samples.get(name, [0.0]))
            for name in layertrace.LAYERS + ("total",)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table", "scan", "planar", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout.use_checkout_source()
    os.environ.pop("LATTICEJETS_JOBS", None)  # the cli children inherit this environment
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(checkout.ROOT, args.seed)
    run = Run(workload, inputs, workload.references(checkout.ROOT, inputs))
    if args.trace:
        out = traced_run(run, args.seconds)
    else:
        out = timed_run(run, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
