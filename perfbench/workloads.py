"""The four workloads: inputs, one round of ops, and the output checks.

A workload is built from the seed (``build``), computes its references apart
from the program (``references``), and runs whole rounds of the same ops
(``round``). Each op yields ``(seconds, item, result, ok)``; ``ok`` is False
when the op failed (an exception, a scan error record, a non-zero exit).
``check_op`` runs after each round on every op that did not fail, and
``check_run`` runs once per run on the first round's results, because it is
costly. Checks raise ``refs.CheckFailed``. ``tracing(tracer)`` turns the
layer wrappers on for the rounds run inside it, and ``peak_rss_mb`` is the
peak memory of the processes that ran the ops.

The program is reached through module attributes at call time
(``wps.screen``, ``surface2.classify``), so the traced run sees every call.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import checkout
import refs
from refs import require

from latticejets import jets, oracles, polytope, surface2, wps

WIDTH_ORACLE_BOUND = 10  # direction box of oracles.brute_force_width
CHILD = Path(__file__).with_name("child.py")


def _timed(fn, *args):
    start = perf_counter()
    try:
        result, ok = fn(*args), True
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result, ok = exc, False
    return perf_counter() - start, result, ok


class InProcess:
    """A workload whose ops run in this process."""

    @contextmanager
    def tracing(self, tracer):
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()

    def peak_rss_mb(self) -> float:
        return checkout.peak_rss_mb()


class Table(InProcess):
    """The published weight vectors through ``wps.screen``; one round is one pass."""

    name = "table"

    def __init__(self, rows: int | None = None):
        self.rows = rows

    def build(self, root: Path, seed: int):
        weights = list(refs.published_table(root))
        rng = random.Random(seed)
        if self.rows is not None:
            weights = rng.sample(weights, self.rows)
        return {"weights": weights, "rng": rng}

    def references(self, root: Path, inputs):
        table = refs.published_table(root)
        return {"m": {w: table[w] for w in inputs["weights"]},
                "lcm": {w: refs.lcm(w) for w in inputs["weights"]},
                "verdict": "nef_not_semiample"}

    def round(self, inputs):
        order = list(inputs["weights"])
        inputs["rng"].shuffle(order)
        for w in order:
            seconds, report, ok = _timed(wps.screen, w)
            yield seconds, w, report, ok

    def check_op(self, ref, w, report):
        m = ref["m"][w]
        require(report.m == m, f"{w}: m = {report.m}, published {m}")
        require(report.verdict == ref["verdict"], f"{w}: verdict {report.verdict}")
        big = ref["lcm"][w]
        for b in report.binomials:
            up = refs.weighted_degree([max(x, 0) for x in b.u], w)
            down = refs.weighted_degree([max(-x, 0) for x in b.u], w)
            require(up == down == b.degree, f"{w}: binomial {b.u} is not of degree {b.degree}")
            require(b.degree * m < big, f"{w}: degree {b.degree} is not below lcm/m = {big}/{m}")

    def check_run(self, ref, results):
        for w, report in results:
            width, _ = oracles.brute_force_width(report.projected, WIDTH_ORACLE_BOUND)
            require(width == ref["m"][w], f"{w}: oracle width {width} in the box, m {ref['m'][w]}")


class Scan(InProcess):
    """Every well-formed quadruple in a weight range through ``wps.scan_weights``.

    One round is the whole scan; an op is one quadruple, timed as the
    generator's step to the next report. The range is fixed, so the seed
    does not change the inputs.
    """

    name = "scan"

    def __init__(self, max_weight: int = 15, min_weight: int = 2):
        self.max_weight, self.min_weight = max_weight, min_weight

    def build(self, root: Path, seed: int):
        return {"max_weight": self.max_weight, "min_weight": self.min_weight}

    def references(self, root: Path, inputs):
        lo, hi = inputs["min_weight"], inputs["max_weight"]
        hits = {w: m for w, m in refs.published_table(root).items()
                if min(w) >= lo and max(w) <= hi}
        return {"quadruples": refs.well_formed_quadruples(hi, lo), "hits": hits}

    def round(self, inputs):
        reports = wps.scan_weights(inputs["max_weight"], min_weight=inputs["min_weight"])
        while True:
            start = perf_counter()
            item = next(reports, None)
            seconds = perf_counter() - start
            if item is None:
                return
            if isinstance(item, dict):  # the scan records a raising quadruple as an error
                yield seconds, tuple(item["weights"]), item, False
            else:
                yield seconds, item.weights.weights, item, True

    def check_op(self, ref, w, report):
        hit = report.verdict == "nef_not_semiample"
        require(hit == (w in ref["hits"]), f"{w}: verdict {report.verdict}")
        if hit:
            require(report.m == ref["hits"][w], f"{w}: m = {report.m}, published {ref['hits'][w]}")

    def check_run(self, ref, results):
        got = [w for w, _ in results]
        require(got == ref["quadruples"],
                f"scanned {len(got)} quadruples, expected {len(ref['quadruples'])}")


class Planar(InProcess):
    """A seeded unimodular image of every sweep normal form through the classify path.

    One round classifies every image once, in a seeded order.
    """

    name = "planar"

    def __init__(self, shapes=None):
        self.shapes = shapes

    def build(self, root: Path, seed: int):
        rng = random.Random(seed)
        images = {}
        for shape in self.shapes or refs.sweep_shapes():
            u = refs.random_unimodular(rng)
            t = (rng.randint(-8, 8), rng.randint(-8, 8))
            image = [refs.affine(u, t, p) for p in refs.normal_form_points(*shape)]
            rng.shuffle(image)
            images[tuple(image)] = shape
        return {"images": images, "rng": rng}

    def references(self, root: Path, inputs):
        out = {}
        for image, (kind, a, b) in inputs["images"].items():
            ca, cb = refs.canonical_params(kind, a, b)
            out[image] = {"type": kind, "params": (ca, cb),
                          "vertices": set(refs.hull2(refs.normal_form_points(kind, ca, cb))),
                          "count": refs.pick_count(image), "width_one": kind in ("I", "II"),
                          "equivalent": True, "special3": True}
        return out

    def round(self, inputs):
        order = list(inputs["images"])
        inputs["rng"].shuffle(order)
        for image in order:
            seconds, record, ok = _timed(_classify_path, image)
            yield seconds, image, record, ok

    def check_op(self, ref, key, record):
        want = ref[key]
        got = record["class"]
        require((got.type, (got.a, got.b)) == (want["type"], want["params"]),
                f"{key}: classified {got.type} {(got.a, got.b)}, built from "
                f"{want['type']} {want['params']}")
        moved = {refs.affine(got.transform_u, got.transform_t, p) for p in refs.hull2(key)}
        require(moved == want["vertices"], f"{key}: transform misses the normal form")
        require(record["teo"].width_is_one == want["width_one"],
                f"{key}: lattice width one is {record['teo'].width_is_one}")
        require(record["points"] == want["count"],
                f"{key}: {record['points']} lattice points, Pick gives {want['count']}")
        require(record["teo"].equivalent is want["equivalent"],
                f"{key}: equivalence suite says {record['teo'].equivalent}")
        require(record["special3"] is want["special3"], f"{key}: special for 3E is {record['special3']}")

    def check_run(self, ref, results):
        pass


def _classify_path(vertices):
    """What the ``classify`` subcommand computes for one polygon."""
    p = polytope.LatticePolytope(vertices)
    record = surface2.classify(p)
    record.to_json()
    teo = surface2.teo_dim2_suite(p)
    teo.to_json()
    cfg = polytope.lattice_points(p)
    special = jets.is_special(cfg, 3) if record.type != "NotSpecial" else None
    return {"class": record, "teo": teo, "points": len(cfg), "special3": special}


EXAMPLE_POLYTOPE = {"dim": 3, "vertices": [[0, 0, 0], [572, 286, 143],
                                           [390, 195, -585], [495, -330, -165]]}
INVOCATIONS = {
    "screen": ["screen", "7,11,13,15"],
    "classify": ["classify", '{"dim":2,"vertices":[[0,0],[0,1],[5,0]]}'],
    "points": ["points", '{"dim":2,"points":[[0,0],[1,0],[2,0],[3,0],[4,0],[5,0],[0,1]]}',
               "--m", "2", "--direction", "0,1"],
    "polytope": ["polytope", json.dumps(EXAMPLE_POLYTOPE, separators=(",", ":")),
                 "--direction", "1,0,0"],
}


class Cli:
    """The README's one-shot invocations, each in a fresh interpreter.

    One round runs every invocation once, in a seeded order. Each runs as
    ``child.py cli``, which calls ``latticejets.cli.main`` as ``python -m
    latticejets.cli`` would and reports its peak memory, and with a tracer
    set, the trace totals taken inside the child.
    """

    name = "cli"
    TIMEOUT_S = 60

    def __init__(self):
        self.tracer = None
        self.peak_mb = 0.0  # largest over the invocations run so far

    @contextmanager
    def tracing(self, tracer):
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None

    def peak_rss_mb(self) -> float:
        return self.peak_mb

    def build(self, root: Path, seed: int):
        return {"root": root, "rng": random.Random(seed)}

    def references(self, root: Path, inputs):
        example = polytope.LatticePolytope(EXAMPLE_POLYTOPE["vertices"])
        oracle_width, _ = oracles.brute_force_width(example, WIDTH_ORACLE_BOUND)
        return {"m": 572, "degrees": [22, 26], "nef_bound": "105/4",
                "type": "II", "a": 5, "base_point": True, "width": oracle_width,
                "stdout": {}}  # filled by the first invocation of each command

    def round(self, inputs):
        names = sorted(INVOCATIONS)
        inputs["rng"].shuffle(names)
        for name in names:
            argv = [sys.executable, str(CHILD), "cli", "1" if self.tracer else "0",
                    *INVOCATIONS[name]]
            start = perf_counter()
            proc = subprocess.run(argv, cwd=inputs["root"], capture_output=True,
                                  timeout=self.TIMEOUT_S)
            seconds = perf_counter() - start
            if proc.returncode == 0:
                self._read_report(proc.stderr)
            yield seconds, name, proc.stdout, proc.returncode == 0

    def _read_report(self, stderr: bytes) -> None:
        report = json.loads(stderr.decode().strip().splitlines()[-1])
        self.peak_mb = max(self.peak_mb, report["peak_rss_mb"])
        if report["trace"]:
            self.tracer.merge(report["trace"])

    def check_op(self, ref, name, stdout):
        first = ref["stdout"].setdefault(name, stdout)
        require(stdout == first, f"{name}: stdout differs between invocations")
        result = json.loads(stdout)["result"]
        if name == "screen":
            require(result["m"] == ref["m"], f"screen: m = {result['m']}")
            degrees = sorted(b["degree"] for b in result["binomials"])
            require(degrees == ref["degrees"], f"screen: binomial degrees {degrees}")
            require(result["nef"]["bound"] == ref["nef_bound"],
                    f"screen: nef bound {result['nef']['bound']}")
        elif name == "classify":
            require((result["type"], result["a"]) == (ref["type"], ref["a"]),
                    f"classify: type {result['type']} a = {result['a']}")
        elif name == "points":
            bp = result["base_point"]
            require(bp["feasibility_route"] is ref["base_point"]
                    and bp["evaluation_route"] is ref["base_point"],
                    f"points: base-point routes {bp['feasibility_route']}, {bp['evaluation_route']}")
        elif name == "polytope":
            widths = (result["lattice_width"]["width"], result["width_in_direction"]["width"])
            require(widths == (ref["width"], ref["width"]),
                    f"polytope: widths {widths}, oracle scan {ref['width']}")

    def check_run(self, ref, results):
        require(ref["width"] == ref["m"], f"oracle width {ref['width']} is not m = {ref['m']}")


WORKLOADS = {w.name: w for w in (Table(), Scan(), Planar(), Cli())}
