"""Smoke mode: every check at tiny sizes, then each check against a corrupted reference.

    python3 perfbench/smoke.py

Each workload runs one round on tiny inputs and must pass every check.
Then every reference value is corrupted in turn, and the check that reads
it must fail on the same results; a corruption that goes unnoticed is
reported. Exits 0 when every check passes on the true references and fails
on every corrupted one. Takes a few seconds.
"""

from __future__ import annotations

import copy
import sys

import checkout


def _first(d: dict):
    return next(iter(d))


def _bump_first_m(ref):
    ref["m"][_first(ref["m"])] += 1


def _shrink_first_lcm(ref):
    ref["lcm"][_first(ref["lcm"])] = 1


def _first_planar(field, change):
    def corrupt(ref):
        entry = ref[_first(ref)]
        entry[field] = change(entry[field])
    return corrupt


def _set(field, value):
    def corrupt(ref):
        ref[field] = value
    return corrupt


def _drop_hit(ref):
    ref["hits"].clear()


def _drop_quadruple(ref):
    ref["quadruples"].pop()


def _corrupt_stdout(ref):
    ref["stdout"]["screen"] = b"{}"


# (workload, reference value, check that reads it, corruption)
CORRUPTIONS = [
    ("table", "published m", "check_op", _bump_first_m),
    ("table", "verdict", "check_op", _set("verdict", "inconclusive")),
    ("table", "lcm for the degree bound", "check_op", _shrink_first_lcm),
    ("table", "published m against the width oracle", "check_run", _bump_first_m),
    ("scan", "published hits", "check_op", _drop_hit),
    ("scan", "well-formed quadruples", "check_run", _drop_quadruple),
    ("planar", "type and parameters", "check_op",
     _first_planar("params", lambda p: (p[0] + 1, p[1]))),
    ("planar", "normal-form vertices", "check_op",
     _first_planar("vertices", lambda v: {(x + 1, y) for x, y in v})),
    ("planar", "lattice width one", "check_op", _first_planar("width_one", lambda w: not w)),
    ("planar", "Pick count", "check_op", _first_planar("count", lambda c: c + 1)),
    ("planar", "equivalence suite", "check_op", _first_planar("equivalent", lambda e: not e)),
    ("planar", "special for 3E", "check_op", _first_planar("special3", lambda s: not s)),
    ("cli", "repeated stdout", "check_op", _corrupt_stdout),
    ("cli", "m of the worked example", "check_op", _set("m", 573)),
    ("cli", "binomial degrees", "check_op", _set("degrees", [22, 27])),
    ("cli", "nef bound", "check_op", _set("nef_bound", "105/2")),
    ("cli", "classify type", "check_op", _set("type", "I")),
    ("cli", "classify a", "check_op", _set("a", 6)),
    ("cli", "base-point routes", "check_op", _set("base_point", False)),
    ("cli", "oracle width", "check_op", _set("width", 571)),
    ("cli", "oracle width against m", "check_run", _set("width", 571)),
]


def tiny_workloads():
    import workloads as w

    shapes = [("I", 1, 3), ("II", 5, None), ("III", 2, 2), ("IV", 1, 2)]
    return {"table": w.Table(rows=4), "scan": w.Scan(max_weight=15, min_weight=7),
            "planar": w.Planar(shapes=shapes), "cli": w.Cli()}


def main() -> int:
    checkout.use_checkout_source()
    import refs
    import run

    ok = True
    runs = {}
    for name, workload in tiny_workloads().items():
        inputs = workload.build(checkout.ROOT, 1)
        r = run.Run(workload, inputs, workload.references(checkout.ROOT, inputs))
        r.round()
        r.check_run()
        passed = not r.problems and r.failed == 0
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {r.attempted} ops, "
              f"{r.failed} failed, {len(r.problems)} check failures on the true references")
        runs[name] = r
    for name, label, check, corrupt in CORRUPTIONS:
        r = runs[name]
        ref = copy.deepcopy(r.ref)
        corrupt(ref)
        fn = getattr(r.workload, check)
        try:
            if check == "check_run":
                fn(ref, r.first_round)
            else:
                for item, result in r.first_round:
                    fn(ref, item, result)
        except refs.CheckFailed as exc:
            print(f"ok   {name}: corrupted {label} -> {check} fails: {exc}")
        else:
            ok = False
            print(f"FAIL {name}: corrupted {label} -> {check} still passes")
    print("smoke passed" if ok else "smoke FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
