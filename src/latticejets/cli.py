"""Batch command-line frontend.

Subcommands: ``points`` (jet/speciality/base-point analysis of a point
configuration), ``polytope`` (widths and the pseudonef bound), ``classify``
(surface normal form), ``screen`` (one weight vector through the full
pipeline), ``table`` (the bundled 93-row regression).

Inputs are JSON files or inline JSON; every report echoes the input and the
tool version, and identical invocations produce byte-identical output. Exit
codes: 0 success, 1 negative mathematical verdict under --strict, 2 input
error, 3 budget exhaustion, 4 a failed internal invariant (a bug). A
subcommand takes only the flags it reads; any other is a usage error (2).

``import latticejets`` loads no layer, and each subcommand imports only the
layers it runs: ``screen`` never loads the surface theory, ``classify`` never
loads the weighted pipeline, and ``oracles`` loads only under ``--oracle``.
The records are NamedTuples and the value types slotted classes, so a
one-shot run never loads ``inspect``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, polytope
from .errors import BudgetExceededError, InputError, InvariantError, ToolkitError
from .polytope import (Direction, LatticePolytope, config_from_json,
                       lattice_points, lattice_width, width_in_direction)

EXIT_OK = 0
EXIT_STRICT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _load_json_argument(raw: str):
    text = raw.strip()
    if not text.startswith(("{", "[")):
        try:
            with open(raw, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read input file {raw!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON ({exc.msg})") from exc


def _parse_direction(raw: str, dim: int) -> Direction:
    try:
        coords = tuple(int(x) for x in raw.replace("[", "").replace("]", "").split(","))
    except ValueError as exc:
        raise InputError(f"bad direction {raw!r}") from exc
    if len(coords) != dim:
        raise InputError(f"direction {coords} does not match dimension {dim}")
    return Direction(coords)


def _parse_weights(raw: str):
    from . import wps

    data = raw.strip()
    if not data[:1].isdigit():
        loaded = _load_json_argument(raw)
        if not isinstance(loaded, list):
            raise InputError("weights must be a JSON array of four integers")
        return wps.WeightVector(tuple(loaded))
    try:
        return wps.WeightVector(tuple(int(x) for x in data.split(",")))
    except ValueError as exc:
        raise InputError(f"bad weights {raw!r}") from exc


def _envelope(command: str, input_echo, result, oracle=None) -> dict:
    out = {
        "tool": {"name": "latticejets", "version": __version__},
        "command": command,
        "input": input_echo,
        "result": result,
    }
    if oracle is not None:
        out["oracle"] = oracle
    return out


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        _emit_text(report)


def _emit_text(report: dict, indent: str = "") -> None:
    def walk(obj, pad):
        if isinstance(obj, dict):
            for key, value in obj.items():
                if isinstance(value, (dict, list)) and value and not _is_flat(value):
                    sys.stdout.write(f"{pad}{key}:\n")
                    walk(value, pad + "  ")
                else:
                    sys.stdout.write(f"{pad}{key}: {_flat(value)}\n")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)) and item and not _is_flat(item):
                    sys.stdout.write(f"{pad}-\n")
                    walk(item, pad + "  ")
                else:
                    sys.stdout.write(f"{pad}- {_flat(item)}\n")

    walk(report, indent)


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(x, (dict, list)) for x in value)
    return False


def _flat(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(str(x) for x in value) + "]"
    return str(value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_points(args) -> int:
    from . import jets
    from .base_locus import base_locus_k2, is_base_point, is_base_point_via_form

    data = _load_json_argument(args.input)
    cfg = config_from_json(data)
    m = args.m
    system = jets.build_jets(cfg, m)
    result = {
        "dim": cfg.dim,
        "n_points": len(cfg),
        "differences_generate": cfg.differences_generate,
        "order": m,
        "jet_ranks": list(system.j_ranks),
        "h0": {str(i): jets.h0(cfg, i) for i in range(1, m + 2)},
        "expected_h0": {str(i): jets.expected_h0(len(cfg) - 1, cfg.dim, i)
                        for i in range(1, m + 2)},
        "special": {str(i): jets.is_special(cfg, i) for i in range(1, m + 2)},
        "min_vanishing_degree": jets.min_vanishing_degree(cfg) if len(cfg) >= 2 else None,
    }
    form = jets.fundamental_form(cfg, m)
    result["fundamental_form"] = {"m": m, "dim": form.dim, "basis": form.text()}
    if args.direction:
        v = _parse_direction(args.direction, cfg.dim)
        feasible, witness = is_base_point(cfg, m, v)
        via_form = is_base_point_via_form(cfg, m, v)
        result["base_point"] = {
            "direction": list(v.coords),
            "feasibility_route": feasible,
            "evaluation_route": via_form,
            "agree": feasible == via_form,
            "witness": witness.text() if witness else None,
        }
    if cfg.dim == 2 and form.dim > 0:
        result["base_locus"] = base_locus_k2(cfg, m).to_json()
    oracle = None
    if args.oracle:
        from . import linalg, oracles

        lt = jets.leading_term_matrix(cfg, m)
        oracle = {"rank": oracles.rank_oracle_agrees(lt)}
        kernel = linalg.kernel_basis(lt)
        reference = oracles.right_kernel_reference(lt)
        oracle["right_kernel_span"] = {"agree": oracles.same_span(kernel, reference)}
        if cfg.dim == 2 and form.dim > 0:
            gcd_deg = oracles.binary_form_gcd_degree(form.polynomials())
            oracle["base_locus_gcd_degree"] = {
                "main": result["base_locus"]["gcd_degree"],
                "reference": gcd_deg,
                "agree": gcd_deg == result["base_locus"]["gcd_degree"],
            }
    _emit(_envelope("points", data, result, oracle), args.format)
    return EXIT_OK


def _cmd_polytope(args) -> int:
    data = _load_json_argument(args.input)
    p = LatticePolytope.from_json(data)
    width = lattice_width(p, budget=args.width_budget)
    result = {
        "dim": p.dim,
        "vertices": [list(v) for v in p.vertices],
        "affine_dim": p.affine_dim,
        "lattice_width": {
            "width": width.width,
            "direction": list(width.direction.coords) if width.direction else None,
            "certified": width.certified,
        },
        "pseudonef_bound": width.width,
    }
    if args.direction:
        v = _parse_direction(args.direction, p.dim)
        result["width_in_direction"] = {"direction": list(v.coords),
                                        "width": width_in_direction(p, v)}
    if args.count_points:
        pts = lattice_points(p, budget=args.enum_budget)
        result["lattice_point_count"] = len(pts)
    oracle = None
    if args.oracle:
        from . import oracles

        oracle = {"width_scan": oracles.width_oracle_agrees(p, width, bound=args.oracle_bound)}
    _emit(_envelope("polytope", data, result, oracle), args.format)
    return EXIT_OK


def _cmd_classify(args) -> int:
    from . import jets
    from .surface2 import classify, teo_dim2_suite

    data = _load_json_argument(args.input)
    p = LatticePolytope.from_json(data)
    record = classify(p)
    result = record.to_json()
    result["teo_dim2"] = teo_dim2_suite(p).to_json()
    if record.type != "NotSpecial":
        cfg = lattice_points(p)
        result["special_for_3E"] = jets.is_special(cfg, 3)
    _emit(_envelope("classify", data, result, None), args.format)
    return EXIT_OK


def _cmd_screen(args) -> int:
    from . import wps

    weights = _parse_weights(args.weights)
    budget = wps.DEGREE_BUDGET if args.degree_budget is None else args.degree_budget
    report = wps.screen(weights, budget=budget)
    _emit(_envelope("screen", list(weights.weights), report.to_json(), None), args.format)
    if args.strict and report.verdict != "nef_not_semiample":
        return EXIT_STRICT_FAIL
    return EXIT_OK


def _cmd_scan(args) -> int:
    from . import wps

    budget = wps.DEGREE_BUDGET if args.degree_budget is None else args.degree_budget
    hits = []
    scanned = 0
    errors = 0
    for item in wps.scan_weights(args.max_weight, min_weight=args.min_weight,
                                 well_formed_only=not args.include_ill_formed,
                                 limit=args.limit, budget=budget):
        scanned += 1
        if isinstance(item, dict):
            errors += 1
            continue
        if item.verdict == "nef_not_semiample":
            hits.append({"weights": list(item.weights.weights), "m": item.m})
    result = {"scanned": scanned, "errors": errors, "hits": hits}
    _emit(_envelope("scan", {"min_weight": args.min_weight,
                             "max_weight": args.max_weight}, result, None),
          args.format)
    return EXIT_OK


def _cmd_table(args) -> int:
    from . import wps

    results = wps.reproduce_table(path=args.fixture)
    rows = []
    for r in results:
        rows.append({
            "weights": list(r.row.weights),
            "expected_m": r.row.m,
            "computed_m": r.computed_m,
            "verdict": r.verdict,
            "pass": r.passed,
        })
    failures = [r for r in rows if not r["pass"]]
    result = {
        "rows": rows,
        "total": len(rows),
        "passed": len(rows) - len(failures),
        "failed": [r["weights"] for r in failures],
    }
    _emit(_envelope("table", {"fixture": args.fixture or "bundled"}, result, None),
          args.format)
    if args.strict and failures:
        return EXIT_STRICT_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticejets",
        description="Exact computations with jets of monomial embeddings, "
                    "lattice widths, and weighted-projective-space screening.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_points = sub.add_parser("points", help="jets, speciality, forms, base points")
    p_points.add_argument("input", help="point-config JSON (path or inline)")
    p_points.add_argument("--m", type=int, default=2, help="jet/form order")
    p_points.add_argument("--direction", help="base direction, e.g. '0,1'")

    p_poly = sub.add_parser("polytope", help="lattice widths and pseudonef bound")
    p_poly.add_argument("input", help="polytope JSON (path or inline)")
    p_poly.add_argument("--direction", help="extra direction to measure")
    p_poly.add_argument("--count-points", action="store_true")
    p_poly.add_argument("--width-budget", type=int, default=polytope.WIDTH_BUDGET,
                        help="fibers plus candidate points the width certification may visit")
    p_poly.add_argument("--enum-budget", type=int, default=polytope.LATTICE_POINT_BUDGET,
                        help="fibers plus points --count-points may visit")

    p_classify = sub.add_parser("classify", help="surface normal-form classification")
    p_classify.add_argument("input", help="polygon JSON (path or inline)")

    p_screen = sub.add_parser("screen", help="screen one weight vector")
    p_screen.add_argument("weights", help="e.g. '7,11,13,15' or '[7,11,13,15]'")
    # default None: the handler reads wps.DEGREE_BUDGET, so the parser loads no wps
    p_screen.add_argument("--degree-budget", type=int, default=None)

    p_table = sub.add_parser("table", help="reproduce the 93-row table")
    p_table.add_argument("--fixture", help="alternative CSV path")

    p_scan = sub.add_parser("scan", help="screen a whole weight range (exploratory)")
    p_scan.add_argument("--max-weight", type=int, required=True)
    p_scan.add_argument("--min-weight", type=int, default=2)
    p_scan.add_argument("--include-ill-formed", action="store_true")
    p_scan.add_argument("--limit", type=int, help="stop after this many hits")
    p_scan.add_argument("--degree-budget", type=int, default=None)

    # each flag goes only to the subcommands that read it
    for p in (p_points, p_poly, p_classify, p_screen, p_table, p_scan):
        p.add_argument("--format", choices=("json", "text"), default="json")
    for p in (p_screen, p_table):
        p.add_argument("--strict", action="store_true",
                       help="exit 1 on negative mathematical verdicts")
    for p in (p_points, p_poly):
        p.add_argument("--oracle", action="store_true",
                       help="run independent brute-force cross-checks")
    p_poly.add_argument("--oracle-bound", type=int, default=10,
                        help="direction box bound for oracle scans")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "points": _cmd_points,
        "polytope": _cmd_polytope,
        "classify": _cmd_classify,
        "screen": _cmd_screen,
        "table": _cmd_table,
        "scan": _cmd_scan,
    }
    try:
        return handlers[args.command](args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        if exc.diagnostics:
            sys.stderr.write(json.dumps(exc.diagnostics, default=str) + "\n")
        return EXIT_BUDGET
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except InvariantError as exc:
        sys.stderr.write(f"internal invariant failed (a bug, not bad input): {exc}\n")
        return EXIT_INVARIANT
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
