"""Reference values computed apart from the program.

Nothing here imports latticejets: the published table is read straight from
the bundled CSV, and every other reference (weight enumeration,
well-formedness, normal forms, hulls, Pick's identity, affine maps) is plain
integer arithmetic written for the benchmark alone.
"""

from __future__ import annotations

import csv
import random
from itertools import combinations
from math import gcd

TABLE_CSV = ("src", "latticejets", "data", "nonmds_table.csv")


class CheckFailed(Exception):
    """A program output disagreed with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# weighted projective spaces
# ---------------------------------------------------------------------------

def published_table(root) -> dict[tuple[int, int, int, int], int]:
    """The published rows as {weights: m}, in file order."""
    path = root.joinpath(*TABLE_CSV)
    with open(path, newline="", encoding="utf-8") as handle:
        return {tuple(int(r[k]) for k in ("a1", "a2", "a3", "a4")): int(r["m"])
                for r in csv.DictReader(handle)}


def lcm(values) -> int:
    out = 1
    for x in values:
        out = out * x // gcd(out, x)
    return out


def weighted_degree(exponents, weights) -> int:
    return sum(e * w for e, w in zip(exponents, weights))


def _representable(target: int, gens) -> bool:
    """Is target a sum of the generators (with repetition)?"""
    reach = {0}
    for value in range(1, target + 1):
        if any(value - g in reach for g in gens if g <= value):
            reach.add(value)
    return target in reach


def well_formed_quadruples(max_weight: int, min_weight: int = 2) -> list[tuple[int, ...]]:
    """Strictly increasing quadruples with gcd 1 where no weight is a sum of the others."""
    out = []
    for quad in combinations(range(min_weight, max_weight + 1), 4):
        if gcd(gcd(quad[0], quad[1]), gcd(quad[2], quad[3])) != 1:
            continue
        if any(_representable(a, quad[:i] + quad[i + 1:]) for i, a in enumerate(quad)):
            continue
        out.append(quad)
    return out


# ---------------------------------------------------------------------------
# planar normal forms
# ---------------------------------------------------------------------------

def sweep_shapes() -> list[tuple[str, int, int | None]]:
    """Every in-range normal-form type of the classification sweep."""
    shapes = []
    for total in range(4, 13):
        shapes += [("I", a, total - a) for a in range(1, total // 2 + 1)]
    shapes += [("II", a, None) for a in range(5, 13)]
    for total in range(4, 13):
        shapes += [("III", a, total - a) for a in range(1, total + 1)]
    for total in range(3, 13):
        shapes += [("IV", a, total - a) for a in range(1, total + 1)]
    return shapes


def normal_form_points(kind: str, a: int, b: int | None) -> list[tuple[int, int]]:
    return {
        "I": lambda: [(0, 0), (0, 1), (a, 1), (b, 0)],
        "II": lambda: [(0, 0), (0, 1), (a, 0)],
        "III": lambda: [(a, 0), (0, 1), (-b, 0), (0, -1)],
        "IV": lambda: [(a, 0), (0, 1), (-b, 0), (-1, -1)],
    }[kind]()


def canonical_params(kind: str, a: int, b: int | None) -> tuple[int, int | None]:
    """Parameters modulo the residual symmetries of each normal form.

    I: the two parallel lines swap, so b >= a. III: x -> -x, so a >= b.
    IV: (x, y) -> (-1 - x, -y) sends (a, b) to (b - 1, a + 1); the smaller
    pair with a >= 1, b >= 0 is canonical.
    """
    if kind == "I":
        return (min(a, b), max(a, b))
    if kind == "III":
        return (max(a, b), min(a, b))
    if kind == "IV":
        return min(r for r in ((a, b), (b - 1, a + 1)) if r[0] >= 1 and r[1] >= 0)
    return (a, b)


def hull2(points) -> list[tuple[int, int]]:
    """Extreme points in counterclockwise order (monotone chain)."""
    pts = sorted(set(points))

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    def chain(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out

    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def pick_count(vertices) -> int:
    """Lattice points of a polygon from Pick: 2A = 2I + B - 2, count = I + B."""
    cycle = hull2(vertices)
    twice_area = boundary = 0
    for i, (x0, y0) in enumerate(cycle):
        x1, y1 = cycle[(i + 1) % len(cycle)]
        twice_area += x0 * y1 - y0 * x1
        boundary += gcd(x1 - x0, y1 - y0)
    interior2 = twice_area - boundary + 2
    require(interior2 % 2 == 0, "shoelace area and boundary have the wrong parity")
    return interior2 // 2 + boundary


def affine(u, t, p) -> tuple[int, int]:
    return (u[0][0] * p[0] + u[0][1] * p[1] + t[0],
            u[1][0] * p[0] + u[1][1] * p[1] + t[1])


def random_unimodular(rng: random.Random, steps: int = 5, bound: int = 3):
    """A product of shears, quarter turns and reflections; det is +-1 by construction."""
    u = ((1, 0), (0, 1))
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            s = rng.randint(-bound, bound)
            m = ((1, s), (0, 1)) if rng.random() < 0.5 else ((1, 0), (s, 1))
        elif kind == 1:
            m = ((0, -1), (1, 0))
        else:
            m = ((-1, 0), (0, 1)) if rng.random() < 0.5 else ((1, 0), (0, -1))
        u = tuple(tuple(sum(m[i][k] * u[k][j] for k in range(2)) for j in range(2))
                  for i in range(2))
    return u
