"""Classification of special toric surfaces (k = m = 2 theory).

A full-dimensional lattice polygon with at least six lattice points whose
points lie on a conic falls, modulo affine unimodular equivalence, into one
of four normal forms: two parallel-line strips (a quadrilateral and a
triangle) and two crossing-line shapes distinguished by whether the crossing
point is a lattice point. The classifier is constructive and mirrors the
normalization by upper-triangular moves that fix the x-axis: it finds the
line carrying the most configuration points, moves it onto the x-axis and
reads the type off the residual points.

The conic itself is never solved for (the 3x3 symmetric matrix route would
need rational square roots and adds nothing here). Whether a conic exists
at all is the rank of the six rows x^a y^b (a + b <= 2) of the leading-term
matrix L_2, ``jets.rank_j`` on the configuration's memoised jet echelon; the
same elimination later answers ``base_locus_k2`` and ``is_special``. A conic
through three collinear points contains their line (Bezout), so once a line
carries three points the conic is a pair of lines L1 and L2, and no other
line carries more than two points. Two of the first three points share L1 or
L2, and the points off that line lie on the other one, so ``_line_pair``
keys a few candidate lines, collecting each line's points in one pass,
where the general ``_lines_through`` (kept for ``three_collinear``)
keys the line through every pair of points.

The equivalence suite reads lattice width one off the edge normals, with no
search over the dual lattice. If lw(P) = 1, P lies between two adjacent
lattice lines <v, x> = c and c + 1, and every vertex lies on one of them. A
polygon has at least three vertices, so one line holds two, and the segment
between them is an edge of P with primitive normal +-v, of width 1.
Conversely an edge normal of width 1 gives lw <= 1, and a full-dimensional
polygon has lw >= 1. The width along a facet normal needs only the facet
maxima: the facet (n, b) is the inequality <n, x> >= b, attained on its
edge, so the least value of <n, x> on P is b and the width along n is
max(<n, v> over the vertices v) - b. The facets are built with the hull.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import linalg
from .base_locus import base_locus_k2
from .errors import InputError, InvariantError, ToolkitError
from .jets import rank_j
from .polytope import (LatticePolytope, PointConfig, lattice_points, point_key, primitive,
                       sign_normalized)

TYPE_I, TYPE_II, TYPE_III, TYPE_IV, NOT_SPECIAL = "I", "II", "III", "IV", "NotSpecial"


class PolygonClass(NamedTuple):
    """Classification result with the normalizing affine unimodular map.

    ``transform`` sends the input polygon exactly onto the normal form:
    x -> U x + t. ``in_table_range`` records whether (a, b) meets the
    published parameter bounds (six-point boundary cases can fall outside
    them while still being special; see the ledger).
    """

    type: str
    a: Optional[int]
    b: Optional[int]
    transform_u: linalg.IntMatrix
    transform_t: tuple[int, int]
    in_table_range: bool = True

    def to_json(self) -> dict:
        return {
            "type": self.type,
            "a": self.a,
            "b": self.b,
            "transform": {"U": [list(r) for r in self.transform_u],
                          "t": list(self.transform_t)},
            "in_table_range": self.in_table_range,
        }


def _normal_form_vertices(kind: str, a: int, b: Optional[int] = None) -> tuple:
    """Vertices of the normal form in graded-lex order, without a hull.

    Exact for a >= 1 (and b >= 1 for type I), the parameters ``classify``
    reports. At b = 0 the point (-b, 0) = (0, 0) is no vertex: it lies on
    the edge from (0, 1) to (0, -1) for type III and inside the triangle
    for type IV.
    """
    if kind == TYPE_I:
        pts = [(0, 0), (0, 1), (a, 1), (b, 0)]
    elif kind == TYPE_II:
        pts = [(0, 0), (0, 1), (a, 0)]
    elif kind == TYPE_III:
        pts = [(a, 0), (0, 1), (0, -1)] + ([(-b, 0)] if b else [])
    elif kind == TYPE_IV:
        pts = [(a, 0), (0, 1), (-1, -1)] + ([(-b, 0)] if b else [])
    else:
        raise InputError(f"unknown polygon type {kind!r}")
    return tuple(sorted(pts, key=point_key))


def normal_form(kind: str, a: int, b: Optional[int] = None) -> LatticePolytope:
    """Normal-form polygon of the given type and parameters."""
    return LatticePolytope(_normal_form_vertices(kind, a, b))


def canonical_params(kind: str, a: int, b: Optional[int]) -> tuple[int, Optional[int]]:
    """Canonical (a, b) under the residual symmetries of each normal form."""
    if kind == TYPE_I:
        return (min(a, b), max(a, b))  # b >= a
    if kind == TYPE_II:
        return (a, None)
    if kind == TYPE_III:
        return (max(a, b), min(a, b))  # a >= b
    if kind == TYPE_IV:
        # (x,y) -> (-1-x,-y) identifies (a,b) with (b-1, a+1)
        reps = [(a, b), (b - 1, a + 1)]
        valid = [r for r in reps if r[0] >= 1 and r[1] >= 0]
        if not valid:
            raise InvariantError(f"type IV with no valid parameters: {(a, b)}")
        return min(valid)
    return (a, b)


def in_table_range(kind: str, a: int, b: Optional[int]) -> bool:
    if kind == TYPE_I:
        return 1 <= a <= b and a + b >= 4
    if kind == TYPE_II:
        return a >= 5
    if kind == TYPE_III:
        return a >= 1 and b >= 0 and a + b >= 4
    if kind == TYPE_IV:
        return a >= 1 and b >= 0 and a + b >= 3
    return True


def three_collinear(s: PointConfig):
    """A collinear triple of configuration points, if any exists."""
    if s.dim != 2:
        raise InputError("collinearity test is planar")
    for line_pts in _lines_through(s.points).values():
        if len(line_pts) >= 3:
            return True, tuple(sorted(line_pts, key=point_key)[:3])
    return False, None


def _line_key(p, q):
    """The line through p != q as (normal, offset): normal . x == offset on it,
    with the normal primitive and its first nonzero coordinate positive."""
    d = primitive((q[0] - p[0], q[1] - p[1]))
    normal = sign_normalized((-d[1], d[0]))
    return normal, normal[0] * p[0] + normal[1] * p[1]


def _lines_through(points):
    """Group points by the lines through pairs of them."""
    lines: dict[tuple, set] = {}
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            p, q = pts[i], pts[j]
            lines.setdefault(_line_key(p, q), set()).update((p, q))
    return lines


def _line_pair(points):
    """The lines carrying three or more of ``points``, keyed as in
    ``_lines_through``, when the points lie on a conic.

    The candidates are the lines through pairs of the first three points
    and, for each, the line through the first two points off it. The first
    candidate with three points is one line of the pair, and the line
    through the first two points off it is the other.
    """
    def split(p, q):
        key = _line_key(p, q)
        (nx, ny), c = key
        on, off = [], []
        for r in points:
            (on if nx * r[0] + ny * r[1] == c else off).append(r)
        return key, on, off

    p0, p1, p2 = points[:3]
    for p, q in ((p0, p1), (p0, p2), (p1, p2)):
        key, on, off = split(p, q)
        if len(on) < 3 and len(off) >= 2:
            key, on, off = split(*off[:2])
        if len(on) >= 3:
            lines = {key: on}
            if len(off) >= 2:
                key, on, _ = split(*off[:2])
                if len(on) >= 3:
                    lines[key] = on
            return lines
    return {}


def _then(u, t, u2, t2=(0, 0)):
    """The map x -> u2 (u x + t) + t2 as a pair (U, t), on 2x2 tuples."""
    (a, b), (c, d) = u
    (e, f), (g, h) = u2
    return (((e * a + f * c, e * b + f * d), (g * a + h * c, g * b + h * d)),
            (e * t[0] + f * t[1] + t2[0], g * t[0] + h * t[1] + t2[1]))


def classify(p: LatticePolytope) -> PolygonClass:
    """Four-type classification of a polygon with >= 6 lattice points."""
    if p.dim != 2:
        raise InputError("classification is for polygons")
    if not p.is_full_dim:
        raise InputError("polygon must be full-dimensional")
    pts = lattice_points(p)
    if len(pts) < 6:
        raise ToolkitError(f"hypothesis fails: {len(pts)} lattice points < 6")
    # a conic through the points exists iff the six rows x^a y^b (a + b <= 2)
    # of L_2 are dependent (full-dimensionality already rules out degree 1)
    if rank_j(pts, 2) == 6:
        return PolygonClass(NOT_SPECIAL, None, None, linalg.identity(2), (0, 0))

    lines = _line_pair(pts.points)
    if not lines:
        raise InvariantError("a conic passes through the points, but no line "
                             "carries three of them: no line pair found")
    best_pts = max(lines.items(), key=lambda item: (
        len(item[1]), [-x for x in item[0][0]], -item[0][1]))[1]
    anchor, nearest = best_pts[:2]  # ``_line_pair`` keeps the point_key order of pts
    d = primitive((nearest[0] - anchor[0], nearest[1] - anchor[1]))
    bz_s, bz_t = linalg.bezout(d[0], d[1])

    # x -> U (x - anchor) puts the line on the x-axis, within [0, hi]: the
    # anchor is its least point and d points to the others. The points are
    # mapped into this frame once; each later move composes onto (U, t), and
    # the axis and residual points are followed by hand.
    u = ((bz_s, bz_t), (-d[1], d[0]))
    t = (-bz_s * anchor[0] - bz_t * anchor[1], d[1] * anchor[0] - d[0] * anchor[1])
    frame = [(bz_s * x + bz_t * y + t[0], d[0] * y - d[1] * x + t[1]) for x, y in pts]
    hi = max(q[0] for q in frame if q[1] == 0)
    residual = [q for q in frame if q[1] != 0]
    levels = sorted({q[1] for q in residual})
    if not residual:
        raise InvariantError("collinear configuration reached the classifier")

    if len(levels) == 1:
        h = levels[0]
        if h < 0:
            u, t = _then(u, t, ((1, 0), (0, -1)))
            h = -h
        if h != 1:
            raise InvariantError(f"parallel residual at level {h}, conic impossible")
        top = [q[0] for q in residual]  # x is unchanged by the reflection
        # the shear that starts the top line at x = 0 keeps the axis
        u, t = _then(u, t, ((1, -min(top)), (0, 1)))
        if len(top) == 1:
            kind, a, b = TYPE_II, hi, None
        else:
            kind, a, b = TYPE_I, max(top) - min(top), hi
            if a > b:  # y -> 1 - y swaps the two parallel lines
                u, t = _then(u, t, ((1, 0), (0, -1)), (0, 1))
                a, b = b, a
    else:
        if levels != [-1, 1] or len(residual) != 2:
            raise InvariantError(f"crossing residual {residual} out of shape")
        up = next(q for q in residual if q[1] == 1)
        dn = next(q for q in residual if q[1] == -1)
        u, t = _then(u, t, ((1, -up[0]), (0, 1)))
        c = up[0] + dn[0]  # x of the lower point after the shear
        kind = TYPE_III if c % 2 == 0 else TYPE_IV
        # shift by -ceil(c / 2) and shear back: the lower point lands on
        # (0, -1) for type III and on (-1, -1) for type IV, the upper on (0, 1)
        shift = -c // 2
        u, t = _then(u, t, ((1, -shift), (0, 1)), (shift, 0))
        a, b = hi + shift, -shift
        if kind == TYPE_III and b > a:
            u, t = _then(u, t, ((-1, 0), (0, 1)))
            a, b = b, a
        if kind == TYPE_IV:
            ca, cb = canonical_params(TYPE_IV, a, b)
            if (ca, cb) != (a, b):
                u, t = _then(u, t, ((-1, 0), (0, -1)), (-1, 0))
                a, b = ca, cb

    # the map is affine unimodular, so it sends vertices to vertices: the
    # transform check needs no hull, on either side
    expected = _normal_form_vertices(kind, a, b)
    (u00, u01), (u10, u11) = u
    got_vertices = tuple(sorted(
        ((u00 * x + u01 * y + t[0], u10 * x + u11 * y + t[1]) for x, y in p.vertices),
        key=point_key))
    if got_vertices != expected:
        raise InvariantError(
            f"normalization mismatch: type {kind} (a={a}, b={b}) expected "
            f"{expected}, got {got_vertices}")
    return PolygonClass(kind, a, b, u, t, in_table_range=in_table_range(kind, a, b))


# ---------------------------------------------------------------------------
# the k = m = 2 equivalence suite
# ---------------------------------------------------------------------------

class TeoDim2Record(NamedTuple):
    """The three equivalent predicates for a polygon with >= 6 points."""

    width_is_one: bool        # (1) lw = 1
    base_point_exists: bool   # (3) the degree-2 form system has a base point
    base_curve_implied: bool  # (2), implied by (1); not computed independently
    equivalent: bool

    def to_json(self) -> dict:
        return {"lw_is_1": self.width_is_one,
                "base_point": self.base_point_exists,
                "base_curve_implied": self.base_curve_implied,
                "equivalent": self.equivalent}


def teo_dim2_suite(p: LatticePolytope) -> TeoDim2Record:
    """The k = m = 2 equivalence on a polygon with >= 6 lattice points.

    (1) is read off the edge normals: lw(P) = 1 exactly when some edge's
    primitive normal has width 1 (see the module docstring), so the
    certified ``lattice_width`` search never runs here. Along the normal n
    of the facet (n, b) the width is the facet maximum max(<n, v>) over the
    vertices, minus b, the facet's own minimum. (3) is the gcd of the
    degree-2 form system, ``base_locus_k2``. They must agree.
    """
    pts = lattice_points(p)
    if len(pts) < 6:
        raise ToolkitError(f"hypothesis fails: {len(pts)} lattice points < 6")
    vertices = p.vertices
    cond1 = any(max([nx * x + ny * y for x, y in vertices]) - b == 1
                for (nx, ny), b in p.facets())
    locus = base_locus_k2(pts, 2)
    cond3 = locus.gcd_degree >= 1
    record = TeoDim2Record(width_is_one=cond1, base_point_exists=cond3,
                           base_curve_implied=cond1, equivalent=cond1 == cond3)
    if not record.equivalent:
        raise InvariantError(f"width/base-point equivalence failed: {record}")
    return record
