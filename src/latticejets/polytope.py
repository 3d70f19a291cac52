"""Lattice polytopes and point configurations.

Everything is exact: vertices are integer tuples, facet inequalities are
primitive integer normals with integer offsets, memberships are integer
comparisons. Lattice points come from one fiber kernel that reads only
integer inequalities: Fourier-Motzkin elimination (Motzkin 1936, pruned by
Chernikov's rule 1965, which alone keeps every projection exact) projects
the system onto x_1..x_j for every j, and coordinates are fixed one at a
time, each over the integer range that its projection leaves. A
two-variable system skips the general projections:
``_walk_plane`` reads the y-range from one Fourier-Motzkin combination of
each pair of opposite rows and then each y's z-range, with the same points,
order and budget charges as the kernel. ``_enumerate_system`` picks between
the two by the dimension alone, and every enumeration goes through it.
``lattice_points`` runs it on the facet system; ``slice_points`` runs it on
the facets restricted to the level x_1 = level when the direction is e_1 (a
3-D slice is then a polygon walk), and on the facet system plus the level
written as two rows for any other direction, so a slice is enumerated inside
the slice only, never through the full polytope, because Riemann-Roch
polytopes of weighted projective spaces are far too large to enumerate;
``lattice_width`` runs it on a dual region of slabs. All three are bounded
by a budget on the fibers and points visited.

Lattice-width certification is a flatness argument (Lenstra 1983): any
direction v whose width is at most the best seed W0 has |<v, w - x0>| <= W0
for every vertex w and the least vertex x0. These slabs, one pair per vertex,
bound a region since the vertex differences span. Its integer points are
enumerated by the fiber kernel (the Fincke-Pohst scheme, 1985); if that
stays within budget the search is exhaustive and the result is certified.

One hull pass (``_hull``) gives the vertices, dimension and facets: one ccw
cycle of Andrew's monotone chain (1979) for a polygon, ``_simplex_facets``
(the hyperplane through each k of the k + 1 vertices, oriented by the last
one) for a full-dimensional simplex, and one facet search that also finds
the vertices otherwise. Lower-dimensional point sets (hulls, quotient widths)
are handled in integer coordinates on a basis of their saturated difference
lattice, read with the rank and the width lift off one Hermite form
(``_affine_coordinates``). A polytope whose vertices are known
in closed form (the Riemann-Roch simplices of ``wps`` and their projections
to Z^3) runs no hull at all: ``LatticePolytope._trusted`` takes them as given.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import gcd
from operator import index, mul
from typing import Iterable, NamedTuple, Optional, Sequence

from . import linalg
from .errors import BudgetExceededError, InputError, InvariantError, ToolkitError

Point = tuple[int, ...]

LATTICE_POINT_BUDGET = 2_000_000
WIDTH_BUDGET = 2_000_000


def point_key(p: Sequence[int]):
    """Graded-lex order on integer vectors: by coordinate sum, then lex."""
    return (sum(p), tuple(p))


def direction_key(v: Sequence[int]):
    """Graded-lex order for directions: by L1 norm, then lex."""
    return (sum(abs(x) for x in v), tuple(v))


def _as_int(x) -> int:
    """``x`` as an int; a bool, float, string or None is a TypeError."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    return index(x)


def _int_arg(name: str, x) -> int:
    """``x`` as an int; a bool, float, string or None is an InputError."""
    try:
        return _as_int(x)
    except TypeError:
        raise InputError(f"{name} {x!r} is not an integer") from None


def _as_point(p, k=None) -> Point:
    """``p`` as a tuple of ints; a bool, float, string or None is an InputError, not truncated."""
    try:
        seq = tuple(p)
        pt = tuple(map(index, seq))
    except TypeError:
        raise InputError(f"{p!r} is not a vector of integers") from None
    if bool in map(type, seq):  # index() would read True as 1
        raise InputError(f"{p!r} is not a vector of integers")
    if k is not None and len(pt) != k:
        raise InputError(f"point {pt} has dimension {len(pt)}, expected {k}")
    return pt


def primitive(v: Sequence[int]) -> Point:
    g = gcd(*v)
    if g == 0:
        raise ToolkitError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def sign_normalized(v: Sequence[int]) -> Point:
    """v or -v, whichever has its first nonzero coordinate positive."""
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    raise InvariantError("zero vector has no sign normalization")


def _frozen(self, name, *_):
    raise AttributeError(f"cannot assign to field {name!r}")


class Direction:
    """Nonzero primitive integer vector in the dual lattice."""

    __slots__ = ("coords",)
    __setattr__ = __delattr__ = _frozen

    def __init__(self, coords: Sequence[int]):
        c = _as_point(coords)
        if not any(c):
            raise InputError("direction must be nonzero")
        if gcd(*c) != 1:
            raise InputError(f"direction {c} is not primitive")
        object.__setattr__(self, "coords", c)

    def __repr__(self):
        return f"Direction(coords={self.coords!r})"

    def __eq__(self, other):
        return self.coords == other.coords if type(other) is Direction else NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    def __reduce__(self):
        return Direction, (self.coords,)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def pair(self, p: Sequence[int]) -> int:
        return sum(map(mul, self.coords, p))


class PointConfig:
    """Ordered lattice point configuration S = {p_0, ..., p_n}.

    ``_jet_echelon`` is the jet elimination that ``jets`` memoises on the
    configuration; it takes no part in ``==``, ``hash`` or ``repr``.
    """

    __slots__ = ("dim", "points", "_jet_echelon")
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, dim: int, points: Iterable[Sequence[int]]):
        if type(dim) is not int or dim < 1:  # a bool is no dimension
            raise InputError(f"dimension must be an integer >= 1, got {dim!r}")
        pts = tuple(_as_point(p, dim) for p in points)
        if len(set(pts)) != len(pts):
            raise InputError("duplicate points in configuration")
        return cls._trusted(dim, pts)

    @classmethod
    def _trusted(cls, dim: int, points: tuple[Point, ...]) -> "PointConfig":
        """A configuration of distinct int tuples of length ``dim``, unchecked:
        for points the fiber kernel has just enumerated."""
        cfg = object.__new__(cls)
        object.__setattr__(cfg, "dim", dim)
        object.__setattr__(cfg, "points", points)
        object.__setattr__(cfg, "_jet_echelon", None)
        return cfg

    def __repr__(self):
        return f"PointConfig(dim={self.dim!r}, points={self.points!r})"

    def __eq__(self, other):
        if type(other) is not PointConfig:
            return NotImplemented
        return self.dim == other.dim and self.points == other.points

    def __hash__(self):
        return hash((self.dim, self.points))

    def __reduce__(self):
        return PointConfig, (self.dim, self.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def apply(self, u: linalg.IntMatrix, t: Sequence[int] | None = None) -> "PointConfig":
        t = _as_point(t, self.dim) if t is not None else (0,) * self.dim
        pts = tuple(tuple(x + y for x, y in zip(linalg.mat_vec(u, p), t)) for p in self.points)
        return PointConfig(self.dim, pts)

    @property
    def differences_generate(self) -> bool:
        """True iff pairwise differences generate all of Z^k (index one): their
        Hermite form, the one canonical basis of their lattice, is the identity."""
        if len(self.points) < 2:
            return self.dim == 0
        base = self.points[0]
        diffs = [tuple(a - b for a, b in zip(p, base)) for p in self.points[1:]]
        return linalg.hermite_normal_form(diffs) == linalg.identity(self.dim)


class Facet(NamedTuple):
    """Half-space <normal, x> >= offset with primitive integer normal."""

    normal: Point
    offset: int


class LatticePolytope:
    """Convex hull of integer points; vertices are exactly the extreme points."""

    __slots__ = ("dim", "vertices", "affine_dim", "_facets", "_lattice_points")

    def __init__(self, points: Iterable[Sequence[int]], dim: int | None = None):
        pts = [_as_point(p) for p in points]
        if not pts:
            raise InputError("polytope needs at least one point")
        k = dim if dim is not None else len(pts[0])
        if type(k) is not int or k < 1:  # a bool is no dimension
            raise InputError(f"dimension must be an integer >= 1, got {k!r}")
        for p in pts:
            if len(p) != k:
                raise InputError("inconsistent point dimensions")
        self.dim = k
        self.vertices, self.affine_dim, self._facets = _hull(sorted(set(pts), key=point_key), k)
        self._lattice_points = None

    @classmethod
    def _trusted(cls, dim: int, vertices: tuple[Point, ...],
                 facets: tuple[Facet, ...] | None = None) -> "LatticePolytope":
        """A polytope on distinct int vertices of length ``dim`` in ``point_key``
        order, unchecked: for polytopes whose vertices are known in closed form.
        With ``facets`` (sorted, as ``facets()`` returns them) it is
        full-dimensional; without, the vertices are affinely independent and
        span less than full dimension, so ``facets()`` raises."""
        p = object.__new__(cls)
        p.dim = dim
        p.vertices = vertices
        p.affine_dim = dim if facets is not None else len(vertices) - 1
        p._facets = facets
        p._lattice_points = None
        return p

    def __repr__(self):
        return f"LatticePolytope(dim={self.dim}, vertices={list(self.vertices)})"

    def __eq__(self, other):
        return (isinstance(other, LatticePolytope)
                and self.dim == other.dim and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.dim, self.vertices))

    # -- basic geometry -----------------------------------------------------

    @property
    def is_full_dim(self) -> bool:
        return self.affine_dim == self.dim

    def facets(self) -> tuple[Facet, ...]:
        if self._facets is None:
            raise ToolkitError("facet description requires a full-dimensional polytope")
        return self._facets

    def contains(self, p: Sequence[int]) -> bool:
        p = _as_point(p, self.dim)
        return all(sum(map(mul, f.normal, p)) >= f.offset for f in self.facets())

    def dilate(self, r: int) -> "LatticePolytope":
        r = _int_arg("dilation factor", r)
        if r < 1:
            raise InputError("dilation factor must be >= 1")
        return LatticePolytope([tuple(r * x for x in v) for v in self.vertices], self.dim)

    def to_json(self) -> dict:
        return {"dim": self.dim, "vertices": [list(v) for v in self.vertices]}

    @classmethod
    def from_json(cls, data) -> "LatticePolytope":
        try:
            if isinstance(data, str):
                data = json.loads(data)
            return cls(data["vertices"], dim=_as_int(data["dim"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad polytope JSON: {exc}") from exc


def config_from_json(data) -> PointConfig:
    try:
        if isinstance(data, str):
            data = json.loads(data)
        return PointConfig(_as_int(data["dim"]), tuple(data["points"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad point-config JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# hull machinery (the monotone chain in the plane, the closed form for a
# simplex, brute-force facet enumeration for anything else; fine for the small
# inputs this toolkit meets, and exact)
# ---------------------------------------------------------------------------

def polygon_ccw_vertices(points: Iterable[Sequence[int]]) -> list[Point]:
    """Hull vertices of distinct planar points in counterclockwise cyclic order.

    Andrew's monotone chain (1979), starting from the lex-least point. Points
    inside an edge are not vertices; collinear points give the two ends and a
    single point gives itself.
    """
    pts = sorted(tuple(p) for p in points)
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):  # the lower chain; on the reversed points, the upper one
        chain = []
        for q in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], q) <= 0:
                chain.pop()
            chain.append(q)
        return chain[:-1]

    return half(pts) + half(reversed(pts))


def _polygon_facets(cycle: Sequence[Point]) -> tuple[Facet, ...]:
    """One facet per edge a -> b of a ccw cycle: the inner normal is b - a turned left."""
    facets = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        normal = primitive((a[1] - b[1], b[0] - a[0]))
        facets.append(Facet(normal, normal[0] * a[0] + normal[1] * a[1]))
    return tuple(sorted(facets))


def _hyperplane_through(points: Sequence[Point], k: int):
    """Primitive normal and offset of the hyperplane through k points, or None."""
    base = points[0]
    if k == 1:
        return (1,), base[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    if k == 3:
        d1, d2 = diffs
        n = (d1[1] * d2[2] - d1[2] * d2[1],
             d1[2] * d2[0] - d1[0] * d2[2],
             d1[0] * d2[1] - d1[1] * d2[0])
        if not any(n):
            return None  # collinear triple
        normal = primitive(n)
    else:
        kernel = linalg.integral_kernel(diffs)
        if len(kernel) != 1:
            return None  # points do not span a hyperplane
        normal = primitive(kernel[0])
    return normal, sum(map(mul, normal, base))


def _facets_of(points: Sequence[Point], k: int) -> tuple[Facet, ...]:
    facets = set()
    for subset in combinations(points, k):
        hp = _hyperplane_through(subset, k)
        if hp is None:
            continue
        normal, offset = hp
        values = [sum(map(mul, normal, p)) for p in points]
        if all(v >= offset for v in values):
            facets.add(Facet(normal, offset))
        elif all(v <= offset for v in values):
            facets.add(Facet(tuple(-x for x in normal), -offset))
    return tuple(sorted(facets))


def _simplex_facets(vertices: Sequence[Point]) -> tuple[Facet, ...]:
    """``_facets_of`` for the k + 1 vertices of a full-dimensional simplex in Z^k.

    Facet i is the hyperplane through every vertex but the i-th, oriented so
    that the i-th lies on its inner side; no other vertex is tested. Vertices
    that do not span a full-dimensional simplex are an InputError.
    """
    k = len(vertices) - 1
    facets = []
    for i, apex in enumerate(vertices):
        hp = _hyperplane_through(vertices[:i] + vertices[i + 1:], k) if len(apex) == k else None
        value = None if hp is None else sum(map(mul, hp[0], apex))
        if value is None or value == hp[1]:
            raise InputError(f"{list(vertices)} do not span a full-dimensional simplex")
        normal, offset = hp
        facets.append(Facet(normal, offset) if value > offset
                      else Facet(tuple(-x for x in normal), -offset))
    return tuple(sorted(facets))


def _affine_coordinates(points: Sequence[Point]):
    """(coords, T): integer coordinates of ``points`` on a basis of their
    saturated difference lattice, and the rows t_i that read them.

    The row Hermite form of [D^T | I_k], with D the differences p - points[0],
    is U [D^T | I_k] with U unimodular (Cohen 1993, section 2.4). Its first r
    rows (h_i, t_i) have a nonzero left block, r the rank of D, and the others
    have a zero one: so coords(p)_i = t_i . (p - points[0]) is the column of
    p in the left blocks, and since U is unimodular these are coordinates on a
    Z-basis of the saturated lattice. T is the tuple of the t_i, and r = len(T).
    """
    base, n = points[0], len(points)
    h = linalg.hermite_normal_form([(*(p[j] - base[j] for p in points), *e)
                                    for j, e in enumerate(linalg.identity(len(base)))])
    nonzero = [any(row[:n]) for row in h]
    r = nonzero.count(True)
    if len(h) != len(base) or any(nonzero[r:]):
        raise InvariantError("Hermite form of [D^T | I] is not U [D^T | I] in echelon shape")
    left = [row[:n] for row in h[:r]]
    return list(zip(*left)) if r else [()] * n, tuple(row[n:] for row in h[:r])


def _hull(points: Sequence[Point], k: int):
    """(vertices in graded-lex order, dimension, sorted facets or None below
    full dimension) of conv(points), for distinct points."""
    if k == 2:  # a cycle of r + 1 <= 3 vertices spans dimension r
        cycle = polygon_ccw_vertices(points)
        r = min(len(cycle) - 1, 2)
        return tuple(sorted(cycle, key=point_key)), r, _polygon_facets(cycle) if r == 2 else None
    coords, t = _affine_coordinates(points)
    r = len(t)
    if len(points) == r + 1:  # a simplex: every point is a vertex
        vertices = tuple(sorted(points, key=point_key))
        return vertices, r, _simplex_facets(vertices) if r == k else None
    if r < k:  # lower-dimensional hull: recurse on the coordinates in the affine span
        keep = set(_hull(sorted(coords, key=point_key), r)[0])
        return tuple(p for p, c in zip(points, coords) if c in keep), r, None
    facets = _facets_of(points, k)
    out = []
    for p in points:
        active = [f.normal for f in facets
                  if sum(map(mul, f.normal, p)) == f.offset]
        if active and linalg.rank(active) == k:
            out.append(p)
    return tuple(sorted(out, key=point_key)), k, facets


# ---------------------------------------------------------------------------
# lattice point enumeration
# ---------------------------------------------------------------------------

def lattice_points(p: LatticePolytope, budget: int = LATTICE_POINT_BUDGET) -> PointConfig:
    """All points of P cap Z^k in graded-lex order.

    Fiber enumeration on the facet system: coordinates are fixed one at a
    time, each over the integer range its Fourier-Motzkin projection leaves,
    so the cost follows the point count (plus one range per fiber), not the
    bounding-box volume. The budget guards against polytopes that are too
    large to enumerate at all (Riemann-Roch simplices of weight vectors); a
    ``budget`` that is not an int is an InputError.
    """
    budget = _int_arg("budget", budget)
    if p._lattice_points is not None:
        return p._lattice_points
    if not p.is_full_dim:
        raise ToolkitError("lattice-point enumeration requires a full-dimensional polytope")
    pts: list[Point] = []
    _enumerate_system(p.facets(), p.dim, pts, [0, budget])
    pts.sort(key=sum)  # the kernel emits lex order; a stable sort by sum makes it point_key order
    p._lattice_points = PointConfig._trusted(p.dim, tuple(pts))
    return p._lattice_points


def _enumerate_system(rows, k, out, counter):
    """Emit the integer points of {x in Z^k : <a, x> >= b for (a, b) in rows} in lex order.

    Two variables take ``_walk_plane``; any other k takes the general kernel.
    Both read exact real projections, so they give the same integer ranges,
    the same points in the same order, and the same budget charges.
    """
    if k == 2:
        _walk_plane(rows, out, counter)
    else:
        _enumerate_fibers(_projections(rows, k), (), out, counter)


def _walk_plane(rows, out, counter):
    """``_enumerate_fibers`` for k = 2: rows ((a, b), c) mean a y + b z >= c.

    The y-range comes from the rows with b = 0 and from one Fourier-Motzkin
    combination of each pair of rows with b > 0 and b < 0, exactly the rows
    of the kernel's S_1, read by its ``_fiber_interval``; each y's z-range
    is then a ceiling and a floor per row. A row 0 >= c with c > 0 empties
    the plane, and a missing bound is the kernel's "unbounded fiber". Budget
    as the kernel's: 1 on entry, then the count plus 1 for each nonempty
    z-fiber.
    """
    pos = [(a, b, c) for (a, b), c in rows if b > 0]
    neg = [(a, b, c) for (a, b), c in rows if b < 0]
    y_rows = [((a,), c) for (a, b), c in rows if not b]
    y_rows += [((b1 * a2 - b2 * a1,), b1 * c2 - b2 * c1)
               for a1, b1, c1 in pos for a2, b2, c2 in neg]
    ys = _fiber_interval(y_rows, ())
    _charge(counter, 1)
    if not ys:
        return
    if not pos or not neg:
        raise ToolkitError("unbounded fiber in lattice-point enumeration")
    for y in ys:
        z_lo = max([-((a * y - c) // b) for a, b, c in pos])  # ceil((c - a y) / b)
        z_hi = min([(c - a * y) // b for a, b, c in neg])  # floor, as b < 0
        if z_lo <= z_hi:
            _charge(counter, z_hi - z_lo + 2)
            out.extend([(y, z) for z in range(z_lo, z_hi + 1)])


def _projections(ineqs, k):
    """Integer systems S_1..S_k, S_j on x_1..x_j the real projection of {x : ineqs}.

    Rows (a, b) mean <a, x> >= b. S_j comes from S_{j+1} by Fourier-Motzkin
    elimination of x_{j+1} (Motzkin 1936), and each row carries a bitmask of
    the input rows it was combined from. Chernikov's rule (1965) drops a row
    combined from more than t + 1 input rows after t eliminations; such a row
    is implied by the others, so the rule alone keeps every S_j exact.
    """
    rows = [(tuple(a), b, 1 << i) for i, (a, b) in enumerate(ineqs)]
    systems = [[(a, b) for a, b, _ in rows]]
    for j in range(k - 1, 0, -1):  # the (k - j)-th elimination, of x_{j+1}
        combined = [(a[:j], b, m) for a, b, m in rows if not a[j]]
        for a1, b1, m1 in (row for row in rows if row[0][j] > 0):
            for a2, b2, m2 in (row for row in rows if row[0][j] < 0):
                m = m1 | m2
                if m.bit_count() <= k - j + 1:
                    c1, c2 = -a2[j], a1[j]
                    combined.append((tuple(c1 * x + c2 * y for x, y in zip(a1[:j], a2[:j])),
                                     c1 * b1 + c2 * b2, m))
        rows = combined
        systems.append([(a, b) for a, b, _ in rows])
    systems.reverse()
    return systems


def _fiber_interval(rows, prefix) -> range:
    """Integer range of x_j on {x : rows} with x_1..x_{j-1} = prefix, empty if none.

    Rows (a, b) mean <a, x> >= b on x_1..x_j. A bounded nonempty system
    restricts to two-sided bounds, so a missing bound means an empty fiber
    appeared upstream.
    """
    j = len(prefix)
    lo, hi = None, None
    for a, b in rows:
        n, b = a[j], b - sum(map(mul, a, prefix))
        if n > 0:
            bound = -(-b // n)  # ceil(b / n)
            if lo is None or bound > lo:
                lo = bound
        elif n < 0:
            bound = b // n  # floor(b / n) for negative n
            if hi is None or bound < hi:
                hi = bound
        elif b > 0:
            return range(0)
    if lo is None or hi is None:
        raise ToolkitError("unbounded fiber in lattice-point enumeration")
    return range(lo, hi + 1)


def _enumerate_fibers(systems, prefix, out, counter):
    """Emit the integer points of {x : systems[-1]} that extend ``prefix``.

    The next coordinate ranges over its ``_projections`` system. Budget: an
    intermediate fiber counts once, on entry; a last-coordinate fiber counts
    once with its points, and only when it is nonempty.
    """
    values = _fiber_interval(systems[len(prefix)], prefix)
    if len(prefix) + 1 < len(systems):
        _charge(counter, 1)
        for c in values:
            _enumerate_fibers(systems, prefix + (c,), out, counter)
    elif values:
        _charge(counter, len(values) + 1)
        out.extend(prefix + (c,) for c in values)


def _charge(counter, n):
    """Count n more fibers or points against the budget ``counter[1]``."""
    counter[0] += n
    if counter[0] > counter[1]:
        raise BudgetExceededError(
            f"lattice-point enumeration exceeded the budget {counter[1]}",
            diagnostics={"budget": counter[1]})


def width_in_direction(p: LatticePolytope, v: Direction) -> int:
    """max - min of <x, v> over P, evaluated on vertices only."""
    if len(v.coords) != p.dim:
        raise InputError("direction dimension mismatch")
    values = [v.pair(x) for x in p.vertices]
    return max(values) - min(values)


def slice_points(p: LatticePolytope, v: Direction, level: int) -> PointConfig:
    """Lattice points of P on the hyperplane <x,v> = level, in graded-lex order.

    Only the slice is visited, never the full polytope. When v = e_1 =
    (1, 0, ..., 0), the direction ``screen`` slices along, the slice is the
    single x_1-fiber x_1 = level: it is charged 1, as the kernel charges an
    x_1-fiber, each facet (n, b) becomes the row ((n_2, ..., n_k),
    b - n_1 level) on x_2..x_k, that system is enumerated (a 3-D slice is a
    ``_walk_plane`` polygon), and the level is put back in front. Any other
    direction adds the level to the facet system as the two rows
    <v,x> >= level and <-v,x> >= -level and enumerates that. Either way ``_enumerate_system``
    reads the fiber ranges off exact projections, so both give the kernel's
    points, order and charges. A level that is not an int (a bool, float or
    string) is an InputError.
    """
    level = _int_arg("level", level)
    if len(v.coords) != p.dim:
        raise InputError("direction dimension mismatch")
    values = [v.pair(x) for x in p.vertices]
    if level < min(values) or level > max(values):
        return PointConfig._trusted(p.dim, ())
    k = p.dim
    pts: list[Point] = []
    counter = [0, LATTICE_POINT_BUDGET]
    if k > 1 and v.coords[0] == 1 and not any(v.coords[1:]):
        _charge(counter, 1)
        rows = [(n[1:], b - n[0] * level) for n, b in p.facets()]
        _enumerate_system(rows, k - 1, pts, counter)
        pts = [(level,) + q for q in pts]
    else:
        rows = [*p.facets(), (v.coords, level), (tuple(-x for x in v.coords), -level)]
        _enumerate_system(rows, k, pts, counter)
    pts.sort(key=sum)  # the kernel emits lex order; a stable sort by sum makes it point_key order
    return PointConfig._trusted(k, tuple(pts))


def unimodular_image(p: LatticePolytope, u: linalg.IntMatrix,
                     t: Sequence[int] | None = None) -> LatticePolytope:
    """Image of P under x -> U x + t for a unimodular k x k U, k = P.dim."""
    u = tuple(map(tuple, u))
    if len(u) != p.dim or any(len(row) != p.dim for row in u):
        raise InputError(f"transformation matrix is not {p.dim} x {p.dim}")
    u = linalg.integer_matrix(u)
    if linalg.bareiss_det(u) not in (1, -1):
        raise InputError("transformation matrix is not unimodular")
    t = _as_point(t, p.dim) if t is not None else (0,) * p.dim
    verts = [tuple(x + y for x, y in zip(linalg.mat_vec(u, vtx), t)) for vtx in p.vertices]
    return LatticePolytope(verts, p.dim)


# ---------------------------------------------------------------------------
# lattice width
# ---------------------------------------------------------------------------

class WidthResult(NamedTuple):
    width: int
    direction: Optional[Direction]
    certified: bool


def lattice_width(p: LatticePolytope, budget: int = WIDTH_BUDGET) -> WidthResult:
    """Minimal lattice width, a minimizing direction, and a certification flag.

    Directions have their first nonzero coordinate positive, and ties go to
    the least ``direction_key``: a certified result is the least minimizing
    direction. ``budget`` bounds the fibers plus candidate points that the
    fiber kernel visits on the slab rows |<v, w - x0>| <= W0, two for each
    vertex w but the least one x0. Every width, one included, comes from that
    search; past the budget, the best seed (facet normals and coordinate
    directions) is returned with ``certified=False``.
    Non-full-dimensional polytopes use the quotient definition: widths are
    measured in the lattice quotient by the orthogonal of the affine span,
    on the vertex coordinates t_i . (x - x_0) of ``_affine_coordinates``, and
    the direction u found there lifts to v, the sign-normalized sum of the
    u_i t_i, so <v, x - x_0> = +-<u, coords(x)>. A ``budget`` that is not an
    int is an InputError.
    """
    budget = _int_arg("budget", budget)
    r = p.affine_dim
    if r == 0:
        return WidthResult(0, None, True)
    if r < p.dim:
        return _quotient_width(p, budget)

    k = p.dim
    seeds = {sign_normalized(f.normal) for f in p.facets()} | set(linalg.identity(k))
    best_w, _, best_v = min((width_in_direction(p, Direction(v)), direction_key(v), v)
                            for v in seeds)
    x0 = p.vertices[0]
    diffs = [tuple(a - b for a, b in zip(w, x0)) for w in p.vertices[1:]]
    ineqs = [(d, -best_w) for d in diffs] + [(tuple(-x for x in d), -best_w) for d in diffs]
    points: list[Point] = []
    try:
        _enumerate_system(ineqs, k, points, [0, budget])
    except BudgetExceededError:
        return WidthResult(best_w, Direction(best_v), False)
    except ToolkitError as exc:  # an unbounded fiber: the differences do not span
        raise InvariantError(f"vertex differences do not span Z^{k}") from exc
    # a non-primitive point is no narrower than its primitive multiple, also a point
    candidates = {sign_normalized(v) for v in points if gcd(*v) == 1} - seeds
    for v in sorted(candidates, key=direction_key):
        w = width_in_direction(p, Direction(v))
        if (w, direction_key(v)) < (best_w, direction_key(best_v)):
            best_w, best_v = w, v
            if w == 1:
                break  # no width is below 1, and the order puts the least key first
    return WidthResult(best_w, Direction(best_v), True)


def _quotient_width(p: LatticePolytope, budget: int) -> WidthResult:
    coords, t = _affine_coordinates(p.vertices)
    res = lattice_width(LatticePolytope(coords, len(t)), budget)
    # <v, x - x_0> = <u, coords(x)> for v = sum u_i t_i, primitive as U is unimodular
    lift = [sum(map(mul, res.direction.coords, col)) for col in zip(*t)]
    return WidthResult(res.width, Direction(sign_normalized(lift)), res.certified)
