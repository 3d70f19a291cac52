"""Screening of weighted projective 3-spaces for nef-but-not-semiample classes.

Pipeline per weight vector w = (a1, a2, a3, a4):

1. the two lowest-degree binomial relations among the weighted monomials
   (exponent differences u1, u2, both orthogonal to w), found one degree at
   a time: one degree-ordered heap yields each monomial once, and a
   primitive relation u is x^{u+} - x^{u-} for exactly one pair of
   monomials with disjoint supports, so each degree's relations come from
   its disjoint-support pairs alone, and no degree past u2's is paired;
2. a vector v~ completing w to a Z-basis of the rank-2 lattice orthogonal
   to u1 and u2 (the tangent direction of the one-parameter subgroup), in
   closed form: one Euclid completion of w to a unimodular basis, and the
   cross product of u1 and u2 read in its last three rows, with no Smith
   form, kernel or solve;
3. m = the width of the Riemann-Roch simplex in direction v~;
4. projection of the simplex to a full-dimensional lattice simplex in Z^3
   with v~ mapped to (1,0,0), followed by the obstruction conditions. Both
   simplices are built in closed form with no hull: the Riemann-Roch
   simplex's vertices are (lcm/a_i) e_i, and the projected facets are the
   planes through each three vertices, oriented by the fourth. The weight
   lattice's Hermite basis is read in closed form from gcds and modular
   inverses of the weights (``_weight_lattice``), and the vertex
   coordinates by back-substitution on it, with no Smith form, Hermite
   elimination or solve. ``project_to_3d`` runs once, for the canonical
   sign of v~; the negated sign's image, facets included, is its
   reflection about the top vertex (``_negated``);
5. the nefness certificate: generator degrees below lcm(w)/m plus
   saturation of the generated relation lattice, read off the gcd of its
   maximal minors.

The verdict is nef_not_semiample only when every predicate passes. The
screen does not certify m as the lattice width of the Riemann-Roch simplex
(it never calls ``polytope.lattice_width``); v~ is the direction observed to
realize the width, and the published m values are reproduced exactly from it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .errors import BudgetExceededError, InputError, InvariantError, ToolkitError
from .polytope import (Direction, Facet, LatticePolytope, _as_point, _frozen, _int_arg,
                       _simplex_facets, point_key, sign_normalized, width_in_direction)
from .screen import CorollaryReport, NefReport, corollary_check, nef_check

DEGREE_BUDGET = 4000
MAX_EXTRA_GENERATORS = 5


class WeightVector:
    """Weights of a weighted projective 3-space."""

    __slots__ = ("weights",)
    __setattr__ = __delattr__ = _frozen

    def __init__(self, weights: Sequence[int]):
        w = _as_point(weights)
        if len(w) != 4 or any(x <= 0 for x in w):
            raise InputError("need four positive weights")
        if gcd(*w) != 1:
            raise InputError("weights must have gcd 1")
        object.__setattr__(self, "weights", w)

    def __repr__(self):
        return f"WeightVector(weights={self.weights!r})"

    def __eq__(self, other):
        return self.weights == other.weights if type(other) is WeightVector else NotImplemented

    def __hash__(self):
        return hash((self.weights,))

    def __reduce__(self):
        return WeightVector, (self.weights,)

    @property
    def lcm(self) -> int:
        return lcm(*self.weights)

    @property
    def well_formed(self) -> bool:
        """No weight is a sum of the others: not the standard "no three weights share a factor".

        For increasing weights it reads one prefix at a time, a_j not a sum of
        a_1 .. a_{j-1}, as ``scan_weights`` walks it, in ``combinations`` order.
        """
        return not any(_in_semigroup(a, [b for j, b in enumerate(self.weights) if j != i])
                       for i, a in enumerate(self.weights))


def _semigroup_closure(reach: int, gens: Sequence[int], top: int) -> int:
    """The bitmask ``reach`` (bit i: i is a sum) closed under the positive gens, cut at top.

    Closing it under +g, then +2g, +4g, ... adds every multiple of g up to
    top, and closing under each generator in turn adds every combination of
    them; the scan's walk closes a prefix's mask under its next weight.
    """
    mask = (1 << (top + 1)) - 1
    for g in gens:
        shift = g
        while shift <= top:
            reach |= (reach << shift) & mask
            shift *= 2
    return reach


def _in_semigroup(target: int, gens: Sequence[int]) -> bool:
    """Whether target is a sum of the positive gens (0 is the empty sum)."""
    return _semigroup_closure(1, gens, target) >> target & 1 == 1


class BinomialGenerator(NamedTuple):
    """Binomial x^{u+} - x^{u-} of the weighted relation ideal."""

    u: tuple[int, int, int, int]
    degree: int

    @property
    def u_plus(self) -> tuple[int, ...]:
        return tuple(max(x, 0) for x in self.u)

    @property
    def u_minus(self) -> tuple[int, ...]:
        return tuple(max(-x, 0) for x in self.u)

    def text(self) -> str:
        return f"{_monomial_text(self.u_plus)} - {_monomial_text(self.u_minus)}"

    def to_json(self) -> dict:
        return {"u": list(self.u), "degree": self.degree, "binomial": self.text()}


def _monomial_text(e) -> str:
    parts = []
    for i, a in enumerate(e):
        if a == 1:
            parts.append(f"x{i + 1}")
        elif a > 1:
            parts.append(f"x{i + 1}^{a}")
    return "*".join(parts) if parts else "1"


def _binomial_batches(w: WeightVector, budget: int = DEGREE_BUDGET):
    """The binomials of weighted degree d, one list for each d = 1 .. budget that has any.

    The monomials come from one heap of (degree, exponents, last), seeded
    with 1: popping x^a pushes x^a x_i for i >= last, so each monomial is
    pushed once, from its one parent, and a degree's monomials leave the
    heap together, in lex order. A degree is popped only when the next
    batch is asked for, so a reader that stops at u2's batch, as
    ``lowest_degree_binomials`` does, pairs no degree past u2's. A primitive
    relation u is x^{u+} - x^{u-} for exactly one pair of monomials with
    disjoint supports, so a degree's list is the primitive, sign-normalized
    differences of its disjoint-support pairs, ordered by graded-lex on u+.
    A pair sharing support c has the difference of the pair with c removed,
    of lower degree, so no relation appears twice. Past the budget this
    raises ``BudgetExceededError``.
    """
    weights = w.weights
    heap = [(0, (0, 0, 0, 0), 0)]
    while (d := heap[0][0]) <= budget:
        mons = []
        while heap[0][0] == d:
            _, a, last = heappop(heap)
            mons.append(a)
            for i in range(last, 4):
                heappush(heap, (d + weights[i], a[:i] + (a[i] + 1,) + a[i + 1:], i))
        batch = []
        for i, a in enumerate(mons):
            for b in mons[i + 1:]:
                if not any(x and y for x, y in zip(a, b)):
                    u = tuple(x - y for x, y in zip(a, b))
                    if gcd(*u) == 1:
                        batch.append(BinomialGenerator(u=sign_normalized(u), degree=d))
        if batch:
            batch.sort(key=lambda g: point_key(g.u_plus))
            yield batch
    raise BudgetExceededError(
        f"no further binomials up to weighted degree {budget}",
        diagnostics={"weights": w.weights, "degree_budget": budget})


def lowest_degree_binomials(w: WeightVector, budget: int = DEGREE_BUDGET):
    """The two lowest-degree binomials, and the ties of the second one's degree.

    Binomials come one degree at a time (``_binomial_batches``, whose one
    degree-ordered heap yields each monomial once), and no degree past the
    second binomial's is paired. They are distinct, primitive
    and sign-normalized, so no two are parallel and the first two are
    linearly independent. Returns (chosen, alternatives): alternatives are
    the rest of the second one's degree. A ``budget`` that is not an int is
    an ``InputError``.
    """
    batches = _binomial_batches(w, _int_arg("budget", budget))
    found: list[BinomialGenerator] = []
    while len(found) < 2:
        found += next(batches)
    return found[:2], found[2:]


def rr_polytope(w: WeightVector) -> LatticePolytope:
    """Riemann-Roch simplex {u >= 0 : u.w = lcm(w)} in Z^4."""
    big = w.lcm
    verts = [tuple(big // a if j == i else 0 for j in range(4)) for i, a in enumerate(w.weights)]
    return LatticePolytope._trusted(4, tuple(sorted(verts, key=point_key)))


def width_direction(w: WeightVector, u1: Sequence[int], u2: Sequence[int]) -> tuple[int, ...]:
    """v~ completing w to a Z-basis of the lattice orthogonal to u1 and u2.

    w is primitive, so it is the first row of a unimodular U
    (``linalg.complete_to_unimodular``). In the basis w, U[1], U[2], U[3],
    the lattice orthogonal to u1 and u2 is Z w plus the kernel of the 2 x 3
    matrix (u_i . U[j]), which is spanned by its rows' cross product c over
    gcd(c); c is zero exactly when u1 and u2 are dependent. The result is
    certified: orthogonal to u1 and u2, with the 2 x 2 minors of [w; v~]
    coprime. Normalized modulo sign and modulo adding multiples of w: the
    first coordinate is reduced into [0, w1) and the lexicographically
    smaller of the two sign choices is returned.
    """
    wt = w.weights
    us = []
    for u in (u1, u2):
        p = _as_point(u)
        if len(p) != len(wt):
            raise InputError(f"exponent vector {p} has length {len(p)}, expected 4")
        if sum(map(mul, p, wt)) != 0:
            raise InputError(f"exponent vector {u} is not orthogonal to the weights")
        us.append(p)
    basis = linalg.complete_to_unimodular(wt)[1:]
    (a1, a2, a3), (b1, b2, b3) = ([sum(map(mul, p, row)) for row in basis]
                                  for p in us)
    c = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    g = gcd(*c)
    if not g:
        raise InputError("u-vectors must be linearly independent")
    v = _reduce_mod_weights(
        tuple(sum(k // g * x for k, x in zip(c, col)) for col in zip(*basis)), wt)
    minors = (wt[i] * v[j] - wt[j] * v[i] for i, j in combinations(range(4), 2))
    if any(sum(map(mul, p, v)) for p in us) or gcd(*minors) != 1:
        raise InvariantError(f"v~ = {v} is not a basis completion of the weights")
    return v


def _reduce_mod_weights(v, w):
    candidates = []
    for sign in (1, -1):
        vv = tuple(sign * x for x in v)
        q = vv[0] // w[0]
        candidates.append(tuple(x - q * y for x, y in zip(vv, w)))
    return min(candidates)


def _residue(c: int, a: int, g: int, p: int) -> int:
    """The x in [0, p) with a x + c = 0 modulo g p; g divides a and c, and a/g is prime to p."""
    return -(c // g) * pow(a // g, -1, p) % p if p > 1 else 0


def _weight_lattice(w: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The Hermite basis of {x : w.x = 0}, for w in Z^4 with gcd 1 and w4 != 0.

    The basis is upper triangular with pivots in the first three columns. The
    pivot of column j is the least x_j > 0 of a lattice vector that is zero
    before column j: with g34 = gcd(a3, a4) and g234 = gcd(a2, g34) these are
    g234 (a1 is prime to it), g34 / g234 and |a4| / g34. Each entry above a
    pivot, in column j, is the residue in [0, pivot) that makes the row's
    partial sum a1 x1 + ... + aj xj divisible by gcd(a_{j+1}, ..., a4)
    (``_residue``), and the last column makes w.x = 0. The Hermite form is
    unique, so this is ``linalg.integral_kernel([w])`` with no Smith or
    Hermite elimination.
    """
    a1, a2, a3, a4 = w
    g34 = gcd(a3, a4)
    g234 = gcd(a2, g34)
    p1, p2, p3 = g234, g34 // g234, abs(a4) // g34
    h12 = _residue(a1 * p1, a2, g234, p2)
    h13 = _residue(a1 * p1 + a2 * h12, a3, g34, p3)
    h23 = _residue(a2 * p2, a3, g34, p3)
    return tuple((x1, x2, x3, -(a1 * x1 + a2 * x2 + a3 * x3) // a4)
                 for x1, x2, x3 in ((p1, h12, h13), (0, p2, h23), (0, 0, p3)))


def _triangular_coordinates(basis, x: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """The c with c B = x for an upper triangular 3 x 4 ``basis`` B, or None off its lattice.

    Back-substitution down the three pivot columns, each quotient exact, then
    the fourth coordinate checked.
    """
    (p1, h12, h13, e1), (_, p2, h23, e2), (_, _, p3, e3) = basis
    c1, r1 = divmod(x[0], p1)
    c2, r2 = divmod(x[1] - c1 * h12, p2)
    c3, r3 = divmod(x[2] - c1 * h13 - c2 * h23, p3)
    if r1 or r2 or r3 or c1 * e1 + c2 * e2 + c3 * e3 != x[3]:
        return None
    return c1, c2, c3


def project_to_3d(rr: LatticePolytope, v_tilde: Sequence[int], w: WeightVector):
    """Quotient the weight hyperplane to Z^3, sending v~ to (1, 0, 0).

    ``rr`` is a simplex in Z^4 on one level of w, as ``rr_polytope`` builds
    it; another ``rr``, or a v~ that does not complete w to a basis modulo
    w, is an ``InputError``. Returns (polytope, direction): the vertices'
    weight-lattice coordinates relative to the v~-least vertex (graded-lex
    least on a tie), mapped by the Euclid completion of v~'s projection, so
    the level function is the first coordinate and widths transfer
    unchanged. The weight lattice's Hermite basis is read in closed form
    (``_weight_lattice``) and the coordinates by back-substitution on it; the
    facets come in closed form, with no hull.
    """
    v_tilde = _as_point(v_tilde)
    wt = w.weights
    if len(v_tilde) != len(wt):
        raise InputError(f"direction {v_tilde} has length {len(v_tilde)}, expected 4")
    if rr.dim != len(wt):
        raise InputError(f"polytope has dimension {rr.dim}, expected 4")
    if len({sum(map(mul, x, wt)) for x in rr.vertices}) != 1:
        raise InputError(f"polytope vertices are not on one level of the weights {wt}")
    basis = _weight_lattice(wt)
    values = [sum(map(mul, x, v_tilde)) for x in rr.vertices]
    anchor = rr.vertices[values.index(min(values))]  # vertices are in point_key order
    coords = [_triangular_coordinates(basis, tuple(a - b for a, b in zip(x, anchor)))
              for x in rr.vertices]
    if None in coords:
        raise InvariantError("vertex outside the weight-orthogonal lattice")
    v_q = tuple(sum(map(mul, row, v_tilde)) for row in basis)
    if not any(v_q):
        raise InputError("direction is a multiple of the weights")
    if gcd(*v_q) != 1:
        raise InputError(f"projected direction {v_q} is imprimitive")
    u = linalg.complete_to_unimodular(v_q)
    verts = tuple(sorted((linalg.mat_vec(u, c) for c in coords), key=point_key))
    return LatticePolytope._trusted(3, verts, _simplex_facets(verts)), Direction((1, 0, 0))


def _negated(projected: LatticePolytope) -> LatticePolytope:
    """``project_to_3d`` for -v~, read off its image for v~ with a unique top vertex.

    Euclid on -v_q picks the same pivots and floor quotients as on v_q, so
    its completion is v_q's with the first row negated; the new anchor is the
    top vertex t, so x maps to (t_1 - x_1, x_2 - t_2, x_3 - t_3). The facets
    are reflected too: n.x >= b becomes (-n_1, n_2, n_3).y >= b - n.t.
    """
    t1, t2, t3 = max(projected.vertices, key=lambda x: x[0])
    verts = tuple(sorted(((t1 - x1, x2 - t2, x3 - t3) for x1, x2, x3 in projected.vertices),
                         key=point_key))
    facets = tuple(sorted(Facet((-n1, n2, n3), b - n1 * t1 - n2 * t2 - n3 * t3)
                          for (n1, n2, n3), b in projected.facets()))
    return LatticePolytope._trusted(3, verts, facets)


def saturate_generators(w: WeightVector, u1, u2, generators,
                        budget: int = DEGREE_BUDGET,
                        max_extra: int = MAX_EXTRA_GENERATORS):
    """Extend the generators until they span a saturated lattice.

    Candidates are the binomials by ascending degree, restricted to the
    rational plane of u1 and u2 (relations vanishing on the one-parameter
    subgroup); only candidates that strictly improve the lattice index are
    kept, and the number of extensions is bounded. A ``budget`` or
    ``max_extra`` that is not an int is an ``InputError``.
    """
    budget = _int_arg("budget", budget)
    max_extra = _int_arg("max_extra", max_extra)
    l_rows = [g.u for g in generators]
    index = linalg.lattice_index(l_rows)
    extensions = 0
    candidates = None
    while index != 1:
        if extensions >= max_extra:
            raise BudgetExceededError(
                "saturation not reached within the generator budget",
                diagnostics={"weights": w.weights, "generators": l_rows})
        if candidates is None:
            skip = {g.u for g in generators}
            candidates = (b for batch in _binomial_batches(w, budget) for b in batch
                          if b.u not in skip)
        cand = next(candidates)
        if linalg.rank([u1, u2, cand.u]) != 2:
            continue
        trial = l_rows + [cand.u]
        trial_index = linalg.lattice_index(trial)
        # trial contains l_rows and both span the plane, so an equal index is an equal lattice
        if trial_index == index:
            continue  # no index improvement
        generators = generators + [cand]
        l_rows, index = trial, trial_index
        extensions += 1
    return generators


# ---------------------------------------------------------------------------
# the full screen
# ---------------------------------------------------------------------------

class ScreenReport(NamedTuple):
    """Full audit record of one weight vector's screening."""

    weights: WeightVector
    lcm: int
    binomials: tuple[BinomialGenerator, ...]
    alternatives: tuple[BinomialGenerator, ...]
    v_tilde: tuple[int, int, int, int]
    m: int
    vertex_values: tuple[int, ...]
    projected: LatticePolytope
    direction: Direction
    corollary: CorollaryReport
    nef: NefReport
    verdict: str  # "nef_not_semiample" | "inconclusive"

    def to_json(self) -> dict:
        return {
            "weights": list(self.weights.weights),
            "well_formed": self.weights.well_formed,
            "lcm": self.lcm,
            "binomials": [b.to_json() for b in self.binomials],
            "alternatives": [b.to_json() for b in self.alternatives],
            "v_tilde": list(self.v_tilde),
            "vertex_values": list(self.vertex_values),
            "m": self.m,
            "projected_polytope": self.projected.to_json(),
            "direction": list(self.direction.coords),
            "corollary": self.corollary.to_json(),
            "nef": self.nef.to_json(),
            "verdict": self.verdict,
        }


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except BudgetExceededError:
        raise
    except ToolkitError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def screen(w: WeightVector | Sequence[int], budget: int = DEGREE_BUDGET) -> ScreenReport:
    """Run the whole pipeline on one weight vector.

    A ``budget`` that is not an int is an ``InputError``.
    """
    budget = _int_arg("budget", budget)
    if not isinstance(w, WeightVector):
        w = WeightVector(tuple(w))
    big = w.lcm
    chosen, alternatives = _stage("binomials", lowest_degree_binomials, w, budget)
    u1, u2 = chosen[0], chosen[1]
    v_canonical = _stage("width_direction", width_direction, w, u1.u, u2.u)
    rr = _stage("rr_polytope", rr_polytope, w)
    projected, direction = _stage("projection", project_to_3d, rr, v_canonical, w)
    # the obstruction conditions live on the min side of the direction and
    # v~ is only determined up to sign, so evaluate the canonical sign first
    # and keep the passing orientation. Negating v~ swaps the min and max
    # vertices, so both signs share cond1: the negated one runs only when
    # cond1 holds, and its top vertex, the one _negated anchors on, is unique
    best = None
    for sign in (1, -1):
        v_tilde = tuple(sign * x for x in v_canonical)
        if sign < 0:
            projected = _negated(projected)
        values = tuple(sum(map(mul, x, v_tilde)) for x in rr.vertices)
        m = max(values) - min(values)
        if width_in_direction(projected, direction) != m:
            raise InvariantError("projection changed the width")
        corollary = _stage("corollary", corollary_check, projected, direction)
        passed = corollary.all_conditions and corollary.verified
        if best is None or passed:
            best = (v_tilde, values, m, projected, direction, corollary)
        if passed or not corollary.cond1:
            break
    v_tilde, values, m, projected, direction, corollary = best

    generators = saturate_generators(w, u1.u, u2.u, list(chosen), budget=budget)
    l_rows = [g.u for g in generators]

    nef = _stage("nef", nef_check, [g.degree for g in generators], big, m, l_rows)
    ok = corollary.all_conditions and corollary.verified and nef.nef
    return ScreenReport(
        weights=w, lcm=big, binomials=tuple(generators),
        alternatives=tuple(alternatives), v_tilde=v_tilde, m=m,
        vertex_values=values, projected=projected, direction=direction,
        corollary=corollary, nef=nef,
        verdict="nef_not_semiample" if ok else "inconclusive")


# ---------------------------------------------------------------------------
# the published 93-row table
# ---------------------------------------------------------------------------

class TableRow(NamedTuple):
    weights: tuple[int, int, int, int]
    m: int


class TableRowResult(NamedTuple):
    row: TableRow
    computed_m: int
    verdict: str
    report: ScreenReport

    @property
    def passed(self) -> bool:
        return self.computed_m == self.row.m and self.verdict == "nef_not_semiample"


def load_table(path: Optional[str] = None) -> list[TableRow]:
    """The bundled 93-row fixture (or an alternative CSV of the same shape)."""
    import csv  # deferred, as hashlib in rows_by_hash: the screen path never needs them
    from importlib import resources

    if path is None:
        source = resources.files("latticejets.data").joinpath("nonmds_table.csv")
        text = source.read_text()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read table file {path!r}: {exc}") from exc
    rows = []
    for record in csv.DictReader(text.splitlines()):
        try:
            rows.append(TableRow(
                weights=(int(record["a1"]), int(record["a2"]),
                         int(record["a3"]), int(record["a4"])),
                m=int(record["m"])))
        except (KeyError, ValueError) as exc:
            raise InputError(f"bad table row {record}: {exc}") from exc
    return rows


def reproduce_table(path: Optional[str] = None) -> list[TableRowResult]:
    """Screen every table row, in row order."""
    results = []
    for row in load_table(path):
        report = screen(WeightVector(row.weights))
        results.append(TableRowResult(row=row, computed_m=report.m,
                                      verdict=report.verdict, report=report))
    return results


def rows_by_hash(rows: Sequence[TableRow], count: int) -> list[TableRow]:
    """Deterministic pseudo-random row sample: sort by sha256 of the weights."""
    import hashlib

    count = _int_arg("count", count)

    def key(row: TableRow):
        text = ",".join(map(str, row.weights))
        return hashlib.sha256(text.encode()).hexdigest()

    return sorted(rows, key=key)[:count]


def scan_weights(max_weight: int, min_weight: int = 2, well_formed_only: bool = True,
                 limit: Optional[int] = None, budget: int = DEGREE_BUDGET):
    """Screen all ordered weight quadruples in a range; yield the reports.

    Exploratory mode beyond the published table: quadruples are strictly
    increasing with gcd 1, walked by prefix (``_increasing_quadruples``), so
    with ``well_formed_only`` no other quadruple reaches the gcd test. Budget
    exhaustion, bad input and other stage errors on individual quadruples are
    recorded as skips, not fatal; an ``InvariantError`` is a bug, not an
    inconclusive quadruple, and propagates.
    ``min_weight`` must be >= 1 and ``limit`` (>= 1) stops it after that many
    hits; either below 1 is an ``InputError``, as is a ``max_weight``,
    ``min_weight``, ``limit`` or ``budget`` that is not an int.
    """
    max_weight = _int_arg("max_weight", max_weight)
    min_weight = _int_arg("min_weight", min_weight)
    budget = _int_arg("budget", budget)
    if limit is not None:
        limit = _int_arg("limit", limit)
    if min_weight < 1:
        raise InputError("min_weight must be >= 1")
    if limit is not None and limit < 1:
        raise InputError("limit must be >= 1")
    hits = 0
    for quad in _increasing_quadruples(min_weight, max_weight, well_formed_only):
        if gcd(*quad) != 1:
            continue
        w = WeightVector(quad)
        try:
            report = screen(w, budget=budget)
        except InvariantError:
            raise
        except ToolkitError as exc:
            yield {"weights": list(quad), "error": str(exc)}
            continue
        yield report
        if report.verdict == "nef_not_semiample":
            hits += 1
            if limit is not None and hits >= limit:
                return


def _increasing_quadruples(lo: int, hi: int, well_formed_only: bool, prefix=(), reach=1):
    """The increasing quadruples in [lo, hi] extending ``prefix``, in ``combinations`` order.

    ``reach`` is the prefix's semigroup bitmask cut at hi. Only smaller weights
    sum to a weight, so dropping each weight whose bit is set, with its
    extensions, keeps exactly the ``WeightVector.well_formed`` quadruples.
    """
    for a in range(prefix[-1] + 1 if prefix else lo, hi + 1):
        if well_formed_only and reach >> a & 1:
            continue
        if len(prefix) == 3:
            yield prefix + (a,)
        else:
            yield from _increasing_quadruples(lo, hi, well_formed_only, prefix + (a,),
                                              _semigroup_closure(reach, (a,), hi))
