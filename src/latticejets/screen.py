"""Non-semiampleness and nefness screening over a polarized lattice polytope.

The obstruction test takes a width direction v and checks three exact
conditions: the extreme hyperplanes of v touch the polytope in single
vertices; the lattice points one level above the minimum affinely span a
subspace of codimension at least two; and the segment joining the extreme
vertices misses that span. When all three hold, every lattice point of the
polytope lies on an explicit degree-m hypersurface whose top form is the
m-th power of the level function: an affine paraboloid catches the three
extreme levels and one stacked hyperplane per remaining level.

Condition (3) holds exactly when the witness's affine form f exists, so
one linear solve decides it and yields f. A failed (2) implies a failed
(3): the slice then spans its level hyperplane, which the segment crosses.

The witness stays factored (paraboloid plus a level range); expanding a
degree-4275 polynomial in three variables is neither feasible nor useful.
Its paraboloid is s^2 + s - m f, with s the level form and f = F / D the
affine form through the min+1 slice and the minimal vertex, F integer, D > 0;
verification decides the integer identity D s (s + 1) = m F slice-wise, and
polynomials form only for reports. The stacked levels vanish by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from operator import mul
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .errors import InputError, InvariantError, ToolkitError
from .poly import MultiPoly
from .polytope import (Direction, LatticePolytope, PointConfig, _as_int, _as_point, _int_arg,
                       point_key, slice_points)


class CorollaryWitness(NamedTuple):
    """Degree-m hypersurface through all lattice points, in factored form.

    Vanishing set: the paraboloid s^2 + s - m f covers levels min, min+1 and
    max; the factors s - i (s the integer level form, i = 1 .. m-2) cover
    every level in between identically. f = F / D stays integer, so
    ``is_zero_at`` is D s (s + 1) == m F; the polynomials form on demand.
    """

    direction: Direction
    min_level: int
    max_level: int
    f_numerator: tuple[int, ...]  # F: coefficients of x_1 .. x_k, then the constant
    f_denominator: int            # D > 0, with gcd(F, D) = 1

    @property
    def degree(self) -> int:
        return self.max_level - self.min_level

    def _scaled_f(self, point) -> int:  # F(point) = D f(point)
        return sum(map(mul, self.f_numerator, point)) + self.f_numerator[-1]

    def is_zero_at(self, point) -> bool:
        if len(point) != len(self.direction.coords):
            raise InputError("point dimension mismatch")
        s = self.direction.pair(point) - self.min_level - 1
        return (1 <= s <= self.degree - 2  # a stacked hyperplane level
                or self.f_denominator * s * (s + 1) == self.degree * self._scaled_f(point))

    @property
    def level_form(self) -> MultiPoly:  # s = <x, v> - (min+1)
        return MultiPoly.affine(self.direction.coords, -(self.min_level + 1))

    @property
    def f(self) -> MultiPoly:  # vanishes on Lambda and at p_min
        return MultiPoly.affine(self.f_numerator[:-1], self.f_numerator[-1]).scale(
            Fraction(1, self.f_denominator))

    @property
    def g(self) -> MultiPoly:  # s - f; vanishes on Lambda and at p_max
        return self.level_form - self.f

    @property
    def paraboloid(self) -> MultiPoly:  # s^2 - f(p_max) f - g(p_min) g = s^2 + s - m f
        s = self.level_form
        return s * s + s - self.f.scale(self.degree)

    def expanded(self, term_budget: int = 200_000) -> MultiPoly:
        """Full expansion (small widths only; raises past the budget)."""
        term_budget = _int_arg("term_budget", term_budget)
        m = self.degree
        k = len(self.direction.coords)
        if comb(m + k, k) > term_budget:
            raise ToolkitError(f"expansion of a degree-{m} witness exceeds the budget")
        out = self.paraboloid
        for i in range(1, m - 1):
            out = out * (self.level_form - MultiPoly.constant(k, i))
        return out

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "level_form": self.level_form.integer_normalized().text("x"),
            "paraboloid": self.paraboloid.integer_normalized().text("x"),
            "hyperplane_levels": [self.min_level + 2, self.max_level - 1],
            "f": self.f.text("x"),
            "g": self.g.text("x"),
        }


class CorollaryReport(NamedTuple):
    """Audit record of the three-condition obstruction test."""

    direction: Direction
    lw: int
    p_min: Optional[tuple]
    p_max: Optional[tuple]
    slice_config: PointConfig
    cond1: bool
    cond2: bool
    cond3: bool
    cond2_vacuous: bool
    witness: Optional[CorollaryWitness]
    verified: bool

    @property
    def all_conditions(self) -> bool:
        return self.cond1 and self.cond2 and self.cond3

    def to_json(self) -> dict:
        return {
            "direction": list(self.direction.coords),
            "lw": self.lw,
            "p_min": list(self.p_min) if self.p_min else None,
            "p_max": list(self.p_max) if self.p_max else None,
            "slice_points": [list(p) for p in self.slice_config.points],
            "cond1_extreme_vertices_unique": self.cond1,
            "cond2_slice_span_codim_ge_2": self.cond2,
            "cond2_vacuous": self.cond2_vacuous,
            "cond3_line_misses_span": self.cond3,
            "witness": self.witness.to_json() if self.witness else None,
            "verified": self.verified,
        }


def corollary_check(p: LatticePolytope, v: Direction) -> CorollaryReport:
    """Evaluate the obstruction conditions for (P, v) and build the witness.

    v is taken as given: the report records lw_v(P), the width in direction
    v, and does not certify that it is minimal, that is, the lattice width.

    Condition (3) is one affine system: f = 0 on the min+1 slice Lambda and
    at p_min, f(p_max) = lw - 1. For lw >= 2 the right side is nonzero, so
    f exists iff p_max is off aff(Lambda + p_min). As p_min is on level lo
    and p_max on hi >= lo + 2, that holds iff the line p_min p_max misses
    aff(Lambda), which lies on level lo + 1. When (2) fails, aff(Lambda) is
    that whole level hyperplane, which the line crosses; when lw = 1, Lambda
    holds p_max. Either way (3) fails and nothing is solved. The basis rows
    span the row space of all of Lambda's, so the canonical solution is the same.
    """
    if v.dim != p.dim:
        raise InputError("direction dimension mismatch")
    if not p.is_full_dim:
        raise InputError("obstruction test needs a full-dimensional polytope")
    values = [v.pair(x) for x in p.vertices]
    lo, hi = min(values), max(values)
    lw = hi - lo
    mins = [x for x, val in zip(p.vertices, values) if val == lo]
    maxs = [x for x, val in zip(p.vertices, values) if val == hi]
    cond1 = len(mins) == 1 and len(maxs) == 1
    p_min = min(mins, key=point_key)
    p_max = min(maxs, key=point_key)

    slice_cfg = slice_points(p, v, lo + 1)
    basis = _affine_basis(slice_cfg.points, p.dim - 1)  # the slice is on one level
    cond2_vacuous = not basis
    cond2 = len(basis) < p.dim  # aff(Lambda) has dimension len(basis) - 1

    sol = None
    if cond2 and lw >= 2:
        rows = [q + (1,) for q in basis + (p_min, p_max)]
        sol = linalg.solve(rows, [0] * (len(basis) + 1) + [lw - 1])
    cond3 = sol is not None

    witness = None
    verified = False
    if cond1 and cond2 and cond3:
        witness = _build_witness(v, sol, p_min, p_max, lo, hi)
        verified = _verify_witness(p, v, witness, p_min, p_max, slice_cfg, lo, hi)
    return CorollaryReport(direction=v, lw=lw, p_min=p_min, p_max=p_max,
                           slice_config=slice_cfg, cond1=cond1, cond2=cond2,
                           cond3=cond3, cond2_vacuous=cond2_vacuous,
                           witness=witness, verified=verified)


def _affine_basis(points, max_rank: int) -> tuple:
    """The points, in order, that raise the affine rank: an affine basis of their span.

    The first point is kept, then every point whose difference from it is
    outside the rational span of the differences kept so far: the pivot
    columns of the k x (n - 1) matrix of differences. One exact reduction
    reads the points in order. Each difference is brought to zero at the
    leading entries of the kept ones, by one integer cross-multiplication
    per kept difference, and is kept, led by its first nonzero entry, unless
    nothing is left. A slice can hold thousands of points but lies on one
    level hyperplane, so its affine rank is at most k - 1 and the caller
    passes that as ``max_rank``: no point past the one that reaches it is read.
    """
    if not points:
        return ()
    base = points[0]
    basis = [base]
    kept = []  # (j, d): a reduced difference d and its first nonzero entry j
    for i in range(1, len(points)):
        if len(kept) >= max_rank:
            break
        q = points[i]
        d = [a - b for a, b in zip(q, base)]
        for j, r in kept:
            if c := d[j]:
                e = r[j]
                d = [e * x - c * y for x, y in zip(d, r)]
        for j, x in enumerate(d):
            if x:
                kept.append((j, d))
                basis.append(q)
                break
    return tuple(basis)


def _build_witness(v, sol, p_min, p_max, lo, hi) -> CorollaryWitness:
    """The witness whose f is x / d, for the solution (x, d) of the (3) system."""
    lw = hi - lo
    x, d = sol
    content = gcd(d, *x)
    witness = CorollaryWitness(direction=v, min_level=lo, max_level=hi,
                               f_numerator=tuple(c // content for c in x),
                               f_denominator=d // content)
    # f(p_max) = lw - 1 and g(p_min) = -1 make the paraboloid s^2 + s - lw f
    if (witness._scaled_f(p_max) != (lw - 1) * witness.f_denominator
            or witness._scaled_f(p_min) != 0):
        raise InvariantError("witness normalization broke")
    return witness


def _verify_witness(p, v, witness, p_min, p_max, slice_cfg, lo, hi) -> bool:
    """Slice-wise verification: extreme levels and the min+1 slice.

    Levels min+2 .. max-1 vanish identically through the stacked factors, so
    no enumeration is needed there.
    """
    return (slice_points(p, v, lo).points == (p_min,)
            and slice_points(p, v, hi).points == (p_max,)
            and all(map(witness.is_zero_at, slice_cfg.points + (p_min, p_max))))


class NefReport(NamedTuple):
    """Nefness certificate: generator degrees under the width bound, plus
    the saturation certificate for the one-parameter subgroup."""

    degrees: tuple[int, ...]
    d: int
    lw: int
    bound: Fraction
    saturation_ok: bool
    nef: bool

    def to_json(self) -> dict:
        return {
            "degrees": list(self.degrees),
            "d": self.d,
            "lw": self.lw,
            "bound": f"{self.bound.numerator}/{self.bound.denominator}",
            "saturation_ok": self.saturation_ok,
            "nef": self.nef,
        }


def nef_check(degrees: Sequence[int], d: int, lw: int,
              l_matrix: linalg.IntMatrix) -> NefReport:
    """Exact rational bound test deg < d/lw plus the subtorus certificate.

    ``screen`` passes its two lowest-degree binomials, which always span a
    saturated lattice (see ``wps.screen``), so the certificate holds there
    and stays checkable. The rows may be linearly dependent; the
    certificate concerns the lattice they generate, so saturation is
    checked through the gcd of the maximal minors of the full matrix. A
    bool, float or string among the integers is an InputError.
    """
    try:
        d, lw = _as_int(d), _as_int(lw)
    except TypeError:
        raise InputError(f"d = {d!r} and lw = {lw!r} must be integers") from None
    degrees = _as_point(degrees)
    if lw < 1:
        raise InputError("width must be >= 1")
    if not degrees:
        raise InputError("no generator degrees given")
    bound = Fraction(d, lw)
    saturation_ok = linalg.lattice_is_saturated(linalg.integer_matrix(l_matrix))
    nef = all(deg < bound for deg in degrees) and saturation_ok
    return NefReport(degrees=degrees, d=d, lw=lw, bound=bound,
                     saturation_ok=saturation_ok, nef=nef)
