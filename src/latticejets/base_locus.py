"""Base points of the degree-m form system at the unit point.

Two independent routes decide whether a direction v is a base point:

* feasibility: does an affine hypersurface with leading form (v.x)^m pass
  through every configuration point? One linear equation per point in the
  lower-order coefficients, whose matrix is L_{m-1}^T (``jets``), solved
  by ``linalg.solve`` on its own;
* evaluation: does every canonical basis form vanish at w = v? The basis
  comes from the memoised jet echelon (``jets.fundamental_form``).

Both routes start from the same monomial rows, but the feasibility route
never reads the memo: it runs its own elimination, so a fault in the echelon
or in the form extraction shows as a disagreement instead of being shared.
Their agreement on random inputs is the core acceptance property of this
module. For surfaces the whole base locus of the binary form system is the
zero set of the gcd of the basis forms; rational zeros are extracted
exactly, irreducible factors of higher degree are reported by degree only
(splitting them would need algebraic extensions the use cases never ask
for, and genuinely irrational base directions in k >= 3 are out of scope).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .errors import InputError, InvariantError, ToolkitError
from .jets import FundamentalForm, fundamental_form, leading_term_matrix
from .poly import MultiPoly, from_coefficients, monomials_up_to_degree
from .polytope import Direction, LatticePolytope, PointConfig, lattice_points, lattice_width


@dataclass(frozen=True)
class WitnessHypersurface:
    """Affine hypersurface (v.x)^m + lower order terms vanishing on S."""

    k: int
    m: int
    leading_direction: Direction
    lower_terms: MultiPoly

    def polynomial(self) -> MultiPoly:
        return MultiPoly.linear_form_power(self.leading_direction.coords, self.m) + self.lower_terms

    def vanishes_on(self, s: PointConfig) -> bool:
        poly = self.polynomial()
        return all(poly.evaluate(p) == 0 for p in s.points)

    def text(self) -> str:
        return self.polynomial().integer_normalized().text("x")


def is_base_point(s: PointConfig, m: int, v: Direction):
    """Feasibility route: solvability of the lower-order coefficient system.

    Returns (flag, witness); the witness is the canonical minimal-support
    solution and is re-checked to vanish on S exactly.
    """
    if m < 2:
        raise InputError("base-point test needs m >= 2")
    if v.dim != s.dim:
        raise InputError("direction dimension mismatch")
    if len(s) == 0:
        raise InputError("empty point configuration")
    k = s.dim
    # one row per point: its monomials of degree < m, in jet order
    a_rows = linalg.transpose(leading_term_matrix(s, m - 1))
    sol = linalg.solve(a_rows, [-v.pair(p) ** m for p in s.points])
    if sol is None:
        return False, None
    witness = WitnessHypersurface(
        k=k, m=m, leading_direction=v,
        lower_terms=from_coefficients(k, monomials_up_to_degree(k, m - 1), sol))
    if not witness.vanishes_on(s):
        raise InvariantError("witness hypersurface fails to vanish on S")
    return True, witness


def is_base_point_via_form(s: PointConfig, m: int, v: Direction,
                           form: FundamentalForm | None = None) -> bool:
    """Evaluation route: every canonical basis form vanishes at w = v."""
    if m < 2:
        raise InputError("base-point test needs m >= 2")
    if form is None:
        form = fundamental_form(s, m)
    return all(val == 0 for val in form.evaluate_all(v.coords))


# ---------------------------------------------------------------------------
# complete base locus for k = 2 (binary forms)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseLocusK2:
    """Zero set in P^1 shared by all basis forms, via their gcd.

    ``rational_points`` are normalized [w1 : w2] pairs with multiplicities;
    ``irrational_factor_degrees`` lists the degrees (with multiplicity) of
    the irreducible non-linear factors of the gcd.
    """

    m: int
    gcd_degree: int
    rational_points: tuple[tuple[tuple[int, int], int], ...]
    irrational_factor_degrees: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return self.gcd_degree == 0

    def to_json(self) -> dict:
        return {
            "gcd_degree": self.gcd_degree,
            "rational_points": [{"point": list(pt), "multiplicity": mult}
                                for pt, mult in self.rational_points],
            "irrational_factor_degrees": list(self.irrational_factor_degrees),
            "empty": self.is_empty,
        }


def _binary_form_to_univariate(monomials, coeffs, m):
    """Coefficient list a[i] of t^i for F(t, 1), given grlex monomials."""
    a = [Fraction(0)] * (m + 1)
    for (e1, _e2), c in zip(monomials, coeffs):
        a[e1] = c
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(num, den):
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    while len(num) - 1 >= dd and any(num):
        shift = len(num) - 1 - dd
        f = num[-1] / lead
        for i, c in enumerate(den):
            num[shift + i] -= f * c
        while len(num) > 1 and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd:
            break
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while any(c != 0 for c in b) and len(b) > 0:
        if len(b) == 1 and b[0] != 0:
            return [Fraction(1)]
        a, b = b, _poly_mod(a, b)
        if all(c == 0 for c in b):
            break
    lead = a[-1]
    return [c / lead for c in a]


def _poly_divmod_exact(a, root_num, root_den):
    """Synthetic division by (t - num/den); quotient, or None if not a root."""
    r = Fraction(root_num, root_den)
    q = [Fraction(0)] * (len(a) - 1)
    carry = a[-1]
    for i in range(len(a) - 2, -1, -1):
        q[i] = carry
        carry = a[i] + r * carry
    if carry != 0:
        return None
    return q


def base_locus_k2(s: PointConfig, m: int) -> BaseLocusK2:
    """Common zeros in P^1 of the degree-m binary form basis (k = 2 only)."""
    if s.dim != 2:
        raise InputError("base_locus_k2 needs a planar configuration")
    if m < 2:
        raise InputError("base locus needs m >= 2")
    form = fundamental_form(s, m)
    if form.dim == 0:
        raise ToolkitError("form empty: every direction is a base point")
    univs = [_binary_form_to_univariate(form.monomials, row, m) for row in form.basis]
    w2_power = min(m - (len(u) - 1) for u in univs)
    g = univs[0]
    for u in univs[1:]:
        g = _poly_gcd(g, u)
        if len(g) == 1:
            break
    # factor out t^s (the root [0:1])
    t_power = 0
    while len(g) > 1 and g[0] == 0:
        g = g[1:]
        t_power += 1
    points = []
    if w2_power:
        points.append(((1, 0), w2_power))
    if t_power:
        points.append(((0, 1), t_power))
    g, rational_roots = _rational_roots(g)
    for (num, den), mult in rational_roots:
        points.append(((num, den), mult))
    irr = _factor_degrees(g)
    points.sort(key=lambda item: item[0])
    gcd_degree = w2_power + t_power + sum(mult for _, mult in rational_roots) + (len(g) - 1)
    return BaseLocusK2(m=m, gcd_degree=gcd_degree,
                       rational_points=tuple(points),
                       irrational_factor_degrees=tuple(irr))


def _rational_roots(g):
    """Strip rational roots from a monic Q[t] polynomial with g(0) != 0."""
    roots = []
    if len(g) <= 1:
        return g, []
    # integer-normalize for the rational root theorem
    den_lcm = lcm(*(c.denominator for c in g))
    ig = [int(c * den_lcm) for c in g]
    content = gcd(*ig)
    ig = [c // content for c in ig]
    lead, trail = ig[-1], ig[0]
    candidates = set()
    for p in _divisors(abs(trail)):
        for q in _divisors(abs(lead)):
            if gcd(p, q) == 1:
                candidates.add((p, q))
                candidates.add((-p, q))
    work = [Fraction(c) for c in g]
    for num, den in sorted(candidates):
        mult = 0
        while len(work) > 1:
            quotient = _poly_divmod_exact(work, num, den)
            if quotient is None:
                break
            work = quotient
            mult += 1
        if mult:
            roots.append(((num, den), mult))
    return work, roots


def _divisors(n: int):
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _factor_degrees(g) -> list[int]:
    """Degrees of the irreducible factors of a root-free g (sympy factor_list)."""
    if len(g) <= 1:
        return []
    import sympy

    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t ** i for i, c in enumerate(g))
    _, factors = sympy.factor_list(sympy.Poly(expr, t))
    out = []
    for factor, mult in factors:
        out.extend([sympy.Poly(factor, t).degree()] * mult)
    return sorted(out)


# ---------------------------------------------------------------------------
# hyperplane-stack witness from a small lattice width
# ---------------------------------------------------------------------------

def width_base_point(p: LatticePolytope, m: int):
    """Base direction and explicit stacked-hyperplane witness when lw <= m-1.

    The witness is (v.x)^(m-lw-1) * prod_{i=min}^{max} (v.x - i), expanded;
    its leading form is (v.x)^m and it vanishes on every lattice point of P
    because each one sits on one of the lw+1 stacked hyperplanes.
    """
    res = lattice_width(p)
    if res.width > m - 1:
        raise ToolkitError(
            f"hypothesis fails: lw(P) = {res.width} is not <= m-1 = {m - 1}")
    v = res.direction
    if v is None:
        raise InputError("zero-dimensional polytope has no base direction")
    values = [v.pair(x) for x in p.vertices]
    lo, hi = min(values), max(values)
    k = p.dim
    s_form = MultiPoly.affine(v.coords)
    witness_poly = MultiPoly.constant(k, 1)
    for _ in range(m - res.width - 1):
        witness_poly = witness_poly * s_form
    for i in range(lo, hi + 1):
        witness_poly = witness_poly * (s_form - MultiPoly.constant(k, i))
    lower = witness_poly - MultiPoly.linear_form_power(v.coords, m)
    witness = WitnessHypersurface(k=k, m=m, leading_direction=v, lower_terms=lower)
    if not witness.vanishes_on(lattice_points(p)):
        raise InvariantError("stacked-hyperplane witness fails to vanish")
    return v, witness
