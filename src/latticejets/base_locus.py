"""Base points of the degree-m form system at the unit point.

Two independent routes decide whether a direction v is a base point:

* feasibility: does an affine hypersurface with leading form (v.x)^m pass
  through every configuration point? One linear equation per point in the
  lower-order coefficients, whose matrix is L_{m-1}^T (``jets``), solved
  by ``linalg.solve`` on its own;
* evaluation: does every form vanish at w = v? It reads the integer form
  rows of the memoised jet echelon (``jets._form_rows``): a span vanishes
  at v iff each spanning form does.

Both routes start from the same monomial rows, but the feasibility route
never reads the memo: it runs its own elimination, so a fault in the echelon
or in the form extraction shows as a disagreement instead of being shared.
Their agreement on random inputs is the core acceptance property of this
module. For surfaces the whole base locus of the binary form system is the
zero set of the gcd of its forms. That gcd, and all that is read off it,
depends only on the span, so it is taken of the same integer rows, in Z[t]
by the primitive pseudo-remainder sequence (Collins 1967; Brown 1971); the
``--oracle`` check takes it of the reported RREF basis through sympy.
Rational zeros are extracted exactly, irreducible factors of higher degree
are reported by degree only (splitting them would need algebraic extensions
the use cases never ask for, and genuinely irrational base directions in
k >= 3 are out of scope).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import mul
from typing import NamedTuple

from . import linalg
from .errors import InputError, InvariantError, ToolkitError
from .jets import _form_rows, leading_term_matrix
from .poly import MultiPoly, from_coefficients, monomials_up_to_degree
from .polytope import Direction, PointConfig, _int_arg


class WitnessHypersurface(NamedTuple):
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
    m = _int_arg("order", m)
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
    x, d = sol
    lower = from_coefficients(k, monomials_up_to_degree(k, m - 1), [Fraction(c, d) for c in x])
    witness = WitnessHypersurface(k=k, m=m, leading_direction=v, lower_terms=lower)
    if not witness.vanishes_on(s):
        raise InvariantError("witness hypersurface fails to vanish on S")
    return True, witness


def is_base_point_via_form(s: PointConfig, m: int, v: Direction) -> bool:
    """Evaluation route: every integer form row vanishes at w = v."""
    m = _int_arg("order", m)
    if m < 2:
        raise InputError("base-point test needs m >= 2")
    if v.dim != s.dim:
        raise InputError("direction dimension mismatch")
    mons, rows = _form_rows(s, m)
    powers = [prod(x ** a for x, a in zip(v.coords, alpha)) for alpha in mons]
    return all(sum(map(mul, row, powers)) == 0 for row in rows)


# ---------------------------------------------------------------------------
# complete base locus for k = 2 (binary forms)
# ---------------------------------------------------------------------------

class BaseLocusK2(NamedTuple):
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


def _trimmed(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a):
    """A nonzero Z[t] polynomial over its content, leading coefficient > 0."""
    c = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [x // c for x in a]


def _pseudo_remainder(a, b):
    """lc(b)^e * a mod b in Z[t] ([] for zero): each step scales by lc(b)
    and cancels the leading term, so no division is needed."""
    lead, db = b[-1], len(b) - 1
    while len(a) > db:
        f, shift = a[-1], len(a) - 1 - db
        a = [lead * x for x in a[:-1]]
        for i, c in enumerate(b[:-1]):
            a[shift + i] -= f * c
        a = _trimmed(a)
    return a


def _gcd(a, b):
    """Primitive gcd in Z[t] of nonzero a, b: the primitive PRS, whose terms
    are associates over Q of the Euclidean remainders."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _divide_linear(a, p, q):
    """a / (q*t - p) in Z[t], or None. As gcd(p, q) = 1, Gauss's lemma says
    q*t - p divides a in Q[t] iff it does in Z[t], so an inexact step or a
    nonzero remainder means p/q is no root."""
    quotient = []
    carry = 0
    for c in reversed(a[1:]):
        carry, rest = divmod(c + p * carry, q)
        if rest:
            return None
        quotient.append(carry)
    if a[0] + p * carry:
        return None
    return quotient[::-1]


def base_locus_k2(s: PointConfig, m: int) -> BaseLocusK2:
    """Common zeros in P^1 of the degree-m binary form system (k = 2 only).

    Any spanning set of forms F_i gives the same answer, so the integer rows
    serve: their gcd G divides every combination of them, so it is the gcd
    of the span, and everything reported is read off G. [1:0] has
    multiplicity min_i (m - deg F_i(t, 1)), the power of w2 in G; the Z[t]
    gcd of the F_i(t, 1) is G(t, 1), with the power of t ([0:1]), the
    rational roots and the irreducible degrees.
    """
    m = _int_arg("order", m)
    if s.dim != 2:
        raise InputError("base_locus_k2 needs a planar configuration")
    if m < 2:
        raise InputError("base locus needs m >= 2")
    _, rows = _form_rows(s, m)
    if not rows:
        raise ToolkitError("form empty: every direction is a base point")
    # grlex lists w1^m first, so the reversed row is F(t, 1) by ascending powers
    univs = [_trimmed(row[::-1]) for row in rows]
    w2_power = min(m - (len(u) - 1) for u in univs)
    g = _primitive(univs[0])
    for u in univs[1:]:
        if len(g) == 1:
            break
        g = _gcd(g, u)
    t_power = next(i for i, c in enumerate(g) if c)  # the root [0:1]
    g, roots = _rational_roots(g[t_power:])
    points = sorted(item for item in [((1, 0), w2_power), ((0, 1), t_power)] + roots
                    if item[1])
    gcd_degree = sum(mult for _, mult in points) + len(g) - 1
    return BaseLocusK2(m=m, gcd_degree=gcd_degree,
                       rational_points=tuple(points),
                       irrational_factor_degrees=tuple(_factor_degrees(g)))


def _rational_roots(g):
    """Strip rational roots from a primitive Z[t] polynomial with g(0) != 0."""
    roots = []
    candidates = {(sign * p, q) for p in _divisors(abs(g[0])) for q in _divisors(abs(g[-1]))
                  for sign in (1, -1) if gcd(p, q) == 1}
    for num, den in sorted(candidates):
        mult = 0
        while len(g) > 1:
            quotient = _divide_linear(g, num, den)
            if quotient is None:
                break
            g = quotient
            mult += 1
        if mult:
            roots.append(((num, den), mult))
    return g, roots


def _divisors(n: int):
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
    """Degrees of the irreducible factors of a root-free Z[t] g (sympy factor_list)."""
    if len(g) <= 1:
        return []
    import sympy

    t = sympy.Symbol("t")
    _, factors = sympy.factor_list(sympy.Poly(g[::-1], t))
    out = []
    for factor, mult in factors:
        out.extend([factor.degree()] * mult)
    return sorted(out)
