"""Small exact multivariate polynomials over Q.

Terms are stored in a dict keyed by exponent tuples; all coefficients are
Fractions. The textual format is the one every report uses: terms in graded
lexicographic order (highest degree first, lexicographically descending
exponents within a degree), integer-normalized (denominators cleared,
content 1, leading coefficient positive).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import ToolkitError

Exponent = tuple[int, ...]


def grlex_key(alpha: Exponent):
    """Sort key for graded-lex descending order: x1^d first within a degree."""
    return (-sum(alpha), tuple(-a for a in alpha))


def monomials_of_degree(k: int, d: int) -> list[Exponent]:
    """Exponent vectors in k variables of total degree exactly d, grlex order."""
    if k == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        out.extend((first,) + rest for rest in monomials_of_degree(k - 1, d - first))
    return out


def monomials_up_to_degree(k: int, d: int) -> list[Exponent]:
    """All exponent vectors of degree <= d, ascending degree, grlex within."""
    out = []
    for r in range(d + 1):
        out.extend(monomials_of_degree(k, r))
    return out


class MultiPoly:
    """Immutable multivariate polynomial with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    if len(e) != nvars:
                        raise ToolkitError("exponent arity mismatch")
                    clean[tuple(int(x) for x in e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def affine(cls, coeffs: Sequence, const=0) -> "MultiPoly":
        """c0 + sum(coeffs[i] * x_i)."""
        n = len(coeffs)
        terms = {(0,) * n: Fraction(const)}
        for i, c in enumerate(coeffs):
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = Fraction(c)
        return cls(n, terms)

    @classmethod
    def linear_form_power(cls, coeffs: Sequence, m: int) -> "MultiPoly":
        """(sum coeffs[i] * x_i)^m expanded by the multinomial theorem."""
        k = len(coeffs)
        terms = {}
        for alpha in monomials_of_degree(k, m):
            coef = Fraction(factorial(m))
            for a, v in zip(alpha, coeffs):
                if a:
                    if v == 0:
                        coef = Fraction(0)
                        break
                    coef = coef * Fraction(v) ** a / factorial(a)
            if coef:
                terms[alpha] = coef
        return cls(k, terms)

    # -- arithmetic ----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(self.nvars, terms)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, terms)

    def evaluate(self, point: Sequence) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for a, x in zip(e, point):
                if a:
                    v *= Fraction(x) ** a
            total += v
        return total

    # -- normalization and formatting ----------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def integer_normalized(self) -> "MultiPoly":
        """Scale to integer coefficients with content 1 and positive leading one."""
        if not self.terms:
            return self
        den = lcm(*(c.denominator for c in self.terms.values()))
        num = gcd(*(int(c * den) for c in self.terms.values()))
        mult = Fraction(den, num)
        lead = self.sorted_terms()[0][1]
        if lead < 0:
            mult = -mult
        return self.scale(mult)

    def text(self, var: str = "w") -> str:
        """Render in the report format, e.g. ``w1^2*w2 - 2*w1 + 1``."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, a in enumerate(e):
                if a == 1:
                    factors.append(f"{var}{i + 1}")
                elif a > 1:
                    factors.append(f"{var}{i + 1}^{a}")
            mag = abs(c)
            coeff = None if (mag == 1 and factors) else str(mag)
            body = "*".join(([coeff] if coeff else []) + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.text()})"


def from_coefficients(nvars: int, monomial_order: Iterable[Exponent], coeffs: Sequence) -> MultiPoly:
    """Build a polynomial from a coefficient vector over a monomial order."""
    return MultiPoly(nvars, {e: Fraction(c) for e, c in zip(monomial_order, coeffs) if c})
