"""Jet matrices of monomial embeddings at the unit point.

``build_jets`` assembles the matrix whose rows are the partial derivatives
(in graded-lex order, degree ascending) of the Laurent monomials u^{p_i}
evaluated at u = 1, together with its leading-term counterpart whose entries
are plain monomial evaluations p_i^alpha. Row r of the derivative matrix for
the multi-index alpha holds the falling-factorial values

    P_alpha(p) = prod_j p_j (p_j - 1) ... (p_j - alpha_j + 1),

so both matrices are exact integer matrices and differ by a unitriangular
row operation; rank identities between them are a standing test invariant,
not an assumption. Each row is one entrywise product of a lower-degree row
with a coordinate column (``_monomial_rows``), so an entry costs one
multiplication.

Linear-system bookkeeping on top of the ranks: dimensions of the systems of
hyperplane sections with a point of high multiplicity, their expected
values, speciality, the minimal degree of an affine hypersurface through the
configuration, and the canonical basis of the degree-m form system cut out
on the exceptional direction space.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from operator import mul

from . import linalg
from .errors import InputError, ToolkitError
from .poly import MultiPoly, from_coefficients, monomials_of_degree, monomials_up_to_degree
from .polytope import PointConfig


def jet_row_indices(k: int, m: int) -> list[tuple[int, ...]]:
    """Multi-indices |alpha| = 0..m: degree ascending, grlex within a degree."""
    return monomials_up_to_degree(k, m)


@dataclass(frozen=True)
class JetSystem:
    """Derivative and leading-term matrices of one configuration, with ranks.

    ``j_matrix`` and ``lt_matrix`` have C(m+k, k) rows (multi-indices of
    degree <= m, as in ``row_index``) and one column per configuration
    point: the falling factorials P_alpha(p) and the powers p^alpha, both
    built by ``_monomial_rows``. ``j_ranks[r]`` is the exactly computed rank
    of the order-r top block of ``j_matrix``.
    """

    config: PointConfig
    order: int
    row_index: tuple[tuple[int, ...], ...]
    j_matrix: linalg.Matrix
    lt_matrix: linalg.Matrix
    j_ranks: tuple[int, ...]

    def j_block(self, r: int) -> linalg.Matrix:
        """Rows of the derivative matrix up to order r."""
        rows = comb(r + self.config.dim, self.config.dim)
        return self.j_matrix[:rows]

    def lt_block(self, r: int) -> linalg.Matrix:
        rows = comb(r + self.config.dim, self.config.dim)
        return self.lt_matrix[:rows]

    def degree_block(self, r: int) -> linalg.Matrix:
        """Rows of the derivative matrix of order exactly r."""
        lo = comb(r - 1 + self.config.dim, self.config.dim) if r else 0
        hi = comb(r + self.config.dim, self.config.dim)
        return self.j_matrix[lo:hi]


def _jet_rows(s: PointConfig, m: int) -> list[tuple[int, ...]]:
    if m < 0:
        raise InputError("jet order must be >= 0")
    if len(s) == 0:
        raise InputError("empty point configuration")
    return jet_row_indices(s.dim, m)


def build_jets(s: PointConfig, m: int) -> JetSystem:
    k = s.dim
    rows = _jet_rows(s, m)
    j = _monomial_rows(s, rows, falling=True)
    lt = _monomial_rows(s, rows, falling=False)
    # the rank of each top block is the number of rank-raising rows inside it
    raising = linalg.independent_rows(j)
    ranks = tuple(bisect_left(raising, comb(r + k, k)) for r in range(m + 1))
    return JetSystem(config=s, order=m, row_index=tuple(rows),
                     j_matrix=j, lt_matrix=lt, j_ranks=ranks)


def leading_term_matrix(s: PointConfig, m: int) -> linalg.IntMatrix:
    """The leading-term matrix of ``build_jets(s, m)``, without the jet ranks."""
    return _monomial_rows(s, jet_row_indices(s.dim, m), falling=False)


def _monomial_rows(s: PointConfig, alphas, falling: bool) -> linalg.IntMatrix:
    """One row per multi-index alpha, with one entry per point p: the falling
    factorial P_alpha(p) if ``falling``, else the power p^alpha.

    With j the last nonzero index of alpha, row(alpha) is the entrywise
    product of row(alpha - e_j) with the column of j-th coordinates, shifted
    by alpha_j - 1 for falling factorials. Rows are memoised from the
    all-ones row of alpha = 0, so a parent missing from ``alphas`` (as in a
    list of one degree only) is built on demand.
    """
    cols = list(zip(*s.points)) or [()] * s.dim
    rows = {(0,) * s.dim: (1,) * len(s)}

    def row(alpha):
        out = rows.get(alpha)
        if out is None:
            j = max(i for i, a in enumerate(alpha) if a)
            col = cols[j]
            if falling and alpha[j] > 1:
                col = [x - alpha[j] + 1 for x in col]
            parent = row(alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:])
            out = rows[alpha] = tuple(map(mul, parent, col))
        return out

    return tuple(row(alpha) for alpha in alphas)


def rank_j(s: PointConfig, r: int) -> int:
    """Rank of the order-r jet matrix, from its rows alone (no leading terms)."""
    return linalg.rank(_monomial_rows(s, _jet_rows(s, r), falling=True))


def h0(s: PointConfig, m: int) -> int:
    """dim of hyperplane sections with multiplicity >= m at the unit point."""
    if m < 1:
        raise InputError("multiplicity order must be >= 1")
    return len(s) - rank_j(s, m - 1)


def expected_h0(n: int, k: int, m: int) -> int:
    """Conditions-counting dimension: max(0, n+1 - C(m-1+k, k))."""
    if m < 0:
        raise InputError("order must be >= 0")
    if m == 0:
        return n + 1
    return max(0, n + 1 - comb(m - 1 + k, k))


def is_special(s: PointConfig, m: int) -> bool:
    return h0(s, m) > expected_h0(len(s) - 1, s.dim, m)


def min_vanishing_degree(s: PointConfig) -> int:
    """Least degree of a nonzero polynomial vanishing on every point of S.

    Detected through rank deficiency of the leading-term matrix; terminates
    because the matrix eventually has more rows than columns (d <= |S|).
    """
    if len(s) < 2:
        raise InputError("need at least two points")
    k = s.dim
    d = 1
    while True:
        if linalg.rank(leading_term_matrix(s, d)) < comb(d + k, k):
            return d
        if d > len(s):
            raise ToolkitError("vanishing-degree search failed to terminate")
        d += 1


@dataclass(frozen=True)
class FundamentalForm:
    """Canonical basis of the degree-m form system at the unit point.

    ``monomials`` fixes the coefficient order (grlex, x1^m first); ``basis``
    rows are the RREF of the generating forms, so equal spans compare equal.
    """

    k: int
    m: int
    monomials: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def polynomials(self) -> list[MultiPoly]:
        return [from_coefficients(self.k, self.monomials, row) for row in self.basis]

    def evaluate_all(self, v) -> list[Fraction]:
        return [p.evaluate(v) for p in self.polynomials()]

    def text(self) -> list[str]:
        return [p.integer_normalized().text("w") for p in self.polynomials()]


def fundamental_form(s: PointConfig, m: int) -> FundamentalForm:
    """Span of the degree-m forms cut out by sections of multiplicity m.

    Each right-kernel element c of the order-(m-1) jet matrix J contributes
    the form sum_alpha w^alpha (m!/alpha!) (D_m c)_alpha; the multinomial
    factor is kept exactly, matching the classical jet expansion. J is an
    integer matrix, and its kernel is read in integers off one fraction-free
    elimination A = d * RREF(J): each free column fc gives the vector with d
    at fc and -A[r][fc] at the r-th pivot. Only their images are reduced
    again, and only that final RREF forms Fractions: it is canonical for the
    span, so the basis does not depend on which kernel basis is mapped.
    """
    if m < 1:
        raise InputError("form order must be >= 1")
    if len(s) == 0:
        raise InputError("empty point configuration")
    k = s.dim
    mons = monomials_of_degree(k, m)
    weights = [factorial(m) // prod(factorial(a) for a in alpha) for alpha in mons]
    d_m = _monomial_rows(s, mons, falling=True)
    a, pivots, d = linalg.scaled_rref(_monomial_rows(s, jet_row_indices(k, m - 1),
                                                    falling=True))
    rows = []
    for fc in range(len(s)):
        if fc in pivots:
            continue
        steps = [(a_row[fc], pc) for a_row, pc in zip(a, pivots) if a_row[fc]]
        row = tuple(w * (d * d_row[fc] - sum(f * d_row[pc] for f, pc in steps))
                    for w, d_row in zip(weights, d_m))
        if any(row):
            rows.append(row)
    if rows:
        red, _ = linalg.rref(rows)
        rows = [r for r in red if any(r)]
    return FundamentalForm(k=k, m=m, monomials=tuple(mons), basis=tuple(rows))
