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

Every rank and form question reads one elimination per configuration:
``_echelon`` runs the fraction-free row echelon form (``linalg.row_echelon``,
the forward half of the one Bareiss elimination) of the point-major jet
matrix J_m^T, whose rows are the points and whose columns are the
multi-indices of degree <= m in jet order, and memoises it on the
``PointConfig``. The memo keeps the highest order asked for; a lower order
r reads the first C(r+k, k) columns, since an echelon form cut to its first
columns is the echelon form of the cut matrix. The rank of J_r is the
number of pivots in those columns, and the degree-m form system is read off
the rows whose pivot lies in the degree-m block (see ``fundamental_form``).

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
from functools import cache
from math import comb, factorial, prod
from operator import mul
from typing import NamedTuple

from . import linalg
from .errors import InputError, ToolkitError
from .poly import MultiPoly, from_coefficients, monomials_of_degree, monomials_up_to_degree
from .polytope import PointConfig


@cache
def jet_row_indices(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Multi-indices |alpha| = 0..m: degree ascending, grlex within a degree.

    Built once per (k, m), so the result is a tuple.
    """
    return tuple(monomials_up_to_degree(k, m))


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


def _jet_rows(s: PointConfig, m: int) -> tuple[tuple[int, ...], ...]:
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
    # the rank of each top block is the number of pivot columns inside it
    pivots = _echelon(s, m).pivots
    ranks = tuple(bisect_left(pivots, comb(r + k, k)) for r in range(m + 1))
    return JetSystem(config=s, order=m, row_index=rows,
                     j_matrix=j, lt_matrix=lt, j_ranks=ranks)


def leading_term_matrix(s: PointConfig, m: int) -> linalg.IntMatrix:
    """The leading-term matrix of ``build_jets(s, m)``, without the jet ranks."""
    return _monomial_rows(s, jet_row_indices(s.dim, m), falling=False)


def _monomial_rows(s: PointConfig, alphas, falling: bool) -> linalg.IntMatrix:
    """One row per multi-index alpha, with one entry per point p: the falling
    factorial P_alpha(p) if ``falling``, else the power p^alpha.

    Each row is the entrywise product of a parent row with a coordinate
    column, in the order ``_row_steps`` fixes once per list of multi-indices.
    """
    steps, picks = _row_steps(tuple(alphas), falling)
    cols = list(zip(*s.points)) or [()] * s.dim
    rows = [(1,) * len(s)]
    for parent, j, shift in steps:
        col = [x - shift for x in cols[j]] if shift else cols[j]
        rows.append(tuple(map(mul, rows[parent], col)))
    return tuple(rows[i] for i in picks)


@cache
def _row_steps(alphas: tuple, falling: bool):
    """(steps, picks): how ``_monomial_rows`` builds the rows of ``alphas``.

    Row 0 is the all-ones row of alpha = 0. With j the last nonzero index of
    alpha, row(alpha) is row(alpha - e_j) times the column of j-th
    coordinates, shifted by alpha_j - 1 for falling factorials: step i, a
    triple (parent, j, shift), builds row i + 1. A parent missing from
    ``alphas`` (as in a list of one degree only) gets its own step, and
    ``picks`` are the rows of ``alphas`` in order.
    """
    index = {}
    steps = []

    def build(alpha):
        i = index.get(alpha)
        if i is None:
            if not any(alpha):
                return 0
            j = max(t for t, a in enumerate(alpha) if a)
            parent = build(alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:])
            steps.append((parent, j, alpha[j] - 1 if falling else 0))
            i = index[alpha] = len(steps)
        return i

    picks = tuple(build(alpha) for alpha in alphas)
    return tuple(steps), picks


class _Echelon(NamedTuple):
    """``linalg.row_echelon`` of the point-major jet matrix of some order."""

    order: int
    rows: linalg.IntMatrix
    pivots: tuple[int, ...]


def _echelon(s: PointConfig, m: int) -> _Echelon:
    """The fraction-free row echelon form of the point-major jet matrix of order >= m.

    Rows are points, columns the multi-indices of degree <= m in jet order:
    the transpose of the falling-factorial rows. The result is memoised on
    ``s``, one entry of the highest order asked for; a lower order is read
    off its first C(m+k, k) columns by the caller.
    """
    memo = s._jet_echelon
    if memo is not None and memo.order >= m >= 0:
        return memo
    j = _monomial_rows(s, _jet_rows(s, m), falling=True)
    memo = _Echelon(m, *linalg.row_echelon(linalg.transpose(j)))
    object.__setattr__(s, "_jet_echelon", memo)
    return memo


def rank_j(s: PointConfig, r: int) -> int:
    """Rank of the order-r jet matrix: the pivots before column C(r+k, k)."""
    return bisect_left(_echelon(s, r).pivots, comb(r + s.dim, s.dim))


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

    Detected through rank deficiency of the order-d jet matrix, whose rank
    equals that of the leading-term matrix (they differ by a unitriangular
    row operation); terminates because the matrix eventually has more rows
    than columns (d <= |S|).
    """
    if len(s) < 2:
        raise InputError("need at least two points")
    k = s.dim
    d = 1
    while True:
        if rank_j(s, d) < comb(d + k, k):
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

    Each right-kernel element c of the order-(m-1) jet matrix J_{m-1}
    contributes the form sum_alpha w^alpha (m!/alpha!) (D_m c)_alpha, D_m
    being the degree-m rows of J_m; the multinomial factor is kept exactly,
    matching the classical jet expansion. The images D_m c are read off the
    memoised echelon of J_m^T: its row space is {J_m c}, and the vectors of
    it that vanish on the columns of degree < m, {(0, D_m c) : J_{m-1} c = 0},
    are spanned by the echelon rows whose pivot lies in the degree-m block.
    Those rows, cut to that block and scaled by m!/alpha!, are reduced once
    more, and only that final RREF forms Fractions: it is canonical for the
    span, so the basis does not depend on which spanning rows are reduced.
    """
    if m < 1:
        raise InputError("form order must be >= 1")
    k = s.dim
    mons = monomials_of_degree(k, m)
    weights = [factorial(m) // prod(factorial(a) for a in alpha) for alpha in mons]
    lo = comb(m - 1 + k, k)
    hi = lo + len(mons)
    echelon = _echelon(s, m)
    rows = [tuple(map(mul, weights, row[lo:hi]))
            for row, pc in zip(echelon.rows, echelon.pivots) if lo <= pc < hi]
    basis = linalg.rref(rows)[0] if rows else ()
    return FundamentalForm(k=k, m=m, monomials=tuple(mons), basis=basis)
