"""Jet matrices of monomial embeddings at the unit point.

The order-m jet matrix of a configuration S has one row per multi-index
alpha of degree <= m (``jet_row_indices``: degree ascending, grlex within a
degree) and one column per point p of S. Taking the partial derivatives of
the Laurent monomials u^p at u = 1 gives the derivative matrix J_m, with the
falling factorials

    P_alpha(p) = prod_j p_j (p_j - 1) ... (p_j - alpha_j + 1)

as entries; the leading-term matrix L_m has the powers p^alpha. Expanding
each factor by the Stirling numbers of the first kind, P_alpha(p) is p^alpha
plus a fixed combination of powers p^beta with |beta| < |alpha|, so
J_m = T L_m with T lower unitriangular in jet order. Therefore J_r and L_r
have equal ranks and equal right kernels for every r <= m, and on that
kernel the degree-m rows agree: D_m c = L_m c on the degree-m block when
L_{m-1} c = 0, since the lower-degree terms vanish on c. Every question
here is a question about these ranks, kernels and images, so only L_m is
built; the derivative matrix is a test reference.

The monomial values are built point-major, once per request, by
``_monomial_rows``: one row per point p, holding p^alpha over the
multi-indices of degree <= m in jet order, so the rows are those of L_m^T.
That is the matrix both readers want: the echelon below, and the feasibility
route of ``base_locus.is_base_point`` (one equation per point). Only the
public ``leading_term_matrix`` transposes it back to L_m, for the CLI's
``--oracle`` check and the tests.

Every rank and form question reads one elimination per configuration:
``_echelon`` runs the fraction-free row echelon form (``linalg.row_echelon``,
the forward half of the one Bareiss elimination) of the point-major matrix
L_m^T, whose rows are the points and whose columns are the multi-indices of
degree <= m in jet order, and memoises it on the ``PointConfig``. The memo
keeps the highest order asked for; a lower order r reads the first
C(r+k, k) columns, since an echelon form cut to its first columns is the
echelon form of the cut matrix. The rank of L_r is the number of pivots in
those columns, and the degree-m form system is read off the rows whose
pivot lies in the degree-m block (``_form_rows``). What only decides
something reads those integer rows; only the reported canonical basis
(``fundamental_form``) reduces them further, to an RREF over Q.

Linear-system bookkeeping on top of the ranks: dimensions of the systems of
hyperplane sections with a point of high multiplicity, their expected
values, speciality, the minimal degree of an affine hypersurface through the
configuration, and the canonical basis of the degree-m form system cut out
on the exceptional direction space.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, factorial, prod
from operator import mul
from typing import NamedTuple

from . import linalg
from .errors import InputError
from .poly import MultiPoly, from_coefficients, monomials_of_degree, monomials_up_to_degree
from .polytope import PointConfig, _int_arg


@lru_cache(maxsize=None, typed=True)  # typed: m = True or 2.0 is checked, not read as 1 or 2
def jet_row_indices(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Multi-indices |alpha| = 0..m: degree ascending, grlex within a degree.

    Built once per (k, m), so the result is a tuple.
    """
    return tuple(monomials_up_to_degree(k, _int_arg("order", m)))


class JetSystem(NamedTuple):
    """Jet ranks of one configuration up to order m.

    ``row_index`` lists the multi-indices of degree <= m in jet order, and
    ``j_ranks[r]`` is the exact rank of the order-r jet matrix, read off the
    memoised echelon.
    """

    config: PointConfig
    order: int
    row_index: tuple[tuple[int, ...], ...]
    j_ranks: tuple[int, ...]


def _jet_rows(s: PointConfig, m: int) -> tuple[tuple[int, ...], ...]:
    if m < 0:
        raise InputError("jet order must be >= 0")
    if len(s) == 0:
        raise InputError("empty point configuration")
    return jet_row_indices(s.dim, m)


def build_jets(s: PointConfig, m: int) -> JetSystem:
    m = _int_arg("order", m)
    k = s.dim
    rows = _jet_rows(s, m)
    # the rank of each top block is the number of pivot columns inside it
    pivots = _echelon(s, m).pivots
    ranks = tuple(bisect_left(pivots, comb(r + k, k)) for r in range(m + 1))
    return JetSystem(config=s, order=m, row_index=rows, j_ranks=ranks)


def leading_term_matrix(s: PointConfig, m: int) -> linalg.IntMatrix:
    """L_m: one row p^alpha per multi-index of degree <= m, in jet order,
    with one entry per point p: the transpose of ``_monomial_rows``."""
    m = _int_arg("order", m)
    if m < 0:
        raise InputError("jet order must be >= 0")
    rows = _monomial_rows(s, m)
    return linalg.transpose(rows) if rows else ((),) * comb(m + s.dim, s.dim)


def _monomial_rows(s: PointConfig, m: int) -> list[list[int]]:
    """The point-major rows of L_m^T, as fresh lists: per point p, its powers
    p^alpha over the multi-indices of degree <= m in jet order. Entry 0 is 1,
    and every later entry is an earlier entry of the row times one coordinate
    of p, in the order ``_row_steps`` fixes, so an entry costs one
    multiplication."""
    steps = _row_steps(s.dim, m)
    rows = []
    for p in s.points:
        row = [1]
        for parent, j in steps:
            row.append(row[parent] * p[j])
        rows.append(row)
    return rows


@cache
def _row_steps(k: int, m: int) -> tuple[tuple[int, int], ...]:
    """One step (parent, j) per multi-index alpha != 0 of degree <= m, in jet
    order: with j the last nonzero index of alpha, p^alpha is p^(alpha - e_j),
    which jet order lists earlier, times the j-th coordinate p_j."""
    alphas = jet_row_indices(k, m)
    index = {alpha: i for i, alpha in enumerate(alphas)}
    steps = []
    for alpha in alphas[1:]:
        j = max(t for t, a in enumerate(alpha) if a)
        steps.append((index[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]], j))
    return tuple(steps)


class _Echelon(NamedTuple):
    """``linalg.row_echelon`` of the point-major jet matrix of some order."""

    order: int
    rows: linalg.IntMatrix
    pivots: tuple[int, ...]


def _echelon(s: PointConfig, m: int) -> _Echelon:
    """The fraction-free row echelon form of L_m^T, or of a higher order.

    Rows are points, columns the multi-indices of degree <= m in jet order.
    The result is memoised on ``s``, one entry of the highest order asked
    for; a lower order is read off its first C(m+k, k) columns by the caller.
    """
    memo = s._jet_echelon
    if memo is not None and memo.order >= m >= 0:
        return memo
    _jet_rows(s, m)
    memo = _Echelon(m, *linalg.row_echelon(_monomial_rows(s, m)))
    object.__setattr__(s, "_jet_echelon", memo)
    return memo


def rank_j(s: PointConfig, r: int) -> int:
    """Rank of the order-r jet matrix L_r: the pivots before column C(r+k, k)."""
    r = _int_arg("order", r)
    return bisect_left(_echelon(s, r).pivots, comb(r + s.dim, s.dim))


def h0(s: PointConfig, m: int) -> int:
    """dim of hyperplane sections with multiplicity >= m at the unit point."""
    m = _int_arg("order", m)
    if m < 1:
        raise InputError("multiplicity order must be >= 1")
    return len(s) - rank_j(s, m - 1)


def expected_h0(n: int, k: int, m: int) -> int:
    """Conditions-counting dimension: max(0, n+1 - C(m-1+k, k))."""
    n, k, m = _int_arg("n", n), _int_arg("dimension", k), _int_arg("order", m)
    if m < 0:
        raise InputError("order must be >= 0")
    if m == 0:
        return n + 1
    return max(0, n + 1 - comb(m - 1 + k, k))


def is_special(s: PointConfig, m: int) -> bool:
    return h0(s, m) > expected_h0(len(s) - 1, s.dim, m)


def min_vanishing_degree(s: PointConfig) -> int:
    """Least degree of a nonzero polynomial vanishing on every point of S.

    A polynomial of degree <= d with coefficient vector f vanishes on S iff
    f L_d = 0, so the least such d is the first at which L_d has fewer
    pivots than rows. That holds at the least order D with more rows than
    points, C(D+k, k) > |S|, so the answer is at most D. Each d past the
    memoised order eliminates once, at order min(2d, D): a search to degree
    d runs O(log d) eliminations, none above order 2d.
    """
    if len(s) < 2:
        raise InputError("need at least two points")
    k = s.dim
    top = 1
    while comb(top + k, k) <= len(s):
        top += 1
    d = 1
    while True:
        memo = s._jet_echelon
        if memo is None or memo.order < d:
            _echelon(s, min(2 * d, top))
        if rank_j(s, d) < comb(d + k, k):
            return d
        d += 1


class FundamentalForm(NamedTuple):
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

    def text(self) -> list[str]:
        return [p.integer_normalized().text("w") for p in self.polynomials()]


@cache
def _form_block(k: int, m: int):
    """(monomials, weights, lo, hi) of the degree-m block, built once per (k, m):
    the degree-m multi-indices in grlex order, their multinomials m!/alpha!,
    and the block's columns lo .. hi - 1 in jet order."""
    mons = tuple(monomials_of_degree(k, m))
    weights = tuple(factorial(m) // prod(factorial(a) for a in alpha) for alpha in mons)
    lo = comb(m - 1 + k, k)
    return mons, weights, lo, lo + len(mons)


def _form_rows(s: PointConfig, m: int):
    """The degree-m form system as integer rows: (monomials, rows).

    Each right-kernel element c of L_{m-1} contributes the form
    sum_alpha w^alpha (m!/alpha!) (L_m c)_alpha over |alpha| = m: the
    classical jet expansion, whose derivative image D_m c equals this block
    of L_m c (see the module docstring); the multinomial factor is kept
    exactly. The images are read off the memoised echelon of L_m^T: its row
    space is {L_m c}, and the vectors of it that vanish on the columns of
    degree < m, {(0, L_m c) : L_{m-1} c = 0}, are spanned by the echelon
    rows whose pivot lies in the degree-m block. The rows returned are
    those, cut to that block and scaled by m!/alpha!: independent integer
    coefficient vectors over ``monomials`` (grlex, w1^m first) that span the
    system, though not canonically.
    """
    if m < 1:
        raise InputError("form order must be >= 1")
    mons, weights, lo, hi = _form_block(s.dim, m)
    echelon = _echelon(s, m)
    rows = [tuple(map(mul, weights, row[lo:hi]))
            for row, pc in zip(echelon.rows, echelon.pivots) if lo <= pc < hi]
    return mons, rows


def fundamental_form(s: PointConfig, m: int) -> FundamentalForm:
    """Canonical basis of the degree-m form system: the RREF of the
    ``_form_rows``, the only step that forms Fractions."""
    m = _int_arg("order", m)
    mons, rows = _form_rows(s, m)
    basis = linalg.rref(rows)[0] if rows else ()
    return FundamentalForm(k=s.dim, m=m, monomials=mons, basis=basis)
