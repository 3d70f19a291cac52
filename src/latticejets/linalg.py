"""Exact integer linear algebra, with rational outputs where a result is rational.

Matrices are immutable tuples of tuples of Python ``int`` (arbitrary
precision). Every elimination takes integer entries only: ``_int_rows``
copies its input and rejects any entry that is not an ``int`` (a
``Fraction``, a float, a bool) with a ``ToolkitError``, since fraction-free
elimination is exact only on integers. Only ``rref`` and ``kernel_basis``
return ``fractions.Fraction`` entries, always in lowest terms with positive
denominator. Everything here is deterministic: identical inputs produce
bit-identical outputs, which the golden tests rely on.

One elimination serves the rank, determinant, inverse and RREF routines:
``scaled_rref`` is fraction-free Gauss-Jordan (Bareiss 1968), giving
A = d * RREF(m) over the integers with d its last pivot. Its forward half
alone, with no back-substitution, gives ``row_echelon``, and ``rank`` counts
its pivots; ``bareiss_det`` is the swap sign times d; ``scaled_inverse`` and
``inverse_unimodular`` read the adjugate off the right block of [m | I];
``rref`` divides A by d and ``kernel_basis`` reads its vectors off A, while
``solve`` returns the canonical minimal-support solution scaled, as integers
over d. ``pivot_columns`` are the columns that raise the rank (the rows that
do are the pivot columns of the transpose), and ``lattice_coordinates``
inverts the minor on the pivot columns of its basis with ``scaled_inverse``
(no module of the package calls it; the tests read it as a reference). No
lattice step needs a Smith form (nothing here calls ``smith_normal_form``):
``integral_kernel`` reads the Hermite form of [m^T | I], as ``polytope``
reads a point set's rank, coordinates and width lift off the Hermite form of
[D^T | I], ``complete_to_unimodular`` runs Euclid on its one row, and
``lattice_is_saturated`` and ``lattice_index`` read the gcd of the maximal
minors. The reference eliminations in ``oracles`` share no code with these.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import ToolkitError

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]
Vector = tuple[Fraction, ...]


def integer_matrix(rows: Iterable[Sequence]) -> IntMatrix:
    """Freeze ``rows`` into an immutable matrix of ints, checked as by ``_int_rows``."""
    out = tuple(map(tuple, rows))
    if out:
        _int_rows(out)
    return out


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def _nonempty(m) -> None:
    if not m or not m[0]:
        raise ToolkitError("degenerate input: empty matrix")


# ---------------------------------------------------------------------------
# one fraction-free elimination: rank, determinant, inverse, RREF, kernels
# ---------------------------------------------------------------------------

def _int_rows(m) -> list[list[int]]:
    """Mutable copies of the rows of m, once every entry is checked to be an ``int``.

    The one input check of every elimination: a Fraction, float or bool entry
    raises ``ToolkitError``, and so do rows of unequal length.
    """
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise ToolkitError("ragged matrix")
    # the type set is built at C speed; isinstance would also let bool through
    if not set(map(type, chain.from_iterable(m))) <= {int}:
        bad = next(x for x in chain.from_iterable(m) if type(x) is not int)
        raise ToolkitError(f"non-integer entry {bad!r}")
    return [list(row) for row in m]


def _gauss_jordan(a: list[list[int]], back: bool = True) -> tuple[tuple[int, ...], int, int]:
    """Fraction-free Gauss-Jordan on integer rows, in place (Bareiss 1968).

    Each pivot p clears its column in the rows below it, and with ``back``
    in the rows above it too, as (p * row - f * pivot row) / prev, prev
    being the pivot before it; the divisions are exact, so the rows stay
    integer. With ``back`` they end as d * RREF with d the last pivot, which
    is also every pivot entry; without, as a row echelon form of the same
    row space, each row zero before its pivot and below every pivot. Returns
    (pivot columns, d, sign), where sign is the parity of the row swaps.
    Stops once every row holds a pivot.
    """
    nrows = len(a)
    pivots = []
    prev, sign = 1, 1
    for col in range(len(a[0])):
        r = len(pivots)
        for piv in range(r, nrows):
            if a[piv][col]:
                break
        else:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[col]
        for i in range(0 if back else r + 1, nrows):
            if i != r:
                row = a[i]
                f = row[col]
                if f:
                    a[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
                elif p != prev:
                    a[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(col)
        if r + 1 == nrows:
            break
    return tuple(pivots), prev, sign


def scaled_rref(m) -> tuple[IntMatrix, tuple[int, ...], int]:
    """(A, pivots, d) with A = d * RREF(m) over the integers, for an integer m.

    d is the last pivot: +-det m for a nonsingular square m, 1 for a zero m.
    Every pivot entry of A equals d, and the rows past the rank are zero.
    """
    _nonempty(m)
    a = _int_rows(m)
    pivots, d, _ = _gauss_jordan(a)
    return tuple(map(tuple, a)), pivots, d


def row_echelon(m) -> tuple[IntMatrix, tuple[int, ...]]:
    """(E, pivots): the forward half of the fraction-free elimination.

    E is a row echelon form of m over the integers: row r is zero before
    column pivots[r], the rows below it are zero in that column, the rows
    past the rank are zero, and the rows span the row space of m. Cut to its
    first c columns, E is the row echelon form of m cut the same way: each
    step reads only the columns it updates and the pivot columns before them.
    """
    _nonempty(m)
    a = _int_rows(m)
    pivots, _, _ = _gauss_jordan(a, back=False)
    return tuple(map(tuple, a)), pivots


def pivot_columns(m) -> tuple[int, ...]:
    """The pivot columns of the fraction-free elimination: the columns of m,
    in order, that raise the rank of the columns before them. The forward
    half alone finds them."""
    _nonempty(m)
    return _gauss_jordan(_int_rows(m), back=False)[0]


def rank(m) -> int:
    """Rank over Q of an integer matrix: the pivot count of the fraction-free elimination."""
    return len(pivot_columns(m))


def _square(m, what: str) -> int:
    _nonempty(m)
    n = len(m)
    if len(m[0]) != n:
        raise ToolkitError(f"{what} of non-square matrix")
    return n


def bareiss_det(m) -> int:
    """Determinant of a square integer matrix: the swap sign times the last pivot."""
    n = _square(m, "determinant")
    pivots, d, sign = _gauss_jordan(_int_rows(m))
    return sign * d if len(pivots) == n else 0


def _adjugate(m, what: str) -> tuple[IntMatrix | None, int]:
    """(adj m, det m) from one elimination of [m | I], or (None, 0) for a singular m.

    The right block ends as d m^-1 with d the last pivot, +-det m; the swap
    sign turns it into det(m) m^-1, the adjugate.
    """
    n = _square(m, what)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(_int_rows(m))]
    pivots, d, sign = _gauss_jordan(a)
    if pivots[-1] >= n:  # a pivot in the identity block: m is singular
        return None, 0
    return tuple(tuple(sign * x for x in row[n:]) for row in a), sign * d


def scaled_inverse(m) -> tuple[IntMatrix, int]:
    """(L, d) with L m = d I and d = det m, for a nonsingular square integer m.

    L is the adjugate, read off the fraction-free elimination of [m | I];
    no Fraction is formed.
    """
    adj, det = _adjugate(m, "inverse")
    if not det:
        raise ToolkitError("singular matrix has no inverse")
    return adj, det


def lattice_coordinates(basis, vectors):
    """Integer coordinates c with c B = x for each x, or None where there are none.

    ``basis`` is an r x k integer matrix of full row rank, so a solution is
    unique when it exists. The pivot columns of B give r independent
    columns, and that r x r minor is inverted once with ``scaled_inverse``;
    each candidate L x[cols] / d must divide exactly and satisfy c B = x in
    all k coordinates. A vector outside the rational span or off the lattice
    gets None. The vectors are integer, checked as the basis is, and have k
    coordinates.
    """
    cols = pivot_columns(basis)
    if len(cols) != len(basis):
        raise ToolkitError("lattice basis does not have full row rank")
    inv, d = scaled_inverse([tuple(row[c] for row in basis) for c in cols])
    rows = _int_rows(vectors) if vectors else ()
    if rows and len(rows[0]) != len(basis[0]):
        raise ToolkitError(f"vectors have {len(rows[0])} coordinates, "
                           f"the basis has {len(basis[0])}")
    out = []
    for x in rows:
        num = [sum(a * x[c] for a, c in zip(row, cols)) for row in inv]
        coords = None
        if not any(v % d for v in num):
            c = tuple(v // d for v in num)
            if all(sum(ci * b for ci, b in zip(c, col)) == xj
                   for col, xj in zip(zip(*basis), x)):
                coords = c
        out.append(coords)
    return out


# ---------------------------------------------------------------------------
# RREF, kernels, solving
# ---------------------------------------------------------------------------

def rref(m) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form over Q and the pivot column indices."""
    a, pivots, d = scaled_rref(m)
    return tuple(tuple(Fraction(x, d) for x in row) for row in a), pivots


def kernel_basis(m) -> tuple[Vector, ...]:
    """Canonical basis of the right kernel of an integer ``m``: the rows of the
    RREF of any spanning set of the kernel, so unique for the subspace.

    The integer kernel vectors of A = d * RREF(m) put d at a free column and
    minus that column of A at the pivots; their RREF is the basis.
    """
    a, pivots, d = scaled_rref(m)
    ncols = len(a[0])
    vecs = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [0] * ncols
            v[fc] = d
            for row, pc in zip(a, pivots):
                v[pc] = -row[fc]
            vecs.append(v)
    if not vecs:
        return ()
    return tuple(row for row in rref(vecs)[0] if any(row))


def solve(a, b: Sequence):
    """The canonical solution of ``a x = b`` over Q, scaled, or None if inconsistent.

    Returns (x, d), x integer and d > 0 with a x = d b, read off A = d * RREF
    of [a | b] with no Fraction; ``a`` and ``b`` hold ints.
    The canonical solution sets every free variable to zero, so among all
    solutions it has minimal support with respect to the caller's column order.
    """
    _nonempty(a)
    nrows, ncols = shape(a)
    if len(b) != nrows:
        raise ToolkitError("dimension mismatch in solve")
    red, pivots, d = scaled_rref([(*row, v) for row, v in zip(a, b)])
    if ncols in pivots:  # pivot in the augmented column
        return None
    x = [0] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return (tuple(x), d) if d > 0 else (tuple(-c for c in x), -d)


# ---------------------------------------------------------------------------
# Smith and Hermite normal forms
# ---------------------------------------------------------------------------

def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*m*V = D diagonal, U, V unimodular.

    Diagonal entries are nonnegative and satisfy d1 | d2 | ... ; pivot
    selection (smallest nonzero absolute value, then row-major position)
    makes the output deterministic.
    """
    _nonempty(m)
    a = _int_rows(m)
    nrows, ncols = len(a), len(a[0])
    u = [list(row) for row in identity(nrows)]
    v = [list(row) for row in identity(ncols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        # smallest nonzero |entry| in the trailing block
        piv = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                col_op(j, t, q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new, smaller pivot candidates
        # divisibility: fold any non-multiple into column t and redo
        bad = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)
            continue
        t += 1

    for i in range(min(nrows, ncols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return (
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in v),
    )


def _maximal_minors(m):
    """The r x r minors of an integer ``m``, r its rank, in order of rows then columns.

    Their gcd, the r-th determinantal divisor, is the product of the
    elementary divisors (Newman 1972, ch. II): the index of the lattice that
    the rows generate in its saturation. The rank comes from the forward
    elimination; a zero m has rank 0, and the one empty minor is 1.
    """
    _nonempty(m)
    rows = _int_rows(m)
    r = len(_gauss_jordan([row[:] for row in rows], back=False)[0])
    if r == 0:
        yield 1
        return
    for sub in combinations(rows, r):
        if r == 2:
            x, y = sub
            for i, j in combinations(range(len(x)), 2):
                yield x[i] * y[j] - x[j] * y[i]
        else:
            for cols in combinations(range(len(sub[0])), r):
                pivots, d, _ = _gauss_jordan([[row[c] for c in cols] for row in sub],
                                             back=False)
                yield d if len(pivots) == r else 0


def lattice_index(m: IntMatrix) -> int:
    """Index of the lattice generated by the rows of ``m`` in its saturation.

    The gcd of the maximal minors; rows may be linearly dependent. The scan
    stops once the gcd is 1, which no further minor changes.
    """
    g = 0
    for minor in _maximal_minors(m):
        g = gcd(g, minor)
        if g == 1:
            break
    return g


def lattice_is_saturated(m: IntMatrix) -> bool:
    """True iff the lattice generated by the rows of ``m`` is saturated.

    Tolerates linearly dependent rows (the span is what is tested); used by
    the screening pipeline where generator lists may be redundant.
    """
    return lattice_index(m) == 1


def integral_kernel(m: IntMatrix) -> IntMatrix:
    """Z-basis (rows, in Hermite normal form) of {x : m x = 0} in Z^cols.

    The Hermite form of [m^T | I] is U [m^T | I] with U unimodular, and the
    right blocks of its rows whose left block is zero are the Hermite form
    of the kernel, saturated since U is unimodular (Cohen 1993, section 2.4).
    """
    if not m or not m[0]:
        # kernel of the empty map is everything
        n = len(m[0]) if m else 0
        return identity(n)
    a = _int_rows(m)
    r = len(a)
    h = hermite_normal_form([(*col, *e) for col, e in zip(zip(*a), identity(len(a[0])))])
    return tuple(row[r:] for row in h if not any(row[:r]))


def hermite_normal_form(m: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form (canonical basis of the row lattice).

    Echelon shape with positive pivots; entries above each pivot are reduced
    into [0, pivot). Zero rows are dropped.
    """
    _nonempty(m)
    a = _int_rows(m)
    nrows, ncols = len(a), len(a[0])
    r = 0
    for col in range(ncols):
        # gcd-reduce the column below r
        while True:
            nz = [i for i in range(r, nrows) if a[i][col]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][col]), i))
            a[r], a[i0] = a[i0], a[r]
            done = True
            for i in range(r + 1, nrows):
                if a[i][col]:
                    q = a[i][col] // a[r][col]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][col]:
                        done = False
            if done:
                break
        if r < nrows and a[r][col]:
            if a[r][col] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][col] // a[r][col]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
            if r == nrows:
                break
    return tuple(tuple(row) for row in a[:r])


def inverse_unimodular(u: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix: its adjugate over det u = +-1."""
    adj, det = _adjugate(u, "determinant")
    if det not in (1, -1):
        raise ToolkitError(f"matrix is not unimodular (det={det})")
    return tuple(tuple(det * x for x in row) for row in adj)


def bezout(a: int, b: int) -> tuple[int, int]:
    """s, t with s*a + t*b = gcd(a, b) >= 0 (extended Euclid); a non-int
    argument is a ``ToolkitError``, as in every elimination."""
    old_r, r = _int_rows(((a, b),))[0]
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def complete_to_unimodular(v: Sequence[int]) -> IntMatrix:
    """Unimodular matrix whose first row is the primitive vector ``v``.

    Euclid on the one row: the smallest nonzero |entry|, the first on a
    tie, is swapped to the front, and the others are reduced by floor
    quotients, until only the front is nonzero, and +-1 since v is
    primitive. Those column operations E take v to (+-1, 0, ..., 0), so
    v = (+-1, 0, ..., 0) E^-1, and U = E^-1 is built as row operations:
    swapping two columns of E swaps two rows of U, col_j -= q col_0 is
    row_0 += q row_j, and for -1 a final step negates row 0.
    """
    row = tuple(v)
    _nonempty((row,))
    a = _int_rows((row,))[0]
    n = len(a)
    u = [[0] * n for _ in range(n)]
    for i in range(n):
        u[i][i] = 1
    while True:
        piv, best = None, 0
        for j, x in enumerate(a):
            if x and (piv is None or abs(x) < best):
                piv, best = j, abs(x)
        if piv is None:
            raise ToolkitError("vector is not primitive")
        a[0], a[piv] = a[piv], a[0]
        u[0], u[piv] = u[piv], u[0]
        p = a[0]
        done = True
        for j in range(1, n):
            if a[j]:
                q = a[j] // p
                a[j] -= q * p
                u[0] = [x + q * y for x, y in zip(u[0], u[j])]
                done = done and not a[j]
        if done:
            break
    if p not in (1, -1):  # the gcd of the entries, up to sign
        raise ToolkitError("vector is not primitive")
    if p == -1:
        u[0] = [-x for x in u[0]]
    return tuple(map(tuple, u))
