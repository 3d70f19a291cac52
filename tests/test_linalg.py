"""Exact linear algebra: ranks, kernels, normal forms, saturation."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from latticejets import linalg, oracles
from latticejets.errors import InputError, ToolkitError
from latticejets.jets import leading_term_matrix
from latticejets.wps import WeightVector, width_direction
from tests.conftest import cleared_rows, invariant_factors_reference

U_MATRIX = ((1, -2, 0, 1), (0, 1, -2, 1))  # exponent differences of the worked example


def test_rank_identity():
    assert linalg.rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_proportional_rows():
    assert linalg.rank([[1, 2], [2, 4]]) == 1


def test_rank_empty_matrix_raises():
    with pytest.raises(ToolkitError, match="degenerate"):
        linalg.rank(())


def test_rank_rejects_ragged_rows():
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [(1, -1, 0, 0), (0, 1, -1)]):
        with pytest.raises(ToolkitError, match="ragged"):
            linalg.rank(rows)


def test_rank_rem_base_jets(rem_base_points):
    # 11 points on a cubic: the order-3 jet matrix cannot have full row rank
    j3 = leading_term_matrix(rem_base_points, 3)
    assert len(j3) == 10
    assert linalg.rank(j3) == 9
    assert oracles.rank_reference(j3) == 9


def test_rank_agrees_with_reference_on_randoms():
    rng = random.Random(42)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(cols)) for _ in range(rows))
        assert linalg.rank(cleared_rows(m)) == oracles.rank_reference(m)


def test_rank_accepts_int_rows():
    rng = random.Random(43)
    for _ in range(200):
        cols = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [0] * cols)
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in rows:
                row[j] = 0
        if rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        frozen = [list(row) for row in rows]
        expected = oracles.rank_reference(rows)
        assert linalg.rank(rows) == expected
        assert rows == frozen  # the caller's rows are not modified
        # dividing a whole row by one integer keeps the rank, and so does
        # clearing it of denominators again
        mixed = [[Fraction(x, d) for x in row] if d > 1 else row
                 for row, d in zip(rows, (rng.randint(1, 5) for _ in rows))]
        assert linalg.rank(cleared_rows(mixed)) == oracles.rank_reference(mixed) == expected


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 1.5, 2.0, True],
                         ids=["fraction", "integral-fraction", "float", "integral-float", "bool"])
def test_non_integer_entries_fail_the_input_check(bad):
    square = [[bad, 0], [0, 3]]
    calls = [
        lambda: linalg.rank(square),
        lambda: linalg.solve(square, [1, 2]),
        lambda: linalg.solve([[1, 0], [0, 3]], [bad, 2]),
        lambda: linalg.bareiss_det(square),
        lambda: linalg.scaled_inverse(square),
        lambda: linalg.smith_normal_form(square),
        lambda: linalg.integral_kernel([[bad, 0]]),
        lambda: linalg.hermite_normal_form(square),
        lambda: linalg.rref([[1, 2], [3, bad]]),
        lambda: linalg.kernel_basis([[1, bad, 0]]),
        lambda: linalg.lattice_coordinates([[1, 0], [0, 1]], [[1, 2], [bad, 0]]),
        lambda: linalg.complete_to_unimodular((bad, 1)),
        lambda: linalg.bezout(bad, 1),
        lambda: linalg.bezout(1, bad),
        lambda: linalg.lattice_is_saturated(square),
        lambda: linalg.lattice_index(square),
        lambda: linalg.integer_matrix(square),
    ]
    for call in calls:
        with pytest.raises(ToolkitError, match="non-integer entry"):
            call()
    # the screen's width direction reads its exponent vectors as input points
    w = WeightVector((7, 11, 13, 15))
    with pytest.raises(InputError, match="is not a vector of integers"):
        width_direction(w, (bad, -2, 0, 1), (0, 1, -2, 1))


def test_right_kernel_of_identity_is_empty():
    assert linalg.kernel_basis([[1, 0], [0, 1]]) == ()


def test_left_kernel_type_ii_conics(type_ii_points):
    # conics through the seven points form a pencil: y^2 - y and x*y
    lt = leading_term_matrix(type_ii_points, 2)
    kb = linalg.kernel_basis(linalg.transpose(lt))
    assert len(kb) == 2
    # row order of the matrix: 1, x, y, x^2, x*y, y^2
    y2_minus_y = (0, 0, -1, 0, 0, 1)
    xy = (0, 0, 0, 0, 1, 0)
    for vec in (y2_minus_y, xy):
        stacked = cleared_rows(kb) + [vec]
        assert linalg.rank(stacked) == len(kb)


def test_left_kernel_rem_base_cubic_unique(rem_base_points):
    lt = leading_term_matrix(rem_base_points, 3)
    assert len(linalg.kernel_basis(linalg.transpose(lt))) == 1


def test_kernel_dimension_identity_on_randoms():
    rng = random.Random(1)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(cols)) for _ in range(rows))
        r = linalg.rank(m)
        assert len(linalg.kernel_basis(m)) == cols - r
        assert len(linalg.kernel_basis(linalg.transpose(m))) == rows - r


def test_kernel_is_canonical_rref():
    m = [[1, 1, 1, 1]]
    kb = linalg.kernel_basis(m)
    # RREF basis: pivots 1, zeros above and below
    red, pivots = linalg.rref(cleared_rows(kb))
    assert red == kb
    for r, c in enumerate(pivots):
        assert kb[r][c] == 1


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(20):
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(3))
        for v in linalg.kernel_basis(m):
            assert not any(linalg.mat_vec(m, v))
        for v in linalg.kernel_basis(linalg.transpose(m)):
            assert not any(linalg.mat_vec(linalg.transpose(m), v))


def test_smith_normal_form_diag_2_3():
    m = linalg.integer_matrix([[2, 0], [0, 3]])
    u, d, v = linalg.smith_normal_form(m)
    assert linalg.mat_mul(linalg.mat_mul(u, m), v) == d
    assert (d[0][0], d[1][1]) == (1, 6)


def _smith_divisors(m):
    """The nonzero diagonal entries of ``linalg.smith_normal_form``."""
    _, d, _ = linalg.smith_normal_form(linalg.integer_matrix(m))
    return tuple(x for x in (d[i][i] for i in range(min(len(d), len(d[0])))) if x)


def test_smith_normal_form_worked_example_divisors():
    assert _smith_divisors(U_MATRIX) == (1, 1)


def test_smith_normal_form_zero_row_appended():
    rng = random.Random(9)
    for _ in range(15):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        assert _smith_divisors(m) == _smith_divisors(m + [[0] * cols])


def test_smith_normal_form_properties_on_randoms():
    rng = random.Random(4)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = linalg.integer_matrix([[rng.randint(-9, 9) for _ in range(cols)]
                                   for _ in range(rows)])
        u, d, v = linalg.smith_normal_form(m)
        assert linalg.mat_mul(linalg.mat_mul(u, m), v) == d
        assert linalg.bareiss_det(u) in (1, -1)
        assert linalg.bareiss_det(v) in (1, -1)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


def test_is_saturated():
    assert linalg.lattice_is_saturated(linalg.integer_matrix([[1, 0], [0, 1]])) is True
    assert linalg.lattice_is_saturated(linalg.integer_matrix([[2, 0], [0, 1]])) is False
    assert linalg.lattice_is_saturated(linalg.integer_matrix(U_MATRIX)) is True


def test_lattice_is_saturated_tolerates_dependent_rows():
    assert linalg.lattice_is_saturated(linalg.integer_matrix([[1, 2], [2, 4]])) is True
    assert linalg.lattice_is_saturated(linalg.integer_matrix([[2, 4], [4, 8]])) is False


def test_integral_kernel_sum_vector():
    assert linalg.integral_kernel(linalg.integer_matrix([[1, 1]])) == ((1, -1),)


def test_integral_kernel_of_identity_is_empty():
    assert linalg.integral_kernel(linalg.identity(3)) == ()


def test_integral_kernel_worked_example_contains_w_and_v():
    kernel = linalg.integral_kernel(linalg.integer_matrix(U_MATRIX))
    assert len(kernel) == 2
    bt = linalg.transpose(kernel)
    for target in ((7, 11, 13, 15), (3, 5, 6, 7)):
        x, d = linalg.solve(bt, target)
        assert not any(c % d for c in x)  # an integer solution


def _kernel_corpus():
    """2,000 seeded integer matrices up to 5 x 5: many zero entries, dependent
    rows and zero rows."""
    rng = random.Random(61)
    for _ in range(2000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.choice((0, 0, rng.randint(-3, 3), rng.randint(-12, 12))) for _ in range(cols)]
             for _ in range(rows)]
        if rows > 2 and rng.random() < 0.4:  # a dependent row
            m[-1] = [rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(m[0], m[1])]
        if rng.random() < 0.15:
            m[rng.randrange(rows)] = [0] * cols
        yield m


def test_integral_kernel_matches_the_pinned_corpus():
    # the digest was read off the Smith-form kernel (the Hermite form of the
    # columns of V past the rank); a Hermite form is unique, so any correct
    # route to it gives the same rows
    h = hashlib.sha256()
    for m in _kernel_corpus():
        kernel = linalg.integral_kernel(m)
        assert len(kernel) == len(m[0]) - linalg.rank(m)
        h.update(json.dumps([list(row) for row in kernel]).encode())
    assert h.hexdigest() == "9044fdb3f6f295db6886cbbe769ff0dcd2c6e66cf7d36f0bfe6501cf031ddb3f"


def test_integral_kernel_annihilates_and_is_saturated():
    rng = random.Random(5)
    for _ in range(30):
        rows = rng.randint(1, 3)
        cols = rng.randint(2, 5)
        m = linalg.integer_matrix([[rng.randint(-5, 5) for _ in range(cols)]
                                   for _ in range(rows)])
        kernel = linalg.integral_kernel(m)
        for vec in kernel:
            assert not any(linalg.mat_vec(m, vec))
        if kernel:
            assert linalg.rank(kernel) == len(kernel)
            assert linalg.lattice_is_saturated(kernel) is True


def test_determinism_bit_identical():
    m = linalg.integer_matrix([[6, 4, -2], [2, -8, 3]])
    assert linalg.smith_normal_form(m) == linalg.smith_normal_form(m)
    mm = [[1, 2, 3], [4, 5, 6]]
    assert linalg.kernel_basis(mm) == linalg.kernel_basis(mm)


def test_hermite_normal_form_is_lattice_invariant():
    rng = random.Random(8)
    from tests.conftest import random_unimodular

    for _ in range(20):
        m = linalg.integer_matrix([[rng.randint(-5, 5) for _ in range(4)]
                                   for _ in range(3)])
        u = random_unimodular(rng, 3)
        assert linalg.hermite_normal_form(m) == \
            linalg.hermite_normal_form(linalg.mat_mul(u, m))


def test_complete_to_unimodular():
    for v in ((3, 5, 6, 7), (1, 0, 0), (0, -1), (2, 3), (-3, -5, 7)):
        u = linalg.complete_to_unimodular(v)
        assert u[0] == v
        assert linalg.bareiss_det(u) in (1, -1)
    with pytest.raises(ToolkitError, match="primitive"):
        linalg.complete_to_unimodular((2, 4))


def _smith_completion(v):
    """The Smith route: V from the SNF of the one row, flipped to +1, then inverted."""
    n = len(v)
    _, d, vv = linalg.smith_normal_form((tuple(v),))
    if d[0][0] != 1:
        raise ToolkitError("vector is not primitive")
    if sum(v[i] * vv[i][0] for i in range(n)) == -1:
        vv = tuple((-row[0],) + tuple(row[1:]) for row in vv)
    return linalg.inverse_unimodular(vv)


def test_complete_to_unimodular_matches_the_smith_route():
    rng = random.Random(23)
    primitive = 0
    for _ in range(4000):
        n = rng.randint(1, 5)
        v = tuple(rng.choice((0, rng.randint(-3, 3), rng.randint(-40, 40))) for _ in range(n))
        try:
            expected = _smith_completion(v)
        except ToolkitError as exc:
            with pytest.raises(ToolkitError, match=str(exc)):
                linalg.complete_to_unimodular(v)
            continue
        primitive += 1
        assert linalg.complete_to_unimodular(v) == expected
    assert primitive >= 2000
    for v in ((0,), (0, 0, 0), (2, 4), (-6, 0, 9, 3)):
        with pytest.raises(ToolkitError, match="vector is not primitive"):
            linalg.complete_to_unimodular(v)
    for call in (_smith_completion, linalg.complete_to_unimodular):
        with pytest.raises(ToolkitError, match="degenerate input: empty matrix"):
            call(())


def test_lattice_is_saturated_matches_the_elementary_divisors():
    rng = random.Random(29)
    seen = set()
    for _ in range(600):
        rows, cols = rng.randint(1, 7), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            k = rng.randint(2, 3)
            m = [[k * x for x in row] for row in m]
        if rows > 2 and rng.random() < 0.4:  # a dependent row
            m[-1] = [x + rng.randint(-3, 3) * y for x, y in zip(m[0], m[1])]
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:  # rank 2 in a wider row: the screen's shape
            m = [row[:] for row in m[:2]] + [[a - b for a, b in zip(m[0], m[1 % rows])]]
        divisors = invariant_factors_reference(m)
        index = 1
        for d in divisors:
            index *= d
        saturated = all(d == 1 for d in divisors)
        assert linalg.lattice_is_saturated(m) is saturated
        assert linalg.lattice_index(m) == index
        seen.add((saturated, linalg.rank(m) < rows))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert linalg.lattice_is_saturated([[0, 0], [0, 0]]) is True
    assert linalg.lattice_index([[0, 0, 0]]) == 1
    with pytest.raises(ToolkitError, match="degenerate input: empty matrix"):
        linalg.lattice_is_saturated([])


def test_solve_particular_and_inconsistent():
    a = [[1, 1, 0], [0, 0, 1]]
    assert linalg.solve(a, [3, 5]) == ((3, 0, 5), 1)  # free variable zeroed
    # the first equation x0 + x1 = 3/2, cleared of its denominator
    assert linalg.solve([[2, 2, 0], [0, 0, 1]], [3, 5]) == ((3, 0, 10), 2)
    assert linalg.solve([[1], [1]], [0, 1]) is None


def test_inverse_unimodular():
    u = linalg.integer_matrix([[2, 1], [1, 1]])
    inv = linalg.inverse_unimodular(u)
    assert linalg.mat_mul(u, inv) == linalg.identity(2)


def _random_unimodular_by_products(rng, k, steps=5, shear_bound=3):
    """The test helper's draws as the product of its elementary matrices."""
    u = linalg.identity(k)
    for _ in range(steps):
        i, j = rng.sample(range(k), 2)
        kind = rng.randrange(3)
        m = [[1 if a == b else 0 for b in range(k)] for a in range(k)]
        if kind == 0:
            m[i][j] = rng.randint(-shear_bound, shear_bound)
        elif kind == 1:
            m[i][i] = m[j][j] = 0
            m[i][j], m[j][i] = 1, -1
        else:
            m[i][i] = -1
        u = linalg.mat_mul(m, u)
    return u


def test_random_unimodular_draws_are_the_products_of_elementary_matrices():
    from tests.conftest import random_unimodular

    for k in (2, 3, 4):
        for seed in range(200):
            got = random_unimodular(random.Random(seed), k)
            assert got == _random_unimodular_by_products(random.Random(seed), k), (k, seed)
            assert abs(linalg.bareiss_det(got)) == 1


def test_bezout_coprime_pairs():
    rng = random.Random(17)
    pairs = [(0, 1), (0, -1), (1, 0), (-1, 0), (-3, -5), (7, -12), (-10**9, 10**9 + 1)]
    while len(pairs) < 500:
        a, b = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
        if gcd(a, b) == 1:
            pairs.append((a, b))
    for a, b in pairs:
        s, t = linalg.bezout(a, b)
        assert s * a + t * b == 1, (a, b)


def _random_int_matrix(rng, rows, cols, bound=6):
    # about a third of the entries are zero, so pivots often need a row swap
    return [[rng.choice((0, rng.randint(-bound, bound))) for _ in range(cols)]
            for _ in range(rows)]


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _degenerate(rng, m):
    """Copy of m, at random made rank-deficient or given a zero row or column."""
    m = [list(row) for row in m]
    nrows, ncols = len(m), len(m[0])
    if nrows > 2 and rng.random() < 0.3:  # a row that is a combination of two others
        i, j, k = rng.sample(range(nrows), 3)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    if rng.random() < 0.2:
        m[rng.randrange(nrows)] = [0] * ncols
    if rng.random() < 0.2:
        j = rng.randrange(ncols)
        for row in m:
            row[j] = 0
    return m


def test_scaled_rref_matches_the_reference():
    rng = random.Random(24)
    rhs_rng = random.Random(124)  # right sides for solve, off the matrix stream
    seen = {"deficient": 0, "cleared": 0, "zero row": 0, "zero column": 0,
            "consistent": 0, "inconsistent": 0}
    for _ in range(600):
        m = _degenerate(rng, _random_int_matrix(rng, rng.randint(1, 7), rng.randint(1, 8)))
        if rng.random() < 0.3:  # rows of Fractions, some with denominators, cleared again
            fractions = [[Fraction(x, q) for x in row]
                         for row, q in zip(m, (rng.randint(1, 4) for _ in m))]
            m = cleared_rows(fractions)
            assert oracles.rref_reference(m) == oracles.rref_reference(fractions)
            seen["cleared"] += 1
        red, ref_pivots = oracles.rref_reference(m)
        a, pivots, d = linalg.scaled_rref(m)
        assert linalg.rref(m) == (red, ref_pivots), m
        assert pivots == ref_pivots
        assert all(type(x) is int for row in a for x in row)
        assert a == tuple(tuple(d * x for x in row) for row in red), m
        assert all(a[r][c] == d for r, c in enumerate(pivots)), m
        assert linalg.rank(m) == len(pivots)
        assert linalg.pivot_columns(m) == ref_pivots
        assert (linalg.pivot_columns(linalg.transpose(m))
                == oracles.rref_reference(linalg.transpose(m))[1]), m
        b = [rhs_rng.randint(-5, 5) for _ in m]
        if rhs_rng.random() < 0.5:  # a consistent right side: m times an integer vector
            c = [rhs_rng.randint(-3, 3) for _ in m[0]]
            b = [sum(x * y for x, y in zip(row, c)) for row in m]
        aug_red, aug_pivots = oracles.rref_reference([list(row) + [y] for row, y in zip(m, b)])
        sol = linalg.solve(m, b)
        if len(m[0]) in aug_pivots:
            assert sol is None, (m, b)
            seen["inconsistent"] += 1
        else:
            x, d = sol
            assert d > 0 and all(type(c) is int for c in x), (m, b)
            assert linalg.mat_vec(m, x) == tuple(d * y for y in b), (m, b)
            ref = [0] * len(m[0])  # the particular solution: every free variable zero
            for row, pc in zip(aug_red, aug_pivots):
                ref[pc] = row[-1]
            assert [Fraction(c, d) for c in x] == ref, (m, b)
            seen["consistent"] += 1
        seen["deficient"] += len(pivots) < min(len(m), len(m[0]))
        seen["zero row"] += any(not any(row) for row in m)
        seen["zero column"] += any(not any(col) for col in zip(*m))
    assert min(seen.values()) >= 50, seen
    signs = set()
    for n in range(1, 5):
        for _ in range(150):
            m = _degenerate(rng, _random_int_matrix(rng, n, n))
            det = linalg.bareiss_det(m)
            assert det == _cofactor_det(m), m
            signs.add((det > 0) - (det < 0))
    assert signs == {-1, 0, 1}


def test_row_echelon_spans_the_rows_and_cuts_to_prefixes():
    rng = random.Random(25)
    deficient = 0
    for _ in range(400):
        m = _degenerate(rng, _random_int_matrix(rng, rng.randint(1, 9), rng.randint(1, 7)))
        red, ref_pivots = oracles.rref_reference(m)
        e, pivots = linalg.row_echelon(m)
        assert pivots == ref_pivots, m
        assert all(type(x) is int for row in e for x in row)
        # echelon shape: zero before each pivot, zero below it, zero past the rank
        for r, c in enumerate(pivots):
            assert e[r][c] and not any(e[r][:c]), m
            assert not any(row[c] for row in e[r + 1:]), m
        assert not any(any(row) for row in e[len(pivots):]), m
        # the same row space: its canonical RREF is the reference's
        assert oracles.rref_reference(e) == (red, ref_pivots), m
        c = rng.randint(1, len(m[0]))
        cut_e, cut_pivots = linalg.row_echelon([row[:c] for row in m])
        assert cut_e == tuple(row[:c] for row in e), (m, c)
        assert cut_pivots == tuple(p for p in pivots if p < c)
        deficient += len(pivots) < min(len(m), len(m[0]))
    assert deficient >= 50


def test_scaled_inverse_identity():
    rng = random.Random(21)
    fixed = [[[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]],  # pivots only after swaps
             [[0, 2, 1], [3, 0, 0], [1, 1, 0]], [[2, 1], [1, 1]], [[-1]], [[7]],
             [[4, 0], [0, 6]]]
    randoms = [_random_int_matrix(rng, n, n) for n in range(1, 6) for _ in range(120)]
    seen_dets = set()
    for m in fixed + randoms:
        n = len(m)
        det = linalg.bareiss_det(m)
        if det == 0:
            with pytest.raises(ToolkitError, match="singular"):
                linalg.scaled_inverse(m)
            continue
        inv, d = linalg.scaled_inverse(m)
        assert linalg.mat_mul(inv, m) == tuple(tuple(d if i == j else 0 for j in range(n))
                                               for i in range(n))
        assert abs(d) == abs(det)
        seen_dets.add(min(abs(det), 2))
    assert seen_dets == {1, 2}  # unimodular and non-unimodular inputs both occur
    for singular in ([[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        with pytest.raises(ToolkitError, match="singular"):
            linalg.scaled_inverse(singular)


def _fraction_solve_coordinates(basis, x):
    """The reference route: a rational solve of B^T c = x, kept only if integral."""
    sol = linalg.solve(linalg.transpose(basis), x)
    if sol is None or any(c % sol[1] for c in sol[0]):
        return None
    return tuple(c // sol[1] for c in sol[0])


def test_lattice_coordinates_matches_fraction_solve():
    rng = random.Random(22)
    kinds = {"lattice": 0, "non-integral": 0, "off-span": 0}
    for _ in range(300):
        r = rng.randint(1, 4)
        k = rng.randint(r, 5)
        basis = _random_int_matrix(rng, r, k, bound=5)
        if linalg.rank(basis) != r:
            continue
        vectors = []
        for _ in range(3):  # integer combinations: inside the lattice
            vectors.append([sum(rng.randint(-4, 4) * row[j] for row in basis) for j in range(k)])
        for _ in range(3):  # an integral vector c B / q of the span, usually off the lattice
            q = rng.randint(2, 4)
            c = [rng.randint(-6, 6) for _ in range(r)]
            comb = [sum(ci * row[j] for ci, row in zip(c, basis)) for j in range(k)]
            if all(x % q == 0 for x in comb):
                vectors.append([x // q for x in comb])
        for _ in range(3):  # arbitrary integer vectors, off the span when r < k
            vectors.append([rng.randint(-9, 9) for _ in range(k)])
        got = linalg.lattice_coordinates(basis, vectors)
        assert len(got) == len(vectors)
        for x, coords in zip(vectors, got):
            assert coords == _fraction_solve_coordinates(basis, x), (basis, x)
            if coords is not None:
                kinds["lattice"] += 1
            elif linalg.rank(basis + [x]) == r:
                kinds["non-integral"] += 1
            else:
                kinds["off-span"] += 1
    assert min(kinds.values()) >= 20, kinds
    with pytest.raises(ToolkitError, match="full row rank"):
        linalg.lattice_coordinates([[1, 2, 3], [2, 4, 6]], [[1, 2, 3]])


def test_lattice_coordinates_rejects_vectors_of_the_wrong_length():
    basis = [[1, 0, 0], [0, 1, 0]]
    assert linalg.lattice_coordinates(basis, [[1, 0, 0]]) == [(1, 0)]
    for x in ([1, 0], [1, 0, 0, 7]):
        with pytest.raises(ToolkitError, match="coordinates"):
            linalg.lattice_coordinates(basis, [x])


def test_inverse_unimodular_random():
    rng = random.Random(23)
    for n in range(1, 6):
        for _ in range(40):
            u = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(rng.randint(0, 8)):
                i = rng.randrange(n)
                op = rng.randrange(3) if n > 1 else 2
                if op == 0:  # row_i += c * row_j
                    j = rng.choice([x for x in range(n) if x != i])
                    c = rng.randint(-4, 4)
                    u[i] = [a + c * b for a, b in zip(u[i], u[j])]
                elif op == 1:
                    j = rng.randrange(n)
                    u[i], u[j] = u[j], u[i]
                else:
                    u[i] = [-a for a in u[i]]
            inv = linalg.inverse_unimodular(u)
            assert linalg.mat_mul(inv, u) == linalg.mat_mul(u, inv) == linalg.identity(n)
            assert all(isinstance(x, int) for row in inv for x in row)
    with pytest.raises(ToolkitError, match="not unimodular"):
        linalg.inverse_unimodular([[2, 1], [1, 2]])

