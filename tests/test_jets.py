"""Jet matrices, speciality bookkeeping, fundamental forms."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from latticejets import base_locus, jets, linalg, oracles
from latticejets.errors import InputError
from latticejets.jets import (_monomial_rows, build_jets, expected_h0, fundamental_form,
                              h0, is_special, jet_row_indices, leading_term_matrix,
                              min_vanishing_degree, rank_j)
from latticejets.poly import MultiPoly, monomials_of_degree, monomials_up_to_degree
from latticejets.polytope import (Direction, LatticePolytope, PointConfig, lattice_points,
                                  lattice_width)
from tests.conftest import cleared_rows, random_config, random_unimodular, reference_rows

PAPER_QUARTICS = ((1, 4, 10, 4, 1),  # w1^4 + 4w1^3w2 + 10w1^2w2^2 + 4w1w2^3 + w2^4
                  (0, 0, 1, 0, 0))   # w1^2 w2^2


def test_build_jets_m1_simplex():
    s = PointConfig(2, ((0, 0), (1, 0), (0, 1)))
    system = build_jets(s, 1)
    assert leading_term_matrix(s, 1) == reference_rows(s, system.row_index, True)
    assert leading_term_matrix(s, 1) == ((1, 1, 1), (0, 1, 0), (0, 0, 1))
    assert system.j_ranks == (1, 3)


def test_order_zero_row_is_all_ones():
    rng = random.Random(2)
    s = random_config(rng, 3, 6)
    assert leading_term_matrix(s, 2)[0] == (1,) * len(s)
    assert reference_rows(s, jet_row_indices(3, 2), True)[0] == (1,) * len(s)


def test_build_jets_rejects_bad_order():
    with pytest.raises(InputError):
        build_jets(PointConfig(2, ((0, 0), (1, 0))), -1)


def test_rem_base_rank_chain(rem_base_points):
    system = build_jets(rem_base_points, 3)
    assert system.j_ranks == (1, 3, 6, 9)


def test_h0_values(rem_base_points):
    assert h0(rem_base_points, 4) == 2
    assert h0(rem_base_points, 3) == 5
    # m = 1: hyperplanes through one point
    assert h0(rem_base_points, 1) == len(rem_base_points) - 1


def test_expected_h0():
    assert expected_h0(10, 2, 4) == 1
    assert expected_h0(10, 2, 3) == 5
    assert expected_h0(7, 3, 0) == 8
    assert expected_h0(3, 2, 5) == 0


def test_is_special(rem_base_points, type_ii_points):
    assert is_special(rem_base_points, 4) is True
    assert is_special(rem_base_points, 3) is False
    assert is_special(type_ii_points, 3) is True


def test_min_vanishing_degree(rem_base_points, type_ii_points):
    assert min_vanishing_degree(type_ii_points) == 2
    assert min_vanishing_degree(rem_base_points) == 3
    corner = lattice_points(LatticePolytope([(0, 0), (2, 0), (0, 2)]))
    assert min_vanishing_degree(corner) == 3


def test_min_vanishing_degree_eliminates_once_per_order_it_passes(monkeypatch,
                                                                rem_base_points):
    columns = []
    real = linalg.row_echelon

    def counting(m):
        columns.append(len(m[0]))
        return real(m)

    monkeypatch.setattr(linalg, "row_echelon", counting)
    assert min_vanishing_degree(PointConfig(2, rem_base_points.points)) == 3
    assert len(columns) <= 2  # cold: orders 2 and 4
    warm = PointConfig(2, rem_base_points.points)
    build_jets(warm, 2)
    columns.clear()
    assert min_vanishing_degree(warm) == 3
    assert len(columns) <= 1  # past the memo's order 2: one elimination
    # on randoms: the least d with rank L_d below its row count, after
    # O(log d) eliminations, none above order 2d
    rng = random.Random(34)
    for _ in range(40):
        k = rng.randint(1, 3)
        s = random_config(rng, k, rng.randint(2, 12), coord_bound=2 if k > 1 else 8)
        columns.clear()
        d = min_vanishing_degree(s)
        expected = next(r for r in range(1, len(s) + 1)
                        if oracles.rank_reference(leading_term_matrix(s, r)) < comb(r + k, k))
        assert d == expected
        assert 1 <= len(columns) <= (d + 1).bit_length() - 1, (d, columns)
        assert max(columns) <= comb(2 * d + k, k)


def test_fundamental_form_rem_base_matches_paper(rem_base_points):
    form = fundamental_form(rem_base_points, 4)
    assert form.dim == 2
    red, _ = linalg.rref(PAPER_QUARTICS)
    assert form.basis == tuple(red)
    assert form.text() == ["w1^4 + 4*w1^3*w2 + 4*w1*w2^3 + w2^4", "w1^2*w2^2"]


def test_fundamental_form_m1_is_full():
    rng = random.Random(6)
    for _ in range(10):
        s = random_config(rng, 2, 5)
        if not s.differences_generate:
            continue
        assert fundamental_form(s, 1).dim == 2


def test_fundamental_form_dimension_equals_rank_jump():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.choice([2, 3])
        s = random_config(rng, k, rng.randint(4, 9))
        m = rng.choice([2, 3])
        system = build_jets(s, m)
        ranks = system.j_ranks
        assert fundamental_form(s, m).dim == ranks[m] - ranks[m - 1]


def test_rank_j_equals_rank_lt_and_kernels_match():
    rng = random.Random(8)
    for _ in range(25):
        k = rng.choice([2, 3])
        s = random_config(rng, k, rng.randint(3, 8))
        m = rng.choice([1, 2, 3])
        j = reference_rows(s, jet_row_indices(k, m), True)
        lt = leading_term_matrix(s, m)
        assert linalg.rank(j) == linalg.rank(lt)
        assert linalg.kernel_basis(j) == linalg.kernel_basis(lt)


def test_h0_chain_monotone():
    rng = random.Random(9)
    for _ in range(15):
        s = random_config(rng, 2, rng.randint(4, 9))
        values = [h0(s, m) for m in range(1, 5)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_form_dimension_bounded():
    rng = random.Random(10)
    for _ in range(15):
        k = rng.choice([2, 3])
        s = random_config(rng, k, rng.randint(4, 9))
        m = rng.choice([2, 3])
        assert fundamental_form(s, m).dim <= comb(m + k - 1, k - 1)


def test_translation_invariance():
    rng = random.Random(11)
    for _ in range(15):
        s = random_config(rng, 2, rng.randint(5, 9))
        t = (rng.randint(-6, 6), rng.randint(-6, 6))
        moved = s.apply(linalg.identity(2), t)
        for m in (2, 3):
            assert build_jets(s, m).j_ranks == build_jets(moved, m).j_ranks
            assert is_special(s, m) == is_special(moved, m)
        assert min_vanishing_degree(s) == min_vanishing_degree(moved)


def _compose_linear(poly, u):
    """Substitute x_i -> sum_j u[i][j] * x_j, term by term."""
    subs = [MultiPoly.affine(row) for row in u]
    out = MultiPoly(poly.nvars)
    for e, c in poly.terms.items():
        term = MultiPoly.constant(poly.nvars, c)
        for sub, a in zip(subs, e):
            for _ in range(a):
                term = term * sub
        out = out + term
    return out


def test_unimodular_equivariance_of_forms():
    rng = random.Random(12)
    for _ in range(10):
        s = random_config(rng, 2, rng.randint(5, 8))
        u = random_unimodular(rng, 2)
        m = rng.choice([2, 3])
        moved = s.apply(u)
        form = fundamental_form(s, m)
        form_moved = fundamental_form(moved, m)
        assert form.dim == form_moved.dim
        # form of U.S equals form of S precomposed with U^T acting on w
        ut = linalg.transpose(u)
        composed = [_compose_linear(poly, ut) for poly in form.polynomials()]
        rows = []
        for poly in composed:
            rows.append([poly.terms.get(e, Fraction(0)) for e in form.monomials])
        if rows:
            red, _ = linalg.rref(cleared_rows(rows))
            red = tuple(r for r in red if any(r))
            assert red == form_moved.basis


def test_min_vanishing_degree_bounded_by_width():
    rng = random.Random(13)
    from tests.conftest import random_full_dim_polytope

    for _ in range(12):
        p = random_full_dim_polytope(rng, 2, coord_bound=4)
        pts = lattice_points(p)
        if len(pts) < 2:
            continue
        assert min_vanishing_degree(pts) <= lattice_width(p).width + 1


def _form_via_canonical_kernel(s, m):
    """Degree-m form basis by the classical route: the RREF kernel basis of
    the falling-factorial jet matrix J_{m-1}, mapped through the
    multinomial-weighted derivative rows D_m."""
    kernel = linalg.kernel_basis(reference_rows(s, jet_row_indices(s.dim, m - 1), True))
    degree = monomials_of_degree(s.dim, m)
    rows = []
    for c in kernel:
        row = []
        for alpha, d_row in zip(degree, reference_rows(s, degree, True)):
            weight = factorial(m)
            for a in alpha:
                weight //= factorial(a)
            row.append(weight * sum(x * y for x, y in zip(d_row, c)))
        if any(row):
            rows.append(row)
    if not rows:
        return len(kernel), ()
    red, _ = linalg.rref(cleared_rows(rows))
    return len(kernel), tuple(r for r in red if any(r))


def test_fundamental_form_matches_canonical_kernel_route():
    # For distinct points the jet ranks grow strictly until they reach the
    # point count, so a nonempty kernel always has a nonzero image: the form
    # is empty exactly when the kernel is.
    rng = random.Random(31)
    empty_kernels = dependent_images = 0
    for _ in range(240):
        k = rng.randint(1, 3)
        m = rng.randint(1, 4)
        bound = rng.choice([1, 2, 3])
        n_points = rng.randint(1, min((2 * bound + 1) ** k, 20))
        s = random_config(rng, k, n_points, coord_bound=bound)
        kernel_dim, expected = _form_via_canonical_kernel(s, m)
        form = fundamental_form(s, m)
        assert form.monomials == tuple(monomials_of_degree(k, m))
        assert form.basis == expected
        assert all(type(x) is Fraction for row in form.basis for x in row)
        empty_kernels += kernel_dim == 0
        dependent_images += kernel_dim > form.dim
    assert empty_kernels >= 10
    assert dependent_images >= 10


def test_leading_term_matrix_is_the_build_jets_block():
    rng = random.Random(32)
    for _ in range(20):
        k = rng.randint(1, 3)
        s = random_config(rng, k, rng.randint(1, 8))
        m = rng.randint(0, 3)
        assert leading_term_matrix(s, m) == reference_rows(s, build_jets(s, m).row_index, False)


def test_jet_ranks_are_the_prefix_ranks():
    rng = random.Random(33)
    for _ in range(60):
        k = rng.choice((2, 3))
        s = random_config(rng, k, rng.randint(1, 14), coord_bound=3)
        m = rng.randint(0, 4)
        lt = leading_term_matrix(s, m)
        assert build_jets(s, m).j_ranks == tuple(oracles.rank_reference(lt[:comb(r + k, k)])
                                                 for r in range(m + 1)), (s, m)


def test_monomial_rows_match_the_entrywise_reference():
    rng = random.Random(34)
    negative = 0
    for _ in range(120):
        k = rng.randint(1, 3)
        bound = rng.choice((1, 3, 6))
        s = random_config(rng, k, rng.randint(1, min(10, (2 * bound + 1) ** k)), coord_bound=bound)
        m = rng.randint(0, 4)
        alphas = monomials_up_to_degree(k, m)
        j_ref = reference_rows(s, alphas, True)
        lt_ref = reference_rows(s, alphas, False)
        assert build_jets(s, m).row_index == tuple(alphas)
        assert leading_term_matrix(s, m) == lt_ref, (s, m)
        assert _monomial_rows(s, m) == [list(row) for row in zip(*lt_ref)], (s, m)  # point-major
        assert rank_j(s, m) == oracles.rank_reference(j_ref)
        negative += any(x < 0 for p in s.points for x in p)
    assert negative >= 60


# every question that reads the memoised jet echelon, asked at echelon order r
MEMO_QUESTIONS = {
    "rank_j": lambda s, r: rank_j(s, r),
    "h0": lambda s, r: h0(s, r + 1),
    "is_special": lambda s, r: is_special(s, r + 1),
    "j_ranks": lambda s, r: build_jets(s, r).j_ranks,
    "form": lambda s, r: fundamental_form(s, r).basis if r else None,
    "min_vanishing_degree": lambda s, r: min_vanishing_degree(s),
}


def test_memoised_echelon_answers_do_not_depend_on_call_order():
    rng = random.Random(35)
    questions = [(name, r) for name in MEMO_QUESTIONS for r in range(4)]
    for _ in range(40):
        k = rng.choice((2, 3))
        pts = random_config(rng, k, rng.randint(2, 12), coord_bound=3).points
        # each answer on a fresh configuration, with an empty memo
        fresh = {(name, r): MEMO_QUESTIONS[name](PointConfig(k, pts), r)
                 for name, r in questions}
        shared = PointConfig(k, pts)
        empty = (shared, hash(shared), repr(shared))
        for name, r in rng.sample(questions, len(questions)):
            assert MEMO_QUESTIONS[name](shared, r) == fresh[name, r], (pts, name, r)
        assert shared._jet_echelon.order >= 3
        # a second pass reads the filled memo only
        for name, r in rng.sample(questions, len(questions)):
            assert MEMO_QUESTIONS[name](shared, r) == fresh[name, r], (pts, name, r)
        assert (shared, hash(shared), repr(shared)) == empty
        assert shared == PointConfig(k, pts)


def test_echelon_prefix_gives_the_lower_order_ranks():
    rng = random.Random(36)
    for _ in range(30):
        k = rng.choice((2, 3))
        s = random_config(rng, k, rng.randint(1, 12), coord_bound=3)
        top = rng.randint(1, 3)
        assert jets._echelon(s, top).order == top
        for r in range(top + 1):
            assert jets._echelon(s, r).order == top  # a hit: the memo is kept
            assert rank_j(s, r) == oracles.rank_reference(leading_term_matrix(s, r))
        assert jets._echelon(s, top + 1).order == top + 1


def test_echelon_rejects_bad_orders_with_a_filled_memo():
    s = PointConfig(2, ((0, 0), (1, 0), (0, 1)))
    rank_j(s, 2)
    with pytest.raises(InputError):
        rank_j(s, -1)
    with pytest.raises(InputError):
        fundamental_form(s, 0)
    with pytest.raises(InputError):
        rank_j(PointConfig(2, ()), 1)


def test_falling_factorial_matrix_has_the_leading_term_ranks_kernels_and_images():
    # J_m = T L_m with T unitriangular: equal prefix ranks and right kernels,
    # and on ker J_{m-1} the degree-m rows agree, D_m c = L_m c
    rng = random.Random(37)
    images = 0
    for _ in range(40):
        k = rng.randint(1, 3)
        bound = rng.choice((1, 2, 3))
        s = random_config(rng, k, rng.randint(1, min(10, (2 * bound + 1) ** k)), coord_bound=bound)
        for m in range(5):
            j = reference_rows(s, jet_row_indices(k, m), True)
            lt = leading_term_matrix(s, m)
            assert oracles.rank_reference(j) == oracles.rank_reference(lt), (s, m)
            assert oracles.same_span(oracles.right_kernel_reference(j),
                                     oracles.right_kernel_reference(lt)), (s, m)
            if m == 0:
                continue
            lo = comb(m - 1 + k, k)
            for c in oracles.right_kernel_reference(j[:lo]):
                image = linalg.mat_vec(j[lo:], c)
                assert image == linalg.mat_vec(lt[lo:], c), (s, m, c)
                images += any(image)
    assert images >= 100


def _count_monomial_rows(monkeypatch):
    calls = []

    def counted(s, m):
        calls.append(m)
        return _monomial_rows(s, m)

    monkeypatch.setattr(jets, "_monomial_rows", counted)
    return calls


def test_build_jets_builds_the_monomial_rows_once(monkeypatch):
    calls = _count_monomial_rows(monkeypatch)
    rng = random.Random(38)
    for _ in range(10):
        k = rng.randint(1, 3)
        s = random_config(rng, k, rng.randint(2, 7), coord_bound=3)
        m = rng.randint(0, 3)
        del calls[:]
        build_jets(s, m)
        assert calls == [m]
        for r in range(m + 1):
            build_jets(s, r)
            rank_j(s, r)
        assert calls == [m]


_SIX = PointConfig(2, ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: build_jets(_SIX, 1.5), "order 1.5 is not an integer"),
    (lambda: build_jets(_SIX, True), "order True is not an integer"),
    (lambda: jet_row_indices(2, True), "order True is not an integer"),
    (lambda: leading_term_matrix(_SIX, 1.5), "order 1.5 is not an integer"),
    (lambda: rank_j(_SIX, 2.0), "order 2.0 is not an integer"),
    (lambda: h0(_SIX, 2.0), "order 2.0 is not an integer"),
    (lambda: expected_h0(5, 2, "2"), "order '2' is not an integer"),
    (lambda: is_special(_SIX, True), "order True is not an integer"),
    (lambda: fundamental_form(_SIX, "2"), "order '2' is not an integer"),
    (lambda: base_locus.is_base_point(_SIX, 2.0, Direction((0, 1))),
     "order 2.0 is not an integer"),
    (lambda: base_locus.is_base_point_via_form(_SIX, 2.0, Direction((0, 1))),
     "order 2.0 is not an integer"),
    (lambda: base_locus.base_locus_k2(_SIX, 2.5), "order 2.5 is not an integer"),
    (lambda: LatticePolytope([(0,), (2,)], dim=True), "dimension must be an integer"),
    (lambda: PointConfig(True, ((0,), (1,))), "dimension must be an integer"),
], ids=["build-jets-float", "build-jets-bool", "row-indices-bool", "leading-terms-float",
        "rank-j-float", "h0-float", "expected-h0-str", "is-special-bool", "form-str",
        "base-point-float", "base-point-via-form-float", "base-locus-float",
        "polytope-dim-bool", "config-dim-bool"])
def test_orders_and_dimensions_reject_other_types(call, message):
    # argparse's type=int already rejects these on the CLI, so no CLI byte changes
    with pytest.raises(InputError, match=message):
        call()
