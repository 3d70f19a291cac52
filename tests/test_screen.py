"""Obstruction conditions, witness construction, nefness certificate."""

import random
import types
from fractions import Fraction
from math import gcd

import pytest

import latticejets.screen as screen_module
from latticejets import linalg
from latticejets.errors import InputError
from latticejets.polytope import (Direction, LatticePolytope, lattice_points, lattice_width,
                                  slice_points, width_in_direction)
from latticejets.screen import _affine_basis, _line_misses_span, corollary_check, nef_check
from latticejets.surface2 import normal_form
from tests.conftest import random_config

DELTA_PRIME = LatticePolytope([(0, 0, 0), (572, 286, 143),
                               (390, 195, -585), (495, -330, -165)])
PAPER_TRIANGLE = LatticePolytope([(0, 0), (4, -3), (5, 3)])  # width 5 toward (1,0)


def test_delta_prime_all_conditions():
    rep = corollary_check(DELTA_PRIME, Direction((1, 0, 0)))
    assert rep.lw == 572
    assert rep.cond1 and rep.cond2 and rep.cond3
    assert rep.verified
    assert set(rep.slice_config.points) == {(1, 0, -1), (1, 0, 0)}
    # the paper's quadric cylinder: x^2 - x - 2(m-1) y with m = 572
    assert rep.witness.paraboloid.integer_normalized().text("x") == \
        "x1^2 - x1 - 1142*x2"


def test_unit_simplex_cond1_fails():
    simplex = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    rep = corollary_check(simplex, Direction((1, 0, 0)))
    assert rep.cond1 is False
    assert rep.witness is None


def test_delta_prime_dilation_stability():
    for r in (2, 3):
        rep = corollary_check(DELTA_PRIME.dilate(r), Direction((1, 0, 0)))
        assert rep.cond1 and rep.cond2 and rep.cond3 and rep.verified
        assert rep.lw == 572 * r


def test_paper_triangle_full_witness_check():
    rep = corollary_check(PAPER_TRIANGLE, Direction((1, 0)))
    assert rep.all_conditions and rep.verified
    assert rep.lw == 5
    pts = lattice_points(PAPER_TRIANGLE)
    assert all(rep.witness.is_zero_at(q) for q in pts)
    expanded = rep.witness.expanded()
    assert all(expanded.evaluate(q) == 0 for q in pts)
    # leading form is the width power of the level form
    from latticejets.poly import MultiPoly

    top = max(sum(e) for e in expanded.terms)
    lead = MultiPoly(2, {e: c for e, c in expanded.terms.items() if sum(e) == top})
    lead = lead.integer_normalized()
    assert lead == MultiPoly.linear_form_power((1, 0), 5).integer_normalized()


def test_paper_triangle_dilation():
    doubled = PAPER_TRIANGLE.dilate(2)
    rep = corollary_check(doubled, Direction((1, 0)))
    assert rep.all_conditions and rep.verified and rep.lw == 10
    assert all(rep.witness.is_zero_at(q) for q in lattice_points(doubled).points)


def test_witness_links_to_base_point():
    # a passing obstruction report certifies a base point of order lw
    from latticejets.base_locus import is_base_point

    rep = corollary_check(PAPER_TRIANGLE, Direction((1, 0)))
    pts = lattice_points(PAPER_TRIANGLE)
    assert is_base_point(pts, rep.lw, rep.direction)[0] is True


def test_empty_slice_is_vacuous():
    # no lattice points at level 1: conditions (2) and (3) hold vacuously
    p = LatticePolytope([(0, 0), (2, 1), (5, 2)])
    rep = corollary_check(p, Direction((1, 0)))
    assert rep.cond2_vacuous
    assert rep.all_conditions
    assert rep.verified
    assert all(rep.witness.is_zero_at(q) for q in lattice_points(p).points)


def test_affine_basis_is_a_rank_raising_subsequence():
    rng = random.Random(29)
    for _ in range(200):
        k = rng.choice([2, 3])
        pts = random_config(rng, k, rng.randint(1, 6), coord_bound=2).points
        basis = _affine_basis(pts)
        assert basis[0] == pts[0]
        assert [q for q in pts if q in basis] == list(basis)
        for i in range(1, len(basis) + 1):
            diffs = [tuple(a - b for a, b in zip(q, pts[0])) for q in basis[1:i]]
            assert (linalg.rank(diffs) if diffs else 0) == i - 1
        diffs = [tuple(a - b for a, b in zip(q, pts[0])) for q in pts[1:]]
        assert len(basis) - 1 == (linalg.rank(diffs) if diffs else 0)
    assert _affine_basis(()) == ()


def test_line_misses_span_cases():
    p_min, p_max = (0, 0, 0), (0, 0, 4)  # the line is the z-axis
    # skew: the x-direction line at height 1 and y = 1 never meets the z-axis
    assert _line_misses_span(p_min, p_max, ((0, 1, 1), (1, 1, 1)))
    # parallel: a line at (1, 0) in the z-direction
    assert _line_misses_span(p_min, p_max, ((1, 0, 1), (1, 0, 2)))
    # through the span: the x-direction line at height 1 crosses the axis at (0, 0, 1)
    assert not _line_misses_span(p_min, p_max, ((2, 0, 1), (3, 0, 1)))
    # a plane containing the axis, and one crossing it
    assert not _line_misses_span(p_min, p_max, ((1, 0, 0), (1, 0, 1), (2, 0, 3)))
    assert not _line_misses_span(p_min, p_max, ((1, 0, 2), (0, 1, 2), (1, 1, 2)))
    # one-point basis: on the line or off it
    assert not _line_misses_span(p_min, p_max, ((0, 0, 7),))
    assert _line_misses_span(p_min, p_max, ((0, 1, 2),))
    # empty basis: nothing to meet
    assert _line_misses_span(p_min, p_max, ())
    # a tilted segment in the plane: it meets the point (2, 3) but misses (3, 3)
    assert not _line_misses_span((0, 0), (4, 6), ((2, 3),))
    assert _line_misses_span((0, 0), (4, 6), ((3, 3),))


def test_corollary_rejects_lower_dimensional():
    seg = LatticePolytope([(0, 0), (3, 0)])
    with pytest.raises(InputError):
        corollary_check(seg, Direction((1, 0)))


def test_report_json_shape():
    rep = corollary_check(PAPER_TRIANGLE, Direction((1, 0)))
    blob = rep.to_json()
    assert blob["lw"] == 5
    assert blob["witness"]["degree"] == 5
    assert blob["cond1_extreme_vertices_unique"] is True


def test_pseudonef_bounds():
    # the pseudonef bound of a polytope is its lattice width
    assert lattice_width(normal_form("I", 2, 3)).width == 1
    cube = LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert lattice_width(cube).width == 1
    assert lattice_width(DELTA_PRIME).width == 572


def test_nef_check_worked_example():
    rep = nef_check([22, 26], 15015, 572,
                    linalg.integer_matrix([[1, -2, 0, 1], [0, 1, -2, 1]]))
    assert rep.bound == Fraction(105, 4)
    assert rep.saturation_ok and rep.nef


def test_nef_check_degree_too_big():
    rep = nef_check([30], 100, 4, linalg.integer_matrix([[1, -1]]))
    assert rep.bound == 25 and not rep.nef


def test_nef_check_unsaturated_generators():
    rep = nef_check([3], 100, 4, linalg.integer_matrix([[2, 0], [0, 2]]))
    assert not rep.saturation_ok and not rep.nef


def test_nef_check_tolerates_dependent_rows():
    # three generators spanning a rank-2 lattice (the three-binomial shape)
    rows = [[1, -2, 0, 1], [0, 1, -2, 1], [1, -1, -2, 2]]
    rep = nef_check([22, 26, 30], 15015, 572, linalg.integer_matrix(rows))
    assert rep.saturation_ok


def test_nef_check_validates_input():
    with pytest.raises(InputError):
        nef_check([5], 10, 0, linalg.integer_matrix([[1, 0]]))
    with pytest.raises(InputError):
        nef_check([], 10, 2, linalg.integer_matrix([[1, 0]]))


def test_screen_module_is_not_shadowed():
    import latticejets
    import latticejets.screen as s

    assert isinstance(s, types.ModuleType)
    assert latticejets.screen is s
    assert s.corollary_check is corollary_check


def test_witness_rejects_a_point_of_the_wrong_dimension():
    witness = corollary_check(DELTA_PRIME, Direction((1, 0, 0))).witness
    assert witness.is_zero_at((0, 0, 0))
    for point in ((1, 0), (1, 0, 0, 5)):
        with pytest.raises(InputError, match="point dimension mismatch"):
            witness.is_zero_at(point)


@pytest.mark.parametrize("coords", [(1, 0), (1, 0, 0, 0)])
def test_direction_dimension_mismatch_is_an_input_error(coords):
    v = Direction(coords)
    for call in (lambda: width_in_direction(DELTA_PRIME, v),
                 lambda: slice_points(DELTA_PRIME, v, 1),
                 lambda: corollary_check(DELTA_PRIME, v)):
        with pytest.raises(InputError, match="direction dimension mismatch"):
            call()


@pytest.fixture(scope="module")
def table_reports():
    from latticejets.wps import reproduce_table

    return [result.report for result in reproduce_table()]


def test_integer_vanishing_test_matches_the_paraboloid(table_reports):
    rng = random.Random(31)
    checked = misses = 0
    for report in table_reports:
        cor = report.corollary
        wit = cor.witness
        m, lo, hi = wit.degree, wit.min_level, wit.max_level
        assert wit.f_denominator > 0 and gcd(wit.f_denominator, *wit.f_numerator) == 1
        s = wit.level_form
        paraboloid = s * s - wit.f.scale(m - 1) + wit.g  # s^2 - f(p_max) f - g(p_min) g
        assert paraboloid == wit.paraboloid
        on = list(cor.slice_config.points) + [cor.p_min, cor.p_max]
        for q in on:
            assert wit.is_zero_at(q) and paraboloid.evaluate(q) == 0
        # U has first row v, so <v, U^-1 y> = y_1: the columns of U^-1 past
        # the first keep the level
        inv = linalg.inverse_unimodular(linalg.complete_to_unimodular(wit.direction.coords))
        steps = linalg.transpose(inv)[1:]
        off = [tuple(x + sign * y for x, y in zip(q, step))
               for q in on for step in steps for sign in (1, -1)]
        off += [linalg.mat_vec(inv, (level,) + tuple(rng.randint(-50, 50) for _ in steps))
                for level in (lo, lo + 1, hi) for _ in range(3)]
        off += [tuple(rng.randint(-5000, 5000) for _ in inv) for _ in range(6)]
        for q in off:
            level = wit.direction.pair(q)
            expected = lo + 2 <= level <= hi - 1 or paraboloid.evaluate(q) == 0
            assert wit.is_zero_at(q) is expected, (report.weights, q)
            checked += 1
            misses += not expected
    assert misses > checked // 2, (misses, checked)


def test_worked_example_witness_forms():
    from latticejets.wps import screen

    wit = screen((7, 11, 13, 15)).corollary.witness
    assert (wit.f_numerator, wit.f_denominator) == ((3426, -571, -1142, 0), 286)
    blob = wit.to_json()
    assert blob["paraboloid"] == "x1^2 - 6853*x1 + 1142*x2 + 2284*x3"
    assert blob["f"] == "1713/143*x1 - 571/286*x2 - 571/143*x3"
    assert blob["g"] == "-1570/143*x1 + 571/286*x2 + 571/143*x3 - 1"


class _Forbidden(type):
    """A stand-in class that fails on any use other than ``isinstance``."""

    def __getattr__(cls, name):
        raise AssertionError(f"{cls.__name__}.{name} on the verdict path")

    def __call__(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__}(...) on the verdict path")


def test_verdict_path_builds_no_polynomial_and_no_fraction(monkeypatch, table_reports):
    cases = [(DELTA_PRIME, Direction((1, 0, 0)))]
    cases += [(r.projected, r.direction) for r in table_reports[::19]]
    assert len(cases) == 6
    monkeypatch.setattr(screen_module, "MultiPoly", _Forbidden("MultiPoly", (), {}))
    monkeypatch.setattr(screen_module, "Fraction", _Forbidden("Fraction", (), {}))
    monkeypatch.setattr(linalg, "Fraction", _Forbidden("Fraction", (), {}))
    for p, v in cases:
        rep = corollary_check(p, v)
        assert rep.all_conditions and rep.verified
