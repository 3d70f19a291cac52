"""Base-point decisions: feasibility vs evaluation, gcd locus, width witnesses."""

import random
from math import gcd

import pytest

from latticejets import jets, linalg, oracles
from latticejets.base_locus import (base_locus_k2, is_base_point,
                                    is_base_point_via_form, width_base_point)
from latticejets.errors import InputError, ToolkitError
from latticejets.jets import fundamental_form
from latticejets.polytope import Direction, LatticePolytope, lattice_points
from latticejets.surface2 import normal_form
from tests.conftest import (random_config, random_primitive_direction,
                            random_unimodular)


def test_type_ii_parabola_witness(type_ii_points):
    flag, witness = is_base_point(type_ii_points, 2, Direction((0, 1)))
    assert flag
    assert witness.text() == "x2^2 - x2"
    assert witness.vanishes_on(type_ii_points)


def test_feasibility_route_reads_no_jet_echelon(monkeypatch, type_ii_points):
    # the two base-point routes stay independent: only the evaluation route
    # (fundamental_form) reads the memoised jet echelon
    def shared(s, m):
        raise AssertionError("the feasibility route read the jet echelon")

    monkeypatch.setattr(jets, "_echelon", shared)
    assert is_base_point(type_ii_points, 2, Direction((0, 1)))[0] is True
    assert is_base_point(type_ii_points, 2, Direction((1, 0)))[0] is False
    assert type_ii_points._jet_echelon is None


def test_type_ii_other_direction_fails(type_ii_points):
    flag, witness = is_base_point(type_ii_points, 2, Direction((1, 0)))
    assert not flag and witness is None
    assert is_base_point_via_form(type_ii_points, 2, Direction((1, 0))) is False


def test_rem_base_no_base_point_small_directions(rem_base_points):
    for a in range(-5, 6):
        for b in range(-5, 6):
            if (a, b) == (0, 0) or gcd(a, b) != 1:
                continue
            v = Direction((a, b))
            assert is_base_point(rem_base_points, 4, v)[0] is False
            assert is_base_point_via_form(rem_base_points, 4, v) is False


def test_type_iii_has_no_degree2_base_point():
    pts = lattice_points(normal_form("III", 2, 2))
    for v in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1)):
        assert is_base_point(pts, 2, Direction(v))[0] is False


def test_routes_agree_on_randoms():
    rng = random.Random(99)
    checked = 0
    for _ in range(120):
        k = rng.choice([2, 3])
        s = random_config(rng, k, rng.randint(5, 10))
        m = rng.choice([2, 3, 4])
        v = random_primitive_direction(rng, k)
        form = fundamental_form(s, m)
        feasible, witness = is_base_point(s, m, v)
        via_form = is_base_point_via_form(s, m, v, form=form)
        assert feasible == via_form
        if witness is not None:
            assert witness.vanishes_on(s)
        checked += 1
    assert checked == 120


def test_equivariance():
    rng = random.Random(55)
    for _ in range(20):
        s = random_config(rng, 2, rng.randint(5, 8))
        v = random_primitive_direction(rng, 2)
        u = random_unimodular(rng, 2)
        t = (rng.randint(-4, 4), rng.randint(-4, 4))
        moved = s.apply(u, t)
        u_inv_t = linalg.transpose(linalg.inverse_unimodular(u))
        v_moved = Direction(tuple(linalg.mat_vec(u_inv_t, v.coords)))
        m = rng.choice([2, 3])
        assert is_base_point(s, m, v)[0] == is_base_point(moved, m, v_moved)[0]


def test_small_width_direction_is_base_point():
    # lw_v <= m-1 forces a base point via the stacked-hyperplane witness
    rng = random.Random(66)
    from tests.conftest import random_full_dim_polytope

    for _ in range(15):
        p = random_full_dim_polytope(rng, 2, coord_bound=3)
        pts = lattice_points(p)
        from latticejets.polytope import lattice_width

        res = lattice_width(p)
        m = res.width + 1
        if m < 2 or len(pts) < 2:
            continue
        assert is_base_point(pts, m, res.direction)[0] is True


def test_base_locus_rem_base_empty(rem_base_points):
    locus = base_locus_k2(rem_base_points, 4)
    assert locus.is_empty
    assert locus.gcd_degree == 0
    assert locus.rational_points == ()


def test_base_locus_type_i():
    pts = lattice_points(normal_form("I", 2, 3))
    locus = base_locus_k2(pts, 2)
    assert not locus.is_empty
    assert locus.rational_points == (((0, 1), 1),)  # the direction (0,1)


def test_base_locus_type_ii(type_ii_points):
    locus = base_locus_k2(type_ii_points, 2)
    assert not locus.is_empty
    assert len(locus.rational_points) == 1


def test_base_locus_gcd_matches_sympy_oracle():
    rng = random.Random(44)
    from latticejets.errors import ToolkitError as TE

    checked = 0
    for _ in range(25):
        s = random_config(rng, 2, rng.randint(5, 9))
        m = rng.choice([2, 3])
        try:
            locus = base_locus_k2(s, m)
        except TE:
            continue
        form = fundamental_form(s, m)
        assert locus.gcd_degree == oracles.binary_form_gcd_degree(form.polynomials())
        checked += 1
    assert checked >= 15


def test_base_locus_empty_form_raises():
    # two points only: the degree-2 system is empty
    from latticejets.polytope import PointConfig

    s = PointConfig(2, ((0, 0), (1, 0)))
    with pytest.raises(ToolkitError, match="form empty"):
        base_locus_k2(s, 2)


def test_both_routes_reject_the_empty_configuration():
    from latticejets.polytope import PointConfig

    empty, v = PointConfig(2, ()), Direction((0, 1))
    for route in (is_base_point, is_base_point_via_form):
        with pytest.raises(InputError, match="empty point configuration"):
            route(empty, 2, v)


def test_width_base_point_type_i():
    v, witness = width_base_point(normal_form("I", 2, 3), 2)
    assert v.coords == (0, 1)
    assert witness.text() == "x2^2 - x2"


def test_width_base_point_type_ii_m3():
    v, witness = width_base_point(normal_form("II", 5, None), 3)
    assert witness.text() == "x2^3 - x2^2"
    assert witness.vanishes_on(lattice_points(normal_form("II", 5, None)))


def test_width_base_point_cube():
    cube = LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    v, witness = width_base_point(cube, 2)
    assert sorted(abs(x) for x in v.coords) == [0, 0, 1]
    assert witness.vanishes_on(lattice_points(cube))


def test_width_base_point_hypothesis_failure():
    tri = LatticePolytope([(0, 0), (2, 0), (0, 2)])  # width 2
    with pytest.raises(ToolkitError, match="hypothesis fails"):
        width_base_point(tri, 2)
