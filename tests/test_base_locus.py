"""Base-point decisions: feasibility vs evaluation, gcd locus, small widths."""

import random
from fractions import Fraction
from math import gcd

import pytest

from latticejets import jets, linalg, oracles
from latticejets.base_locus import (_gcd, _rational_roots, base_locus_k2, is_base_point,
                                    is_base_point_via_form)
from latticejets.errors import InputError, ToolkitError
from latticejets.jets import fundamental_form
from latticejets.polytope import (Direction, LatticePolytope, PointConfig, lattice_points,
                                  lattice_width)
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


def _sympy_locus(form):
    """Reference base locus: sympy's factorisation of the gcd of the basis."""
    import sympy

    w1, w2 = sympy.symbols("w1 w2")
    g = 0
    for row in form.basis:
        g = sympy.gcd(g, sum(sympy.Rational(c.numerator, c.denominator) * w1 ** e1 * w2 ** e2
                             for (e1, e2), c in zip(form.monomials, row)))
    points, irrational = [], []
    for factor, mult in sympy.factor_list(g, w1, w2)[1]:
        poly = sympy.Poly(factor, w1, w2)
        if poly.total_degree() > 1:
            irrational.extend([poly.total_degree()] * mult)
            continue
        c1, c2 = int(poly.coeff_monomial(w1)), int(poly.coeff_monomial(w2))
        root = Fraction(-c2, c1) if c1 else None  # c1 w1 + c2 w2 vanishes at w1/w2 = -c2/c1
        points.append(((1, 0) if root is None else (root.numerator, root.denominator), mult))
    return (int(sympy.Poly(g, w1, w2).total_degree()) if g.free_symbols else 0,
            tuple(sorted(points)), tuple(sorted(irrational)))


def _strip_config(rng):
    """A unimodular image of points in a strip of height <= 3, sometimes with
    the lattice points of a circle: planar inputs that often have base points."""
    height, n = rng.choice([1, 2, 3]), rng.randint(5, 12)
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(-4, 4), rng.randint(0, height)))
    if rng.random() < 0.3:
        r = rng.choice([5, 10, 13, 25])
        pts |= {(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == r}
    return PointConfig(2, tuple(sorted(pts))).apply(random_unimodular(rng, 2), (0, 0))


def test_routes_agree_on_randoms():
    rng = random.Random(99)
    checked = 0
    loci = {"nonempty": 0, "irrational": 0, "multiple": 0, "denominator": 0, "infinity": 0}
    for i in range(240):
        if i < 120:
            k = rng.choice([2, 3])
            s = random_config(rng, k, rng.randint(5, 10))
        else:
            k, s = 2, _strip_config(rng)
        m = rng.choice([2, 3, 4])
        directions = [random_primitive_direction(rng, k)]
        form = fundamental_form(s, m)
        if k == 2 and form.dim:
            locus = base_locus_k2(s, m)
            got = (locus.gcd_degree, locus.rational_points, locus.irrational_factor_degrees)
            assert got == _sympy_locus(form)
            # every rational point of the locus is a base direction
            directions += [Direction(pt) for pt, _ in locus.rational_points]
            loci["nonempty"] += locus.gcd_degree > 0
            loci["irrational"] += bool(locus.irrational_factor_degrees)
            loci["multiple"] += any(mult > 1 for _, mult in locus.rational_points)
            loci["denominator"] += any(pt[1] > 1 for pt, _ in locus.rational_points)
            loci["infinity"] += any(pt == (1, 0) for pt, _ in locus.rational_points)
        for v in directions:
            feasible, witness = is_base_point(s, m, v)
            assert feasible == is_base_point_via_form(s, m, v)
            assert feasible or v is directions[0]
            if witness is not None:
                assert witness.vanishes_on(s)
        checked += 1
    assert checked == 240
    assert loci["nonempty"] >= 30 and min(loci.values()) >= 3


def test_base_locus_k2_reads_any_spanning_set(monkeypatch):
    # the locus depends only on the span of the form rows: feed it the echelon
    # rows reversed and with random multiples of the earlier ones added
    from latticejets import base_locus

    rng = random.Random(98)
    form_rows = jets._form_rows
    cases = []
    for _ in range(60):
        s, m = _strip_config(rng), rng.choice([2, 3, 4])
        if fundamental_form(s, m).dim >= 2:
            cases.append((s, m, base_locus_k2(s, m)))

    def mixed(s, m):
        mons, rows = form_rows(s, m)
        out = []
        for row in reversed(rows):
            c = rng.randint(-3, 3)
            out.append(tuple(x + c * y for x, y in zip(row, out[-1])) if out else row)
        return mons, out

    monkeypatch.setattr(base_locus, "_form_rows", mixed)
    for s, m, locus in cases:
        assert base_locus_k2(s, m) == locus
    assert len(cases) >= 20


def _random_factor(rng, degree):
    while True:
        coeffs = [rng.randint(-6, 6) for _ in range(degree + 1)]
        if coeffs[0] and coeffs[-1]:
            return coeffs


def _z_poly(expr, t):
    """Ascending integer coefficients of a primitive sympy polynomial."""
    import sympy

    return [int(c) for c in reversed(sympy.Poly(expr, t).all_coeffs())]


def test_z_gcd_matches_sympy():
    import sympy

    t = sympy.Symbol("t")
    rng = random.Random(12)
    nontrivial = 0
    for _ in range(150):
        common = sympy.Poly(_random_factor(rng, rng.randint(0, 3)), t)
        a = common * sympy.Poly(_random_factor(rng, rng.randint(0, 4)), t)
        b = common * sympy.Poly(_random_factor(rng, rng.randint(0, 4)), t)
        a, b = a * rng.randint(1, 5), b * rng.randint(-5, -1)
        got = sympy.Poly(list(reversed(_gcd(_z_poly(a, t), _z_poly(b, t)))), t)
        want = sympy.gcd(a, b)
        assert got.monic() == want.monic()
        nontrivial += want.degree() > 0
    assert nontrivial >= 100


def test_rational_roots_match_sympy_factor_list():
    import sympy

    t = sympy.Symbol("t")
    rng = random.Random(13)
    for _ in range(150):
        g = sympy.Poly(rng.randint(1, 4), t)
        for _ in range(rng.randint(0, 4)):
            p, q = rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4)
            g *= sympy.Poly([q, -p], t) ** rng.randint(1, 2)
        for _ in range(rng.randint(0, 2)):
            g *= sympy.Poly(_random_factor(rng, rng.randint(2, 3)), t)
        g = g.primitive()[1]
        if g.LC() < 0:
            g = -g
        rest, roots = _rational_roots(_z_poly(g.as_expr(), t))
        want_roots, want_rest = [], sympy.Poly(1, t)
        for factor, mult in sympy.factor_list(g)[1]:
            if factor.degree() == 1:
                a1, a0 = factor.all_coeffs()
                root = Fraction(int(-a0), int(a1))
                want_roots.append(((root.numerator, root.denominator), mult))
            else:
                want_rest *= factor ** mult
        assert roots == sorted(want_roots)
        assert sympy.Poly(list(reversed(rest)), t).monic() == want_rest.monic()


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


def test_both_routes_reject_a_direction_of_the_wrong_dimension(type_ii_points):
    for route in (is_base_point, is_base_point_via_form):
        for coords in ((0, 1, 0), (1,)):
            with pytest.raises(InputError, match="direction dimension mismatch"):
                route(type_ii_points, 2, Direction(coords))


@pytest.mark.parametrize("p, m", [
    (normal_form("I", 2, 3), 3), (normal_form("II", 5, None), 3),
    (normal_form("III", 3, 1), 3), (normal_form("IV", 2, 1), 3),
    (normal_form("I", 2, 3), 2),
    (LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]), 2),
], ids=["I-2-3", "II-5", "III-3-1", "IV-2-1", "I-2-3-m2", "cube-m2"])
def test_lw_at_most_m_minus_1_gives_a_base_point(p, m):
    # lw(P) <= m - 1: the lw + 1 stacked hyperplanes v.x = c, times (v.x)^(m-lw-1),
    # vanish on every lattice point, so the width direction is a base point
    res = lattice_width(p)
    assert res.certified and res.width <= m - 1
    s = lattice_points(p)
    flag, witness = is_base_point(s, m, res.direction)
    assert flag is True and witness.vanishes_on(s)
    assert is_base_point_via_form(s, m, res.direction) is True
