"""Lattice polytopes: enumeration, widths, slices, transforms."""

import hashlib
import json
import random
import re
from itertools import product
from math import gcd

import pytest

from latticejets import jets, linalg, oracles, polytope
from latticejets.errors import BudgetExceededError, InputError, InvariantError, ToolkitError
from latticejets.polytope import (Direction, LatticePolytope, PointConfig,
                                  config_from_json, direction_key, lattice_points,
                                  lattice_width, point_key, slice_points,
                                  unimodular_image, width_in_direction)
from tests.conftest import (assert_value_semantics, invariant_factors_reference,
                            random_full_dim_polytope, random_unimodular)

DELTA_PRIME = LatticePolytope([(0, 0, 0), (572, 286, 143),
                               (390, 195, -585), (495, -330, -165)])
# width 1, and a facet normal of width 1 is not the least direction
WIDTH_ONE_TETRAHEDRON = [(0, 0, -2), (1, -3, 1), (2, -3, 3), (2, 1, 2)]


def _bounding_box(p):
    """(min, max) of each coordinate over the vertices of p."""
    return [(min(col), max(col)) for col in zip(*p.vertices)]


def test_direction_validation():
    with pytest.raises(InputError, match=r"^direction must be nonzero$"):
        Direction((0, 0))
    with pytest.raises(InputError, match=r"^direction \(2, 4\) is not primitive$"):
        Direction((2, 4))
    with pytest.raises(InputError, match=r"^\(1\.0, 0\) is not a vector of integers$"):
        Direction((1.0, 0))
    assert Direction((2, 3)).pair((1, 1)) == 5


@pytest.mark.parametrize("cls, fields, text", [
    (Direction, {"coords": (1, 0, 0)}, "Direction(coords=(1, 0, 0))"),
    (PointConfig, {"dim": 2, "points": ((0, 0), (1, 0))},
     "PointConfig(dim=2, points=((0, 0), (1, 0)))"),
], ids=["Direction", "PointConfig"])
def test_value_types_keep_their_frozen_semantics(cls, fields, text):
    assert_value_semantics(cls, fields, text)


def test_jet_memo_stays_out_of_point_config_identity():
    cfg = PointConfig(2, ((0, 0), (1, 0), (0, 1), (2, 1)))
    jets.build_jets(cfg, 2)  # memoises the jet echelon on cfg
    assert cfg._jet_echelon is not None
    fresh = PointConfig(2, cfg.points)
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)


def test_point_config_rejects_duplicates():
    with pytest.raises(InputError, match=r"^duplicate points in configuration$"):
        PointConfig(2, ((0, 0), (0, 0)))


@pytest.mark.parametrize("points", [
    ((0, 0), (True, 1)),   # a bool is no integer, though index() reads it as 1
    ((0, 0), (0.0, 1)),
    ((0, 0), (1.5, 1)),
    ((0, 0), (0, 0)),
    ((0, 0), (1,)),
])
def test_public_point_config_keeps_every_check(points):
    with pytest.raises(InputError):
        PointConfig(2, points)
    with pytest.raises(InputError):
        config_from_json({"dim": 2, "points": [list(q) for q in points]})


@pytest.mark.parametrize("dim", [0, -1, 1.0, "x", True])
def test_dimension_below_one_is_an_input_error(dim):
    message = f"^dimension must be an integer >= 1, got {re.escape(repr(dim))}$"
    with pytest.raises(InputError, match=message):
        PointConfig(dim, ((),) if dim == 0 else ())
    with pytest.raises(InputError, match="dimension"):
        LatticePolytope([()] if dim == 0 else [(0,)], dim=dim)


def test_enumerated_configs_equal_the_checked_construction():
    # lattice_points and slice_points skip the per-point checks; their
    # configurations must still be what the public constructor builds
    rng = random.Random(44)
    for _ in range(12):
        p = random_full_dim_polytope(rng, rng.choice((2, 3)), coord_bound=4)
        v = Direction((1,) + (2,) * (p.dim - 1))
        level = v.pair(p.vertices[0])
        for cfg in (lattice_points(p), slice_points(p, v, level), slice_points(p, v, -99)):
            checked = PointConfig(p.dim, cfg.points)
            assert cfg == checked and hash(cfg) == hash(checked)
            assert repr(cfg) == repr(checked)
            assert all(type(x) is int for q in cfg for x in q)


def test_trusted_simplex_equals_the_checked_hull():
    # a random full-dimensional simplex, built unchecked with its closed-form
    # facets, must be what the public constructor and its facet search build
    rng = random.Random(53)
    built = 0
    while built < 60:
        k = rng.choice((2, 3, 3))
        verts = {tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(k + 1)}
        if len(verts) != k + 1:
            continue
        verts = tuple(sorted(verts, key=point_key))
        diffs = [tuple(a - b for a, b in zip(v, verts[0])) for v in verts[1:]]
        if linalg.rank(diffs) < k:
            with pytest.raises(InputError, match="full-dimensional simplex"):
                polytope._simplex_facets(verts)
            continue
        trusted = LatticePolytope._trusted(k, verts, polytope._simplex_facets(verts))
        checked = LatticePolytope(rng.sample(verts, k + 1), k)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert trusted.vertices == checked.vertices
        assert trusted.affine_dim == checked.affine_dim == k
        assert trusted.facets() == checked.facets() == polytope._facets_of(verts, k)
        assert lattice_points(trusted) == lattice_points(checked)
        built += 1
    for verts in (((0, 0), (1, 1), (2, 2)), ((0, 0), (1, 0), (0, 1), (1, 1))):
        with pytest.raises(InputError, match="full-dimensional simplex"):
            polytope._simplex_facets(verts)


def test_differences_generate_flag():
    assert PointConfig(2, ((0, 0), (1, 0), (0, 1))).differences_generate is True
    # differences span an index-2 sublattice
    assert PointConfig(2, ((0, 0), (2, 0), (0, 1))).differences_generate is False
    # differences do not even have full rank
    assert PointConfig(2, ((0, 0), (1, 0), (2, 0))).differences_generate is False


def _hull_corpus():
    """470 seeded point sets in Z^1 .. Z^4, about half of them spanning less
    (two points, or points of Z^r mapped into Z^k by an integer matrix and a
    shift)."""
    rng = random.Random(67)
    for k, count, most, bound in ((1, 60, 5, 9), (2, 200, 10, 6), (3, 150, 9, 4), (4, 60, 9, 3)):
        for _ in range(count):
            roll = rng.random()
            r = 0 if roll < 0.05 else rng.randint(1, k - 1) if roll < 0.4 and k > 1 else k
            n = rng.randint(2, most)
            if r == k:
                pts = [tuple(rng.randint(-bound, bound) for _ in range(k)) for _ in range(n)]
            else:
                a = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(k)]
                t = [rng.randint(-3, 3) for _ in range(k)]
                pts = []
                for _ in range(n):
                    c = [rng.randint(-bound, bound) for _ in range(r)]
                    pts.append(tuple(ti + sum(x * y for x, y in zip(row, c))
                                     for row, ti in zip(a, t)))
            yield k, pts


def test_hull_matches_the_pinned_corpus():
    # vertices, dimension and facets, digest read when the constructor found
    # the vertices and facets() searched the facets again on its own
    h = hashlib.sha256()
    for k, pts in _hull_corpus():
        p = LatticePolytope(pts, k)
        facets = [[list(n), b] for n, b in p.facets()] if p.is_full_dim else None
        h.update(json.dumps([[list(v) for v in p.vertices], p.affine_dim, facets]).encode())
    assert h.hexdigest() == "04ad276cda7117925c4b6458733854526851e7f4ba3d7335eb463a12e1cae958"


def test_differences_generate_matches_the_invariant_factors():
    seen = set()
    for k, pts in _hull_corpus():
        cfg = PointConfig(k, tuple(dict.fromkeys(pts)))
        diffs = [tuple(a - b for a, b in zip(q, cfg.points[0])) for q in cfg.points[1:]]
        expected = bool(diffs) and invariant_factors_reference(diffs) == (1,) * k
        assert cfg.differences_generate is expected
        seen.add((expected, bool(diffs) and linalg.rank(diffs) == k))
    # index one, a proper sublattice of full rank, and too small a rank all occur
    assert seen == {(True, True), (False, True), (False, False)}


def _counting(monkeypatch, names, module=polytope):
    calls = dict.fromkeys(names, 0)

    def wrap(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in names:
        monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("points, chains, searches", [
    ([(0, 0), (7, 2), (3, 9), (-4, 5), (1, 1)], 1, 0),
    ([(0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 4)], 0, 0),
    ([(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 3)], 0, 0),
    ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 3), (1, 1, 1)], 0, 1),
], ids=["polygon", "3-simplex", "4-simplex", "3-pyramid"])
def test_hull_builds_each_facet_description_once(monkeypatch, points, chains, searches):
    # one monotone chain per polygon, the closed form for a simplex, and one
    # facet search for any other polytope; facets() and the enumerations reuse them
    calls = _counting(monkeypatch, ("polygon_ccw_vertices", "_facets_of"))
    p = LatticePolytope(points)
    p.facets()
    lattice_points(p)
    lattice_width(p)
    assert calls == {"polygon_ccw_vertices": chains, "_facets_of": searches}


def test_affine_coordinates_read_a_unimodular_transform():
    # coords(p) = T (p - p_0); T with the zero-left rows, the integral kernel
    # of the differences, is unimodular; r = len(T) is the rank of the differences
    for k, pts in _hull_corpus():
        pts = list(dict.fromkeys(pts))
        diffs = [tuple(a - b for a, b in zip(q, pts[0])) for q in pts]
        coords, t = polytope._affine_coordinates(pts)
        assert len(t) == linalg.rank(diffs)
        assert coords == [linalg.mat_vec(t, d) for d in diffs]
        assert linalg.bareiss_det(t + linalg.integral_kernel(diffs)) in (1, -1)


def test_quotient_widths_match_the_pinned_corpus():
    # (width, certified) of the 190 lower-dimensional corpus polytopes, digest
    # read when the lift went through a second Hermite form; the brute-force
    # oracle agrees on the width for k <= 3
    h = hashlib.sha256()
    count = checked = 0
    for k, pts in _hull_corpus():
        p = LatticePolytope(pts, k)
        if not 0 < p.affine_dim < k:
            continue
        res = lattice_width(p)
        h.update(json.dumps([res.width, res.certified]).encode())
        count += 1
        if k <= 3:
            assert oracles.brute_force_width(p, bound=8)[0] == res.width
            checked += 1
    assert (count, checked) == (190, 155)
    assert h.hexdigest() == "b3c06b0f20ec5f046c86e4ae07b4fc3f9a01521310128fc7ea08d7bf6ef3f6ca"


def _width_corpus():
    """300 seeded full-dimensional polytopes in Z^1 .. Z^4, simplices and others."""
    rng = random.Random(29)
    for k, count in ((1, 20), (2, 140), (3, 110), (4, 30)):
        for _ in range(count):
            yield random_full_dim_polytope(rng, k, coord_bound=rng.choice((3, 6, 12)),
                                           max_extra=rng.choice((1, 3, 6)))


def test_full_dimensional_widths_match_the_pinned_corpus():
    # (width, direction, certified) of the 300 corpus polytopes, digest read
    # when every width, one included, came from the slab search; the
    # brute-force oracle agrees on width and direction for k <= 3, in a box
    # that holds the reported direction
    h = hashlib.sha256()
    checked = 0
    for p in _width_corpus():
        res = lattice_width(p)
        h.update(json.dumps([res.width, list(res.direction.coords), res.certified]).encode())
        if p.dim <= 3:
            bound = max(8, *map(abs, res.direction.coords))
            assert oracles.brute_force_width(p, bound) == (res.width, res.direction)
            checked += 1
    assert checked == 270
    assert h.hexdigest() == "a4da2ad995701cfd6a2c2781f290db9d99cd1e8797cb290f0e85e433abc2d186"


def test_quotient_width_reads_one_hermite_form(monkeypatch):
    # a coplanar parallelogram with its centre: one Hermite form for the hull,
    # one for the quotient width and its lift, and no other lattice step
    calls = _counting(monkeypatch, ("hermite_normal_form", "integral_kernel",
                                    "lattice_coordinates", "scaled_inverse"), linalg)
    p = LatticePolytope([(0, 0, 0), (1, 2, 3), (2, 1, 0), (3, 3, 3), (1, 1, 1)])
    assert lattice_width(p) == (2, Direction((0, 1, -1)), True)
    assert calls == {"hermite_normal_form": 2, "integral_kernel": 0,
                     "lattice_coordinates": 0, "scaled_inverse": 0}


def test_quotient_width_lifts_a_primitive_normalized_direction():
    # the lift v of the quotient direction u: <v, x - x_0> = +-<u, coords(x)>
    # on every vertex (u and -u have one width, and v is sign-normalized), v
    # primitive, and the width is read on v
    lifted = 0
    for k, pts in _hull_corpus():
        p = LatticePolytope(pts, k)
        if not 0 < p.affine_dim < k:
            continue
        res = lattice_width(p)
        coords, _ = polytope._affine_coordinates(p.vertices)
        inner = lattice_width(LatticePolytope(coords, p.affine_dim))
        v, u = res.direction.coords, inner.direction.coords
        assert res.certified and res.width == inner.width == width_in_direction(p, res.direction)
        assert gcd(*v) == 1 and polytope.sign_normalized(v) == v
        base = p.vertices[0]
        lifted_values = [res.direction.pair(x) - res.direction.pair(base) for x in p.vertices]
        inner_values = [inner.direction.pair(c) for c in coords]
        assert lifted_values in (inner_values, [-x for x in inner_values])
        lifted += 1
    assert lifted >= 150
    # the segment of the CI step
    assert lattice_width(LatticePolytope([(1, -2), (-3, 3)])) == (1, Direction((1, 1)), True)


def test_lattice_points_unit_square():
    p = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(lattice_points(p)) == 4


def test_lattice_points_rem_base(rem_base_polygon):
    pts = lattice_points(rem_base_polygon)
    assert len(pts) == 11
    assert set(pts.points) == {(0, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                               (2, 3), (3, 1), (3, 2), (3, 3), (4, 4)}


def test_lattice_points_type_ii_triangle():
    pts = lattice_points(LatticePolytope([(0, 0), (5, 0), (0, 1)]))
    assert len(pts) == 7


def test_lattice_points_graded_lex_order():
    pts = lattice_points(LatticePolytope([(0, 0), (2, 0), (0, 2)]))
    assert list(pts.points) == sorted(pts.points, key=point_key)
    # the enumerators sort by sum only and rely on the kernel's lex order
    rng = random.Random(47)
    for _ in range(60):
        p = random_full_dim_polytope(rng, rng.choice([1, 2, 3]), coord_bound=4)
        pts = lattice_points(p).points
        assert list(pts) == sorted(set(pts), key=point_key)
        v = Direction(tuple(rng.randint(-2, 2) for _ in range(p.dim - 1)) + (1,))
        levels = [v.pair(x) for x in p.vertices]
        for level in range(min(levels), max(levels) + 1):
            cut = slice_points(p, v, level).points
            assert list(cut) == sorted(set(cut), key=point_key)
            assert cut == tuple(x for x in pts if v.pair(x) == level)


def test_lattice_points_matches_box_scan_on_randoms():
    rng = random.Random(23)
    for _ in range(60):
        p = random_full_dim_polytope(rng, rng.choice([1, 2, 3]))
        facets = p.facets()
        box = _bounding_box(p)
        expected = sorted(
            (c for c in product(*[range(lo, hi + 1) for lo, hi in box])
             if all(sum(a * b for a, b in zip(f.normal, c)) >= f.offset
                    for f in facets)),
            key=point_key)
        assert list(lattice_points(p).points) == expected


def test_lattice_points_budget_guard():
    with pytest.raises(BudgetExceededError):
        lattice_points(DELTA_PRIME, budget=5000)


def test_vertices_are_extreme_points_only():
    p = LatticePolytope([(0, 0), (2, 0), (1, 0), (0, 2), (1, 1)])
    assert p.vertices == ((0, 0), (0, 2), (2, 0))
    # one point past a simplex: the extra point is not a vertex
    assert LatticePolytope([(0, 0), (2, 0), (1, 0), (0, 2)]).vertices == ((0, 0), (0, 2), (2, 0))
    assert LatticePolytope([(0, 0, 1), (1, 1, 1), (2, 2, 1)]).vertices == ((0, 0, 1), (2, 2, 1))


def test_planar_hull_matches_the_facet_search():
    """The monotone chain agrees with the k-subset facet search and the active-rank test."""
    rng = random.Random(41)
    for trial in range(80):
        shape = trial % 4
        if shape == 0:  # scattered points, sometimes collinear by chance
            pts = {(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(2, 12))}
        elif shape == 1:  # every lattice point of a polygon, boundary points included
            pts = set(lattice_points(random_full_dim_polytope(rng, 2, coord_bound=3)).points)
        elif shape == 2:  # collinear
            d = (rng.randint(-3, 3), rng.randint(1, 3))
            x, y = rng.randint(-5, 5), rng.randint(-5, 5)
            steps = rng.sample(range(-4, 5), rng.randint(2, 5))
            pts = {(x + s * d[0], y + s * d[1]) for s in steps}
        else:
            pts = {(rng.randint(-5, 5), rng.randint(-5, 5))}
        pts = sorted(pts, key=point_key)
        p = LatticePolytope(pts)
        diffs = [(q[0] - pts[0][0], q[1] - pts[0][1]) for q in pts[1:]]
        assert p.affine_dim == (linalg.rank(diffs) if diffs else 0)
        if p.affine_dim < 2:
            # the two ends of a segment, or the point itself
            assert p.vertices == tuple(sorted({min(pts), max(pts)}, key=point_key))
            with pytest.raises(ToolkitError):
                p.facets()
            continue
        facets = polytope._facets_of(pts, 2)
        assert p.facets() == facets
        extreme = []
        for q in pts:
            active = [f.normal for f in facets
                      if sum(a * b for a, b in zip(f.normal, q)) == f.offset]
            if active and linalg.rank(active) == 2:
                extreme.append(q)
        assert p.vertices == tuple(extreme)


def test_width_in_direction_examples():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert width_in_direction(square, Direction((1, 0))) == 1
    assert width_in_direction(DELTA_PRIME, Direction((1, 0, 0))) == 572


def test_width_negation_symmetry():
    rng = random.Random(31)
    for _ in range(20):
        p = random_full_dim_polytope(rng, rng.choice([2, 3]))
        v = Direction(tuple([1] + [rng.randint(-3, 3) for _ in range(p.dim - 1)]))
        minus_v = Direction(tuple(-x for x in v.coords))
        assert width_in_direction(p, v) == width_in_direction(p, minus_v)


def test_lattice_width_type_i_polygon():
    res = lattice_width(LatticePolytope([(0, 0), (0, 1), (2, 1), (3, 0)]))
    assert res.width == 1
    assert res.direction.coords == (0, 1)
    assert res.certified


def test_lattice_width_unit_cube():
    cube = LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert lattice_width(cube).width == 1


def test_lattice_width_point():
    res = lattice_width(LatticePolytope([(3, 4)]))
    assert res == (0, None, True)


def test_lattice_width_dilation_scaling():
    rng = random.Random(17)
    for _ in range(12):
        p = random_full_dim_polytope(rng, 2, coord_bound=4)
        base = lattice_width(p)
        assert base.certified
        for r in (2, 3):
            scaled = lattice_width(p.dilate(r))
            assert scaled.width == r * base.width


def test_lattice_width_matches_brute_force():
    rng = random.Random(77)
    for _ in range(25):
        p = random_full_dim_polytope(rng, rng.choice([2, 3]))
        res = lattice_width(p)
        assert res.certified
        scan_width, _ = oracles.brute_force_width(p, bound=10)
        assert res.width == scan_width


def test_lattice_width_budget_falls_back_uncertified():
    # the dual parallelepiped is enumerated in 16 fibers and points
    assert lattice_width(DELTA_PRIME) == (572, Direction((1, 0, 0)), True)
    res = lattice_width(DELTA_PRIME, budget=10)
    assert res.width == 572
    assert res.certified is False


def test_lattice_width_one_takes_the_least_direction():
    # (3, 0, 2) also gives width 1; stopping at the first width-1 point found
    # is exact only when candidates come in direction_key order
    p = LatticePolytope([(1, -2, -1), (0, -2, 1), (2, 0, -2), (-1, 0, 2)])
    assert width_in_direction(p, Direction((3, 0, 2))) == 1
    assert lattice_width(p) == (1, Direction((1, 0, 1)), True)
    assert oracles.brute_force_width(p, bound=10) == (1, Direction((1, 0, 1)))


def test_lattice_width_one_is_searched_like_any_other_width():
    # the best seed (6, -1, -3) already has width 1, but only the slab search
    # finds the least direction (2, 0, -1); below its budget the seed comes
    # back uncertified
    p = LatticePolytope(WIDTH_ONE_TETRAHEDRON)
    assert width_in_direction(p, Direction((6, -1, -3))) == 1
    assert lattice_width(p) == (1, Direction((2, 0, -1)), True)
    assert oracles.brute_force_width(p, bound=6) == (1, Direction((2, 0, -1)))
    assert lattice_width(p, budget=131) == (1, Direction((6, -1, -3)), False)


def test_lattice_width_quotient_for_lower_dimensional():
    # segment from (0,0) to (2,4) has quotient width 2 (primitive step (1,2))
    seg = LatticePolytope([(0, 0), (2, 4)])
    res = lattice_width(seg)
    assert res.width == 2
    assert res.certified
    assert res.direction.pair((2, 4)) - res.direction.pair((0, 0)) in (2, -2)


def _dropped_row(hermite_normal_form):
    return lambda m: hermite_normal_form(m)[:-1]


def _zero_left_row_first(hermite_normal_form):
    return lambda m: hermite_normal_form(m)[::-1]


def _one_slab(enumerate_system):
    # the first slab pair only: |<v, w - x0>| <= W0 for one vertex w
    return lambda rows, k, out, counter: enumerate_system(
        rows[:1] + rows[len(rows) // 2:len(rows) // 2 + 1], k, out, counter)


@pytest.mark.parametrize("module, name, fault, vertices, message", [
    (polytope, "_enumerate_system", _one_slab, [(0, 0), (3, 0), (0, 3)],
     "vertex differences do not span Z\\^2"),
    (linalg, "hermite_normal_form", _dropped_row, [(0, 0, 0), (3, 0, 0), (0, 3, 0)],
     "is not U \\[D\\^T \\| I\\] in echelon shape"),
    (linalg, "hermite_normal_form", _zero_left_row_first, [(0, 0, 0), (3, 0, 0), (0, 3, 0)],
     "is not U \\[D\\^T \\| I\\] in echelon shape"),
], ids=["unbounded-region", "dropped-hermite-row", "zero-left-hermite-row-first"])
def test_lattice_width_reports_internal_faults_as_invariant_errors(monkeypatch, module, name,
                                                                    fault, vertices, message):
    # none can happen on any input, so each is a bug (CLI exit 4), never bad input (exit 2);
    # a plane in Z^3 has one zero-left Hermite row, last
    p = LatticePolytope(vertices)
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    with pytest.raises(InvariantError, match=message):
        lattice_width(p)


def test_all_points_within_width_band():
    rng = random.Random(5)
    for _ in range(15):
        p = random_full_dim_polytope(rng, 2, coord_bound=5)
        res = lattice_width(p)
        values = [res.direction.pair(q) for q in lattice_points(p).points]
        assert max(values) - min(values) == res.width


def test_unimodular_image_identity():
    p = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    assert unimodular_image(p, linalg.identity(2)) == p


def test_unimodular_image_preserves_point_count():
    rng = random.Random(13)
    for _ in range(15):
        p = random_full_dim_polytope(rng, 2, coord_bound=4)
        u = random_unimodular(rng, 2)
        t = (rng.randint(-5, 5), rng.randint(-5, 5))
        img = unimodular_image(p, u, t)
        assert len(lattice_points(img)) == len(lattice_points(p))


def test_unimodular_image_rejects_non_unimodular():
    p = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(InputError):
        unimodular_image(p, linalg.integer_matrix([[2, 0], [0, 1]]))


@pytest.mark.parametrize("u", [
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],  # unimodular, but 3 x 3: zip cut each image to 2
    [[1, 0, 0], [0, 1, 0]],
    [[1]],
    [[1, 0], [0]],
], ids=["3x3", "2x3", "1x1", "ragged"])
def test_unimodular_image_rejects_a_matrix_of_the_wrong_size(u):
    p = LatticePolytope([(0, 0), (2, 0), (0, 3)])
    with pytest.raises(InputError, match="transformation matrix is not 2 x 2"):
        unimodular_image(p, u)


def test_width_equivariance():
    rng = random.Random(19)
    for _ in range(15):
        p = random_full_dim_polytope(rng, 2, coord_bound=4)
        u = random_unimodular(rng, 2)
        t = (rng.randint(-4, 4), rng.randint(-4, 4))
        v = Direction((1, 1))
        img = unimodular_image(p, u, t)
        u_inv_t = linalg.transpose(linalg.inverse_unimodular(u))
        v_img = Direction(tuple(linalg.mat_vec(u_inv_t, v.coords)))
        assert width_in_direction(p, v) == width_in_direction(img, v_img)


def test_slice_points_paper_example():
    sl = slice_points(DELTA_PRIME, Direction((1, 0, 0)), 1)
    assert set(sl.points) == {(1, 0, -1), (1, 0, 0)}


def test_slice_points_below_min_is_empty():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(slice_points(square, Direction((0, 1)), -3)) == 0


def test_slice_points_unit_square():
    square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert slice_points(square, Direction((0, 1)), 0).points == ((0, 0), (1, 0))


@pytest.mark.parametrize("level", [1.5, 2.0, 0.0, True, False, "1"])
def test_slice_points_rejects_a_level_that_is_not_an_int(level):
    square = LatticePolytope([(0, 0), (2, 0), (0, 2), (2, 2)])
    with pytest.raises(InputError, match="is not an integer"):
        slice_points(square, Direction((0, 1)), level)


def test_slice_points_subset_of_lattice_points():
    rng = random.Random(3)
    for _ in range(10):
        p = random_full_dim_polytope(rng, 2, coord_bound=4)
        all_pts = set(lattice_points(p).points)
        v = Direction((1, 2))
        values = [v.pair(q) for q in p.vertices]
        for level in range(min(values), max(values) + 1):
            assert set(slice_points(p, v, level).points) <= all_pts


def _box_scan_slices(p, v):
    """Lattice points of P by level of v, from a bounding-box scan filtered by facets."""
    facets = p.facets()
    by_level = {}
    for c in product(*[range(lo, hi + 1) for lo, hi in _bounding_box(p)]):
        if all(sum(a * b for a, b in zip(f.normal, c)) >= f.offset for f in facets):
            by_level.setdefault(v.pair(c), []).append(c)
    return {level: sorted(pts, key=point_key) for level, pts in by_level.items()}


@pytest.mark.parametrize("k, directions", [
    (2, [(2, 3), (-5, 3), (1, 0)]),
    (3, [(2, 3, 5), (-4, 7, 1), (1, 0, 0)]),
])
def test_slice_points_matches_box_scan(k, directions):
    rng = random.Random(41 + k)
    for _ in range(15):
        p = random_full_dim_polytope(rng, k)
        for coords in directions:
            v = Direction(coords)
            expected = _box_scan_slices(p, v)
            values = [v.pair(q) for q in p.vertices]
            for level in range(min(values) - 1, max(values) + 2):
                assert list(slice_points(p, v, level).points) == expected.get(level, [])


def test_slice_points_budget_guard(monkeypatch):
    monkeypatch.setattr(polytope, "LATTICE_POINT_BUDGET", 50)
    with pytest.raises(BudgetExceededError):
        slice_points(DELTA_PRIME, Direction((1, 0, 0)), 286)


def test_budget_boundaries_are_pinned(monkeypatch):
    # each budget is the least that completes; a change in how fibers are
    # counted moves it
    assert lattice_width(DELTA_PRIME, budget=15).certified is False
    assert lattice_width(DELTA_PRIME, budget=16) == (572, Direction((1, 0, 0)), True)
    quad = [(0, 0), (7, 2), (3, 9), (-4, 5)]
    assert len(lattice_points(LatticePolytope(quad), budget=70)) == 57
    with pytest.raises(BudgetExceededError):
        lattice_points(LatticePolytope(quad), budget=69)
    p = LatticePolytope([(0, 0, 0), (4, 1, 0), (1, 5, 2), (-2, 3, 6), (3, -2, 4)]).dilate(3)
    monkeypatch.setattr(polytope, "LATTICE_POINT_BUDGET", 59)
    assert len(slice_points(p, Direction((2, 3, 5)), 40)) == 22
    monkeypatch.setattr(polytope, "LATTICE_POINT_BUDGET", 58)
    with pytest.raises(BudgetExceededError):
        slice_points(p, Direction((2, 3, 5)), 40)


@pytest.mark.parametrize("vertices, least", [
    (DELTA_PRIME.vertices, 16),  # 16 when the slabs were k edges at the least vertex
    ([(0, 0, 0), (4, 0, 0), (0, 4, 0), (4, 4, 0), (2, 2, 5)], 22),  # 28 then
    ([(0, 0), (2, 0), (3, 1), (3, 3), (1, 3), (0, 2)], 11),  # 13 then
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], 58),  # 96 then
    (WIDTH_ONE_TETRAHEDRON, 132),
], ids=["readme-simplex", "pyramid", "hexagon", "octahedron", "width-one-tetrahedron"])
def test_least_certifying_width_budgets_are_pinned(vertices, least):
    # the least budget that certifies, on one slab pair per vertex difference:
    # a simplex's are its edges at the least vertex, any other region is smaller
    p = LatticePolytope(vertices)
    res = lattice_width(p, budget=least)
    assert res.certified and res == lattice_width(p)
    assert lattice_width(p, budget=least - 1).certified is False


def test_e1_slice_budget_boundary_is_pinned(monkeypatch):
    # the least budget that completes: 1 for the x_1-fiber, 1 for the x_2
    # fibers, and the count plus 1 for each nonempty x_3-fiber (the same
    # total as the kernel on the facets plus the two level rows)
    monkeypatch.setattr(polytope, "LATTICE_POINT_BUDGET", 1753)
    assert len(slice_points(DELTA_PRIME, Direction((1, 0, 0)), 40)) == 1704
    monkeypatch.setattr(polytope, "LATTICE_POINT_BUDGET", 1752)
    with pytest.raises(BudgetExceededError):
        slice_points(DELTA_PRIME, Direction((1, 0, 0)), 40)


def _outcome(enumerate_rows, rows):
    """(points in lex order, total charge) of ``enumerate_rows(rows, out, counter)``,
    or the error it raised."""
    out, counter = [], [0, 10**9]
    try:
        enumerate_rows(rows, out, counter)
    except ToolkitError as exc:
        return type(exc), str(exc)
    return out, counter[0]


def _kernel(k):
    """The general fiber kernel on k variables, as an ``enumerate_rows``."""
    return lambda rows, out, counter: polytope._enumerate_fibers(
        polytope._projections(rows, k), (), out, counter)


def _edges_at_least_vertex(p):
    """The two edge vectors of a polygon at its least vertex, in direction_key order."""
    cycle = polytope.polygon_ccw_vertices(p.vertices)
    i = cycle.index(p.vertices[0])
    ends = (cycle[i - 1], cycle[(i + 1) % len(cycle)])
    return sorted((tuple(a - b for a, b in zip(w, p.vertices[0])) for w in ends),
                  key=direction_key)


def test_plane_walk_matches_the_kernel():
    # seeded polygons, their width slabs, and raw row systems (infeasible and
    # unbounded ones too): the same points in the same order, the same total
    # charge, or the same error
    rng = random.Random(26)
    systems = []
    for _ in range(60):
        p = random_full_dim_polytope(rng, 2, coord_bound=rng.choice((3, 6, 20)))
        systems.append(list(p.facets()))
        e1, e2 = rng.sample(_edges_at_least_vertex(p), 2)
        if e1[0] * e2[1] != e1[1] * e2[0]:
            w = rng.randint(1, 6)
            systems.append([(e1, -w), (e2, -w), ((-e1[0], -e1[1]), -w), ((-e2[0], -e2[1]), -w)])
    for _ in range(400):
        systems.append([((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-6, 6))
                        for _ in range(rng.randint(1, 5))])
    outcomes = set()
    for rows in systems:
        expected = _outcome(_kernel(2), rows)
        assert _outcome(polytope._walk_plane, rows) == expected, rows
        outcomes.add(expected[0] if isinstance(expected[0], type) else bool(expected[0]))
    assert outcomes == {True, False, ToolkitError}  # points, empty and unbounded all occur


def _reference_slice(p, v, level):
    """A slice as the facets plus the two level rows through the general kernel:
    (points in point_key order, total charge)."""
    values = [v.pair(x) for x in p.vertices]
    if level < min(values) or level > max(values):
        return (), 0
    rows = [(f.normal, f.offset) for f in p.facets()]
    rows += [(v.coords, level), (tuple(-x for x in v.coords), -level)]
    pts, charge = _outcome(_kernel(p.dim), rows)
    return tuple(sorted(pts, key=sum)), charge


def test_e1_slices_match_the_level_row_path(monkeypatch):
    # every level from min - 1 to max + 1 of seeded 3-D simplices and 2-D and
    # 4-D polytopes: the restricted path gives the kernel's points, order and
    # total charge, read as the least budget that completes
    rng = random.Random(2026)
    polytopes = []
    while len(polytopes) < 40:
        p = LatticePolytope([tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(4)])
        if p.is_full_dim:
            polytopes.append(p)
    polytopes += [random_full_dim_polytope(rng, 2) for _ in range(40)]
    polytopes += [random_full_dim_polytope(rng, 4, coord_bound=3) for _ in range(6)]
    for p in polytopes:
        v = Direction((1,) + (0,) * (p.dim - 1))
        lo, hi = min(x[0] for x in p.vertices), max(x[0] for x in p.vertices)
        for level in range(lo - 1, hi + 2):
            points, charge = _reference_slice(p, v, level)
            monkeypatch.setattr(polytope, "LATTICE_POINT_BUDGET", charge)
            assert slice_points(p, v, level).points == points
            if charge:
                monkeypatch.setattr(polytope, "LATTICE_POINT_BUDGET", charge - 1)
                with pytest.raises(BudgetExceededError):
                    slice_points(p, v, level)


@pytest.mark.parametrize("call, name", [
    (lambda p: lattice_points(p, budget="5"), "budget"),
    (lambda p: lattice_points(p, budget=1.5), "budget"),
    (lambda p: lattice_width(p, budget="5"), "budget"),
    (lambda p: lattice_width(p, budget=1.5), "budget"),
], ids=["points-str", "points-float", "width-str", "width-float"])
def test_budgets_reject_other_types(call, name):
    with pytest.raises(InputError, match=f"^{name} .* is not an integer$"):
        call(LatticePolytope(DELTA_PRIME.vertices))


def test_projections_are_the_real_projections():
    # S_j of the facet system against the hull of the projected vertices, on
    # the half-integer grid of the bounding box: a dropped facet shows as a
    # point that S_j admits and the hull does not
    rng = random.Random(9)
    for k in (2, 3, 4):
        for _ in range(8):
            p = random_full_dim_polytope(rng, k, coord_bound=3)
            systems = polytope._projections([(f.normal, f.offset) for f in p.facets()], k)
            assert systems[-1] == [(f.normal, f.offset) for f in p.facets()]
            for j, rows in enumerate(systems[:-1], 1):
                doubled = LatticePolytope([tuple(2 * x for x in v[:j]) for v in p.vertices])
                box = [range(2 * lo - 1, 2 * hi + 2) for lo, hi in _bounding_box(p)[:j]]
                for z in product(*box):
                    inside = all(sum(x * y for x, y in zip(a, z)) >= 2 * b for a, b in rows)
                    assert inside == doubled.contains(z)


def test_slice_projections_are_exact():
    # the first elimination of a slice system against the slice itself: as
    # v_k > 0, a point y of the projection lifts to the one point with
    # x_k = (level - <v', y>) / v_k; on the half-integer grid y = z / 2 that
    # point is X / (2 v_k) with X = (v_k z, 2 level - <v', z>)
    rng = random.Random(12)
    for k, coords, count in ((3, (2, -1, 3), 6), (4, (1, 2, -1, 2), 2)):
        v, vk = Direction(coords), coords[-1]
        for _ in range(count):
            p = random_full_dim_polytope(rng, k, coord_bound=3)
            facets = [(f.normal, f.offset) for f in p.facets()]
            values = [v.pair(q) for q in p.vertices]
            box = [range(2 * lo - 1, 2 * hi + 2) for lo, hi in _bounding_box(p)[:k - 1]]
            for level in range(min(values), max(values) + 1):
                level_rows = [(coords, level), (tuple(-x for x in coords), -level)]
                rows = polytope._projections(facets + level_rows, k)[k - 2]
                for z in product(*box):
                    lift = tuple(vk * x for x in z) + (2 * level - v.pair(z),)
                    in_slice = all(sum(x * y for x, y in zip(a, lift)) >= 2 * vk * b
                                   for a, b in facets)
                    inside = all(sum(x * y for x, y in zip(a, z)) >= 2 * b for a, b in rows)
                    assert inside == in_slice


def test_four_dimensional_enumeration_and_width():
    rng = random.Random(4)
    for _ in range(6):
        p = random_full_dim_polytope(rng, 4, coord_bound=3)
        by_level = _box_scan_slices(p, Direction((1, 0, 0, 0)))
        assert list(lattice_points(p).points) == sorted(
            (q for pts in by_level.values() for q in pts), key=point_key)
        for coords in [(1, 0, 0, 0), (2, -1, 3, 1)]:
            v = Direction(coords)
            expected = _box_scan_slices(p, v)
            values = [v.pair(q) for q in p.vertices]
            for level in range(min(values) - 1, max(values) + 2):
                assert list(slice_points(p, v, level).points) == expected.get(level, [])
        res = lattice_width(p)
        assert res.certified
        assert (res.width, res.direction) == oracles.brute_force_width(p, bound=6)


def test_json_round_trip():
    p = LatticePolytope([(0, 0), (1, 3), (3, 1), (4, 4)])
    again = LatticePolytope.from_json(json.dumps(p.to_json()))
    assert again == p


def test_bad_json_raises_input_error():
    with pytest.raises(InputError):
        LatticePolytope.from_json({"vertices": [[0, 0]]})


def test_non_full_dim_enumeration_raises():
    seg = LatticePolytope([(0, 0), (3, 0)])
    with pytest.raises(ToolkitError):
        lattice_points(seg)
