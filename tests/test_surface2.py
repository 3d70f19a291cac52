"""Surface classification, the equivalence suite, collinearity, Pick."""

import hashlib
import json
import random
from math import gcd

import pytest

from latticejets import jets, linalg, oracles, surface2
from latticejets.errors import InvariantError, ToolkitError
from latticejets.jets import is_special, leading_term_matrix, rank_j
from latticejets.polytope import (LatticePolytope, PointConfig, lattice_points,
                                  lattice_width, polygon_ccw_vertices, unimodular_image)
from latticejets.surface2 import (_line_pair, _lines_through, _normal_form_vertices,
                                  canonical_params, classify,
                                  in_table_range, normal_form, teo_dim2_suite,
                                  three_collinear)
from tests.conftest import random_full_dim_polytope, random_unimodular, sweep_shapes

# sha256 of classify's JSON over two seeded images of every sweep shape: it
# pins the normalizing map (U, t), which the type and parameters do not fix
CLASSIFY_JSON_DIGEST = "a09e797c18b635d3be300c0a16c65d43dc7d63a55c122e0b57be1d759bd08639"


def test_classify_spec_examples():
    assert classify(LatticePolytope([(0, 0), (0, 1), (2, 1), (3, 0)])).type == "I"
    r = classify(LatticePolytope([(0, 0), (0, 1), (2, 1), (3, 0)]))
    assert (r.a, r.b) == (2, 3)
    r = classify(LatticePolytope([(0, 0), (0, 1), (5, 0)]))
    assert (r.type, r.a, r.b) == ("II", 5, None)
    r = classify(LatticePolytope([(2, 0), (0, 1), (-2, 0), (0, -1)]))
    assert (r.type, r.a, r.b) == ("III", 2, 2)
    r = classify(LatticePolytope([(3, 0), (0, 1), (-1, 0), (-1, -1)]))
    assert r.type == "IV"


def test_classify_not_special():
    r = classify(LatticePolytope([(0, 0), (2, 0), (0, 2)]))
    assert r.type == "NotSpecial"
    assert r.a is None and r.b is None


def test_classify_too_few_points():
    with pytest.raises(ToolkitError, match="hypothesis fails"):
        classify(LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)]))


def test_classify_transform_normalizes_input():
    rng = random.Random(21)
    for kind, a, b in [("I", 1, 4), ("II", 6, None), ("III", 4, 1), ("IV", 2, 2)]:
        base = normal_form(kind, a, b)
        u = random_unimodular(rng, 2)
        t = (rng.randint(-6, 6), rng.randint(-6, 6))
        img = unimodular_image(base, u, t)
        res = classify(img)
        normalized = unimodular_image(img, res.transform_u, res.transform_t)
        assert normalized == normal_form(res.type, res.a, res.b)


def test_classify_json_digest():
    """Type, parameters and the exact map (U, t) stay byte-identical."""
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for kind, a, b in sweep_shapes():
        for _ in range(2):
            u = random_unimodular(rng, 2)
            t = (rng.randint(-8, 8), rng.randint(-8, 8))
            res = classify(unimodular_image(normal_form(kind, a, b), u, t))
            digest.update(json.dumps(res.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == CLASSIFY_JSON_DIGEST


def test_classify_invariance_under_random_transforms():
    rng = random.Random(22)
    shapes = [("I", 2, 2), ("I", 3, 5), ("II", 5, None), ("II", 9, None),
              ("III", 3, 1), ("III", 2, 2), ("IV", 1, 2), ("IV", 4, 3)]
    for kind, a, b in shapes:
        base = normal_form(kind, a, b)
        want = canonical_params(kind, a, b)
        for _ in range(20):
            u = random_unimodular(rng, 2)
            t = (rng.randint(-9, 9), rng.randint(-9, 9))
            res = classify(unimodular_image(base, u, t))
            assert res.type == kind
            assert (res.a, res.b) == want


def _assert_line_pair_matches_all_pairs(points):
    """The same keyed lines with three or more points, with the same point
    sets, as the all-pairs search: so classify's tie key (most points, then
    the least normal, then the least offset) picks the same line."""
    every = {key: frozenset(pts) for key, pts in _lines_through(points).items()
             if len(pts) >= 3}
    pair = {key: frozenset(pts) for key, pts in _line_pair(points).items()}
    assert pair == every, points


def test_line_pair_matches_all_pairs_on_sweep_images():
    rng = random.Random(36)
    for kind, a, b in sweep_shapes():
        u = random_unimodular(rng, 2)
        t = (rng.randint(-8, 8), rng.randint(-8, 8))
        pts = lattice_points(unimodular_image(normal_form(kind, a, b), u, t)).points
        _assert_line_pair_matches_all_pairs(pts)
        # any three points may come first
        _assert_line_pair_matches_all_pairs(rng.sample(pts, len(pts)))


def test_line_pair_with_equal_point_counts():
    # two lines with as many points each, so the tie key alone picks the line
    rng = random.Random(37)
    configs = [lattice_points(normal_form("I", a, a)).points for a in range(2, 7)]
    configs += [lattice_points(normal_form("III", a, a)).points for a in range(1, 5)]
    for n in range(3, 7):
        configs.append(tuple((i, 0) for i in range(n)) + tuple((i, 2) for i in range(n)))
        configs.append(tuple((i, 0) for i in range(-1, n - 1))
                       + tuple((0, j) for j in range(-2, n - 2) if j))
    for pts in configs:
        for _ in range(6):
            u = random_unimodular(rng, 2)
            image = [tuple(x + y for x, y in zip(linalg.mat_vec(u, p), (3, -2))) for p in pts]
            _assert_line_pair_matches_all_pairs(rng.sample(image, len(image)))


def test_line_pair_off_a_line_pair_is_empty():
    parabola = tuple((x, x * x) for x in range(-3, 4))
    assert _line_pair(parabola) == {}


def test_classify_without_a_line_pair_is_a_bug(monkeypatch):
    monkeypatch.setattr(surface2, "_line_pair", lambda points: {})
    with pytest.raises(InvariantError, match="no line pair"):
        classify(normal_form("I", 2, 3))


def test_type_iv_reflection_identification():
    # (a, b) and (b-1, a+1) are the same polygon up to the lattice reflection
    left = classify(normal_form("IV", 2, 2))
    right = classify(normal_form("IV", 1, 3))
    assert (left.type, left.a, left.b) == (right.type, right.a, right.b)


def test_boundary_six_point_cases_out_of_table_range():
    # special with exactly six points, but outside the published ranges
    ii4 = classify(LatticePolytope([(0, 0), (0, 1), (4, 0)]))
    assert (ii4.type, ii4.a) == ("II", 4)
    assert ii4.in_table_range is False
    assert is_special(lattice_points(LatticePolytope([(0, 0), (0, 1), (4, 0)])), 3)

    iii3 = classify(LatticePolytope([(3, 0), (0, 1), (0, -1)]))
    assert iii3.type == "III"
    assert (iii3.a, iii3.b) == (3, 0)
    assert iii3.in_table_range is False


def test_in_table_range():
    assert in_table_range("I", 1, 3)
    assert not in_table_range("I", 1, 2)
    assert in_table_range("II", 5, None)
    assert not in_table_range("II", 4, None)
    assert in_table_range("III", 4, 0)
    assert in_table_range("IV", 3, 0)
    assert not in_table_range("IV", 2, 0)


def test_three_collinear_triple():
    flag, triple = three_collinear(PointConfig(2, ((0, 0), (1, 0), (2, 0))))
    assert flag and set(triple) == {(0, 0), (1, 0), (2, 0)}


def test_three_collinear_unit_square_false():
    flag, triple = three_collinear(PointConfig(2, ((0, 0), (1, 0), (0, 1), (1, 1))))
    assert not flag and triple is None


def test_three_collinear_on_polygons_with_five_points():
    rng = random.Random(30)
    found = 0
    while found < 30:
        p = random_full_dim_polytope(rng, 2, coord_bound=5)
        pts = lattice_points(p)
        if len(pts) < 5:
            continue
        flag, triple = three_collinear(pts)
        assert flag
        a, b, c = triple
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        assert cross == 0
        found += 1


def test_teo_dim2_suite():
    rec = teo_dim2_suite(normal_form("I", 2, 3))
    assert rec.width_is_one and rec.base_point_exists and rec.equivalent
    rec = teo_dim2_suite(normal_form("III", 2, 2))
    assert not rec.width_is_one and not rec.base_point_exists and rec.equivalent
    rec = teo_dim2_suite(LatticePolytope([(0, 0), (2, 0), (0, 2)]))
    assert not rec.width_is_one and not rec.base_point_exists


def _random_shear(rng, bound):
    """x -> x + s y or y -> y + s x with |s| <= bound: it sends the direction
    (0, 1) to (0, 1) or (-s, 1), inside the oracle's default box."""
    s = rng.randint(-bound, bound)
    return ((1, s), (0, 1)) if rng.random() < 0.5 else ((1, 0), (s, 1))


def test_width_one_bit_agrees_with_the_certified_search_and_the_oracle():
    rng = random.Random(1717)
    polygons = []
    while len(polygons) < 150:
        p = random_full_dim_polytope(rng, 2)
        if len(lattice_points(p)) >= 6:
            polygons.append(p)
    for _ in range(120):  # two adjacent lines, 6 to 14 lattice points
        lo, hi = rng.randint(-4, 4), rng.randint(-4, 4)
        n_lo = rng.randint(0, 6)
        n_hi = rng.randint(max(0, 4 - n_lo), 6)
        thin = LatticePolytope([(lo, 0), (lo + n_lo, 0), (hi, 1), (hi + n_hi, 1)])
        polygons.append(unimodular_image(thin, _random_shear(rng, 10),
                                         (rng.randint(-8, 8), rng.randint(-8, 8))))
    for kind, a, b in sweep_shapes():
        u = linalg.mat_mul(_random_shear(rng, 3), _random_shear(rng, 3))
        polygons.append(unimodular_image(normal_form(kind, a, b), u,
                                         (rng.randint(-8, 8), rng.randint(-8, 8))))
    answers = {True: 0, False: 0}
    for p in polygons:
        bit = teo_dim2_suite(p).width_is_one
        assert bit == (lattice_width(p).width == 1), p
        assert bit == (oracles.brute_force_width(p)[0] == 1), p
        answers[bit] += 1
    assert min(answers.values()) >= 100, answers


def test_classified_polygons_are_special_for_3e():
    for kind, a, b in [("I", 2, 3), ("II", 5, None), ("III", 3, 1), ("IV", 2, 1)]:
        pts = lattice_points(normal_form(kind, a, b))
        assert is_special(pts, 3) is True


def test_width_one_iff_types_i_ii():
    for kind, a, b, expect in [("I", 2, 3, 1), ("II", 6, None, 1),
                               ("III", 3, 2, 2), ("IV", 3, 1, 2)]:
        assert lattice_width(normal_form(kind, a, b)).width == expect


def _pick_data(p):
    """Twice the area, and the boundary and interior lattice point counts."""
    cycle = polygon_ccw_vertices(p.vertices)
    twice_area = boundary = 0
    for v, w in zip(cycle, cycle[1:] + cycle[:1]):
        twice_area += v[0] * w[1] - v[1] * w[0]
        boundary += gcd(w[0] - v[0], w[1] - v[1])
    return {"twice_area": twice_area, "boundary": boundary,
            "interior": len(lattice_points(p)) - boundary}


def test_pick_identity():
    rng = random.Random(33)
    for _ in range(25):
        data = _pick_data(random_full_dim_polytope(rng, 2, coord_bound=6))
        assert data["twice_area"] == 2 * data["interior"] + data["boundary"] - 2
    data = _pick_data(LatticePolytope([(0, 0), (2, 0), (0, 2)]))
    assert data == {"twice_area": 4, "boundary": 6, "interior": 0}


def test_polygon_class_json():
    res = classify(LatticePolytope([(0, 0), (0, 1), (5, 0)]))
    blob = res.to_json()
    assert blob["type"] == "II"
    assert blob["transform"]["U"] is not None
    assert isinstance(blob["transform"]["t"], list)


# the six-point shapes outside the published ranges, beside the sweep
BOUNDARY_SHAPES = [("I", 1, 3), ("I", 2, 2), ("II", 4, None), ("III", 3, 0),
                   ("III", 2, 1), ("IV", 3, 0), ("IV", 2, 1), ("IV", 1, 2)]


def test_closed_form_vertices_match_the_hull():
    for kind, a, b in sweep_shapes() + BOUNDARY_SHAPES:
        assert _normal_form_vertices(kind, a, b) == normal_form(kind, a, b).vertices, (kind, a, b)
        ca, cb = canonical_params(kind, a, b)
        assert _normal_form_vertices(kind, ca, cb) == normal_form(kind, ca, cb).vertices


def test_conic_rank_matches_the_leading_term_oracle():
    rng = random.Random(39)
    for kind, a, b in sweep_shapes():
        u = random_unimodular(rng, 2)
        t = (rng.randint(-8, 8), rng.randint(-8, 8))
        pts = lattice_points(unimodular_image(normal_form(kind, a, b), u, t))
        assert rank_j(pts, 2) == oracles.rank_reference(leading_term_matrix(pts, 2)) < 6
    corner = lattice_points(LatticePolytope([(0, 0), (2, 0), (0, 2)]))
    assert rank_j(corner, 2) == oracles.rank_reference(leading_term_matrix(corner, 2)) == 6


def test_planar_path_eliminates_each_jet_matrix_once(monkeypatch):
    """classify, teo_dim2_suite and is_special(., 3) share one jet echelon."""
    misses, calls = [], []
    echelon = jets._echelon

    def counting(s, m):
        before = s._jet_echelon
        out = echelon(s, m)
        calls.append(s)
        if s._jet_echelon is not before:
            misses.append(s)
        return out

    monkeypatch.setattr(jets, "_echelon", counting)
    rng = random.Random(40)
    polygons = [unimodular_image(normal_form(kind, a, b), random_unimodular(rng, 2),
                                 (rng.randint(-8, 8), rng.randint(-8, 8)))
                for kind, a, b in sweep_shapes()[::6] + BOUNDARY_SHAPES]
    polygons.append(LatticePolytope([(0, 0), (2, 0), (0, 2)]))  # not special
    for p in polygons:
        record = classify(p)
        teo_dim2_suite(p)
        if record.type != "NotSpecial":
            assert is_special(lattice_points(p), 3) is True
    assert len(misses) == len(polygons)
    assert {id(s) for s in misses} == {id(lattice_points(p)) for p in polygons}
    # one read each by classify, teo_dim2_suite and is_special; the corner
    # is not special, so is_special never reads it
    assert len(calls) == 3 * len(polygons) - 1
