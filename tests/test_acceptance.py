"""Acceptance criteria, one test per criterion.

Every criterion prints a single PASS line on success (run with ``pytest -s``
to see them live); all tolerances are exact, as stated.
"""

import random
import time
from fractions import Fraction
from math import gcd

from latticejets import linalg, oracles
from latticejets.base_locus import (base_locus_k2, is_base_point,
                                    is_base_point_via_form)
from latticejets.jets import (expected_h0, fundamental_form, h0, is_special,
                              jet_row_indices, leading_term_matrix, min_vanishing_degree)
from latticejets.polytope import (LatticePolytope, lattice_points,
                                  lattice_width, unimodular_image)
from latticejets.screen import corollary_check
from latticejets.surface2 import (canonical_params, classify, normal_form,
                                  three_collinear)
from latticejets.wps import (WeightVector, load_table, reproduce_table,
                             rows_by_hash, screen)
from tests.conftest import (random_config, random_full_dim_polytope,
                            random_primitive_direction, random_unimodular,
                            reference_rows, sweep_shapes)


def _report(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {detail}")


def test_criterion_1_table_regression():
    start = time.time()
    results = reproduce_table()
    elapsed = time.time() - start
    assert len(results) == 93
    mismatches = [(r.row.weights, r.row.m, r.computed_m, r.verdict)
                  for r in results if not r.passed]
    assert mismatches == [], mismatches
    assert elapsed < 300, f"table run took {elapsed:.1f}s"
    assert elapsed / len(results) < 10
    _report(1, f"93/93 rows reproduce m and nef_not_semiample in {elapsed:.1f}s")


def test_criterion_2_worked_example():
    w = WeightVector((7, 11, 13, 15))
    report = screen(w)
    assert [(b.u, b.degree) for b in report.binomials[:2]] == \
        [((1, -2, 0, 1), 22), ((0, 1, -2, 1), 26)]
    # v~ is (3,5,6,7) modulo sign and weight multiples
    matched = False
    for sign in (1, -1):
        diff = tuple(sign * a - b for a, b in zip(report.v_tilde, (3, 5, 6, 7)))
        if any(diff):
            if diff[0] % 7 == 0:
                t = diff[0] // 7
                matched = matched or diff == tuple(t * x for x in w.weights)
        else:
            matched = True
    assert matched, report.v_tilde
    assert set(report.vertex_values) == {6435, 6825, 6930, 7007}
    assert report.m == 572
    assert report.nef.bound == Fraction(105, 4)
    assert all(deg < report.nef.bound for deg in report.nef.degrees)
    # slice: exactly two points one level above the minimum, differing by a
    # primitive step (the paper's {(1,0,-1), (1,0,0)} up to equivalence)
    sl = report.corollary.slice_config.points
    assert len(sl) == 2
    assert all(report.direction.pair(q) == 1 for q in sl)
    step = tuple(a - b for a, b in zip(sl[1], sl[0]))
    g = 0
    for x in step:
        g = gcd(g, x)
    assert g == 1
    assert report.verdict == "nef_not_semiample"
    _report(2, "binomials 22/26, v~=(3,5,6,7), m=572, bound 105/4, slice of two points")


def test_criterion_3_quadrilateral_fixture():
    p = LatticePolytope([(0, 0), (1, 3), (3, 1), (4, 4)])
    s = lattice_points(p)
    assert len(s) == 11
    assert min_vanishing_degree(s) == 3
    assert is_special(s, 3) is False
    assert is_special(s, 4) is True
    assert h0(s, 4) == 2
    assert expected_h0(10, 2, 4) == 1
    form = fundamental_form(s, 4)
    paper_span, _ = linalg.rref([[1, 4, 10, 4, 1], [0, 0, 1, 0, 0]])
    assert form.basis == tuple(paper_span)
    assert base_locus_k2(s, 4).is_empty
    _report(3, "11-point fixture: degree 3, special only at m=4, quartic span, empty locus")


def test_criterion_4_classification_sweep():
    start = time.time()
    shapes = sweep_shapes()

    rng = random.Random(20260810)
    classified = 0
    for kind, a, b in shapes:
        base = normal_form(kind, a, b)
        want = canonical_params(kind, a, b)
        res = classify(base)
        assert (res.type, (res.a, res.b)) == (kind, want), (kind, a, b, res)
        pts = lattice_points(base)
        assert is_special(pts, 3) is True, (kind, a, b)
        width = lattice_width(base).width
        if kind in ("I", "II"):
            assert width == 1, (kind, a, b)
        else:
            assert width != 1, (kind, a, b)
        for _ in range(100):
            u = random_unimodular(rng, 2)
            t = (rng.randint(-8, 8), rng.randint(-8, 8))
            res = classify(unimodular_image(base, u, t))
            assert (res.type, (res.a, res.b)) == (kind, want), (kind, a, b, res)
            classified += 101
    corner = classify(LatticePolytope([(0, 0), (2, 0), (0, 2)]))
    assert corner.type == "NotSpecial"
    elapsed = time.time() - start
    assert elapsed < 60, f"classification sweep took {elapsed:.1f}s"
    _report(4, f"{len(shapes)} shapes x 101 images classified exactly in {elapsed:.1f}s")


def test_criterion_5_base_point_equivalence_suite():
    rng = random.Random(193)
    mismatches = []
    runs = 0
    while runs < 200:
        k = rng.choice([2, 3])
        s = random_config(rng, k, rng.randint(5, 12), coord_bound=4)
        m = rng.choice([2, 3, 4])
        v = random_primitive_direction(rng, k, bound=3)
        feasible, witness = is_base_point(s, m, v)
        via_form = is_base_point_via_form(s, m, v)
        if feasible != via_form:
            mismatches.append((s.points, m, v.coords, feasible, via_form))
        if witness is not None:
            assert witness.vanishes_on(s)
        runs += 1
    assert mismatches == [], mismatches
    _report(5, f"{runs} random configurations: feasibility == evaluation, witnesses vanish")


def test_criterion_6_width_oracle_suite():
    rng = random.Random(406)
    runs = 0
    while runs < 100:
        k = rng.choice([2, 3])
        p = random_full_dim_polytope(rng, k, coord_bound=6)
        res = lattice_width(p)
        assert res.certified, p.vertices
        scan_width, _ = oracles.brute_force_width(p, bound=10)
        assert res.width == scan_width, (p.vertices, res, scan_width)
        runs += 1
    _report(6, f"{runs} random polytopes: certified width equals the [-10,10]^k scan")


def test_criterion_7_structural_identities():
    rng = random.Random(777)
    inputs = [
        lattice_points(LatticePolytope([(0, 0), (1, 3), (3, 1), (4, 4)])),
        lattice_points(normal_form("I", 2, 3)),
        lattice_points(normal_form("II", 5, None)),
        lattice_points(normal_form("III", 3, 1)),
        lattice_points(normal_form("IV", 2, 1)),
        lattice_points(LatticePolytope([(0, 0), (2, 0), (0, 2)])),
    ]
    for _ in range(20):
        inputs.append(random_config(rng, rng.choice([2, 3]), rng.randint(4, 9)))
    for s in inputs:
        top = 4 if s.dim == 2 else 3
        for r in range(top + 1):
            # the derivative (falling-factorial) matrix against the leading-term one
            j_block = reference_rows(s, jet_row_indices(s.dim, r), True)
            lt_block = leading_term_matrix(s, r)
            assert linalg.rank(j_block) == linalg.rank(lt_block)
            assert linalg.kernel_basis(j_block) == linalg.kernel_basis(lt_block)
        values = [h0(s, m) for m in range(1, top + 1)]
        assert all(x >= y for x, y in zip(values, values[1:]))
        t = tuple(rng.randint(-5, 5) for _ in range(s.dim))
        u = random_unimodular(rng, s.dim)
        moved = s.apply(u, t)
        for m in (2, 3):
            assert is_special(s, m) == is_special(moved, m)
        assert min_vanishing_degree(s) == min_vanishing_degree(moved)
    _report(7, f"{len(inputs)} inputs: rank/kernel identities and invariance hold")


def test_criterion_8_three_collinear_property():
    rng = random.Random(38)
    runs = 0
    while runs < 100:
        p = random_full_dim_polytope(rng, 2, coord_bound=6)
        pts = lattice_points(p)
        if len(pts) < 5:
            continue
        flag, triple = three_collinear(pts)
        assert flag, pts.points
        a, b, c = triple
        assert (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])
        runs += 1
    _report(8, f"{runs} polygons with >= 5 lattice points all contain a collinear triple")


def test_criterion_9_dilation_stability():
    rows = rows_by_hash(load_table(), 10)
    for row in rows:
        report = screen(WeightVector(row.weights))
        assert report.verdict == "nef_not_semiample"
        doubled = report.projected.dilate(2)
        rep2 = corollary_check(doubled, report.direction)
        assert rep2.cond1 and rep2.cond2 and rep2.cond3, row.weights
        assert rep2.verified, row.weights
        assert rep2.lw == 2 * report.m
    _report(9, f"10 hash-chosen rows: obstruction conditions persist on 2*Delta")
