"""Obstruction conditions, witness construction, nefness certificate."""

import hashlib
import json
import random
import types
from fractions import Fraction
from math import gcd

import pytest

import latticejets.screen as screen_module
from latticejets import jets, linalg, wps
from latticejets.errors import InputError
from latticejets.oracles import rank_reference
from latticejets.polytope import (Direction, LatticePolytope, lattice_points, lattice_width,
                                  primitive, slice_points, unimodular_image, width_in_direction)
from latticejets.screen import _affine_basis, corollary_check, nef_check
from latticejets.surface2 import normal_form
from tests.conftest import random_config, random_full_dim_polytope, random_unimodular

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


_WITNESS = corollary_check(PAPER_TRIANGLE, Direction((1, 0))).witness


@pytest.mark.parametrize("call, message", [
    (lambda: PAPER_TRIANGLE.dilate(True), "dilation factor True is not an integer"),
    (lambda: PAPER_TRIANGLE.dilate("2"), "dilation factor '2' is not an integer"),
    (lambda: PAPER_TRIANGLE.dilate(None), "dilation factor None is not an integer"),
    (lambda: PAPER_TRIANGLE.dilate(2.0), "dilation factor 2.0 is not an integer"),
    (lambda: jets.expected_h0(5.5, 2, 2), "n 5.5 is not an integer"),
    (lambda: jets.expected_h0(True, 2, 2), "n True is not an integer"),
    (lambda: jets.expected_h0(5, 2.0, 2), "dimension 2.0 is not an integer"),
    (lambda: wps.rows_by_hash(wps.load_table(), 2.5), "count 2.5 is not an integer"),
    (lambda: wps.rows_by_hash(wps.load_table(), True), "count True is not an integer"),
    (lambda: _WITNESS.expanded("x"), "term_budget 'x' is not an integer"),
    (lambda: _WITNESS.expanded(True), "term_budget True is not an integer"),
], ids=["dilate-bool", "dilate-str", "dilate-none", "dilate-float", "expected-h0-n-float",
        "expected-h0-n-bool", "expected-h0-k-float", "rows-by-hash-float", "rows-by-hash-bool",
        "expanded-str", "expanded-bool"])
def test_public_integer_arguments_reject_other_types(call, message):
    with pytest.raises(InputError, match=message):
        call()


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
        basis = _affine_basis(pts, k)  # general position: the rank may reach k
        assert basis[0] == pts[0]
        assert [q for q in pts if q in basis] == list(basis)
        for i in range(1, len(basis) + 1):
            diffs = [tuple(a - b for a, b in zip(q, pts[0])) for q in basis[1:i]]
            assert (linalg.rank(diffs) if diffs else 0) == i - 1
        diffs = [tuple(a - b for a, b in zip(q, pts[0])) for q in pts[1:]]
        assert len(basis) - 1 == (linalg.rank(diffs) if diffs else 0)
    assert _affine_basis((), 3) == ()


def _one_shot_affine_basis(points) -> tuple:
    """Reference: the pivot columns of the whole k x (n - 1) difference matrix at once."""
    if len(points) < 2:
        return tuple(points)
    base = points[0]
    diffs = [[x - b for x in coord[1:]] for coord, b in zip(zip(*points), base)]
    return (base,) + tuple(points[i + 1] for i in linalg.pivot_columns(diffs))


def test_capped_affine_basis_equals_the_one_shot_elimination():
    # every level slice of seeded random 2-D and 3-D polytopes lies on one
    # hyperplane, so capping the rank at k - 1 must give the uncapped basis
    rng = random.Random(53)
    kinds = dict.fromkeys(["empty", "one point", "collinear", "past the first block",
                           "past the second block", "rank raised after the first block"], 0)
    for _ in range(160):
        k = rng.choice([2, 3])
        if k == 3 and rng.random() < 0.4:
            # a long thin triangle on level x_3 = 0, mostly one line of points,
            # in a random unimodular frame
            n = rng.randint(10, 60)
            u = random_unimodular(rng, 3, steps=3, shear_bound=2)
            p = unimodular_image(LatticePolytope([(0, 0, 0), (n, 0, 0), (n, rng.randint(1, 2), 0),
                                                  (0, 0, 1)]), u, (1, -2, 0))
            v = Direction(tuple(linalg.inverse_unimodular(u)[2]))  # <v, U x> = x_3
        else:
            p = random_full_dim_polytope(rng, k, coord_bound=rng.choice([2, 4, 7]))
            v = Direction(primitive(tuple(rng.randint(-2, 2) or 1 for _ in range(k))))
        values = [v.pair(x) for x in p.vertices]
        for level in range(min(values) - 1, max(values) + 2):
            pts = slice_points(p, v, level).points
            basis = _affine_basis(pts, k - 1)
            assert basis == _one_shot_affine_basis(pts) == _affine_basis(pts, k), (pts, v)
            if len(pts) <= 1:
                kinds["empty" if not pts else "one point"] += 1
            elif len(basis) == 2 and len(pts) >= 3:
                kinds["collinear"] += 1
            kinds["past the first block"] += len(pts) > 9
            kinds["past the second block"] += len(pts) > 41
            kinds["rank raised after the first block"] += bool(pts) and pts.index(basis[-1]) > 8
    assert min(kinds.values()) >= 5, sorted(kinds.items())


def _line_misses_span(p_min, p_max, points) -> bool:
    """Reference for condition (3): the line p_min p_max misses aff(points).

    p_min + alpha*seg = q0 + sum beta_i (q_i - q0) is solvable in (alpha, beta)
    iff b = q0 - p_min adds nothing to the rank of the columns seg, q_i - q0.
    The ranks are the oracle's, so nothing here shares code with ``screen``.
    """
    if not points:
        return True
    seg = tuple(a - b for a, b in zip(p_max, p_min))
    cols = [seg] + [tuple(a - b for a, b in zip(q, points[0])) for q in points[1:]]
    b = tuple(q - pm for q, pm in zip(points[0], p_min))
    return rank_reference(cols + [b]) > rank_reference(cols)


# (vertices, direction, min+1 slice, cond3); in 3-D the level is z, p_min is
# the origin and, but for the one-point-on-the-line case, p_max = (2, 0, 4),
# so the line crosses level 1 at (1/2, 0, 1)
LINE_CASES = {
    "skew": ([(0, 0, 0), (2, 0, 4), (0, -1, 1), (0, 2, 1), (1, 0, 2)], (0, 0, 1),
             ((0, -1, 1), (0, 0, 1), (0, 1, 1), (0, 2, 1)), True),
    # parallel: Lambda runs along the line's shadow on level 1, but at y = 1
    "parallel": ([(0, 0, 0), (2, 0, 4), (-1, 1, 1), (2, 1, 1)], (0, 0, 1),
                 ((-1, 1, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1)), True),
    "crossing": ([(0, 0, 0), (2, 0, 4), (0, 1, 1), (1, -1, 1), (2, 1, 3)], (0, 0, 1),
                 ((1, -1, 1), (0, 1, 1)), False),
    # a slice spans no plane that contains the line; its plane is the level
    # plane, which the line crosses, and condition (2) fails with it
    "level_plane": ([(0, 0, 0), (2, 0, 4), (-1, -1, 1), (2, -1, 1), (0, 2, 1)], (0, 0, 1),
                    ((-1, -1, 1), (0, -1, 1), (0, 0, 1), (1, -1, 1), (0, 1, 1), (1, 0, 1),
                     (2, -1, 1), (0, 2, 1)), False),
    "point_on_line": ([(0, 0, 0), (0, 0, 4), (1, 0, 2), (0, 1, 2)], (0, 0, 1),
                      ((0, 0, 1),), False),
    "point_off_line": ([(0, 0, 0), (2, 0, 4), (0, 1, 1), (1, 1, 2)], (0, 0, 1),
                       ((0, 1, 1),), True),
    # the tilted segment (0, 0) -> (4, 6) meets the point (2, 3) but misses (1, 1)
    "tilted_2d_on": ([(0, 0), (4, 6), (1, 2)], (2, -1), ((2, 3),), False),
    "tilted_2d_off": ([(0, 0), (4, 6), (3, 3)], (1, 0), ((1, 1),), True),
}


@pytest.mark.parametrize("name", LINE_CASES)
def test_cond3_on_hand_made_polytopes(name):
    vertices, v, expected_slice, cond3 = LINE_CASES[name]
    rep = corollary_check(LatticePolytope(vertices), Direction(v))
    assert rep.slice_config.points == expected_slice
    assert _line_misses_span(rep.p_min, rep.p_max, expected_slice) is cond3
    assert rep.cond3 is cond3
    assert rep.cond2 is (name != "level_plane")


def _corollary_corpus(seed=41, n=3200):
    """Seeded (P, v) pairs, both orientations of each: half random 2-D and 3-D
    polytopes with random primitive directions, half unimodular images of
    polytopes one to three levels thick, so width one, empty min+1 slices and
    failures of condition (2) all occur."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        k = rng.choice([2, 3])
        if rng.random() < 0.5:
            p = random_full_dim_polytope(rng, k, coord_bound=3)
            v = (0,) * k
            while not any(v):
                v = tuple(rng.randint(-2, 2) for _ in range(k))
            v = primitive(v)
        else:
            h = rng.randint(1, 3)
            pts = [(rng.randint(0, h),) + tuple(rng.randint(-2, 2) for _ in range(k - 1))
                   for _ in range(rng.randint(k + 1, k + 3))]
            try:
                p = LatticePolytope(pts)
            except Exception:
                continue
            if not p.is_full_dim:
                continue
            u = random_unimodular(rng, k, steps=3, shear_bound=2)
            p = unimodular_image(p, u, tuple(rng.randint(-3, 3) for _ in range(k)))
            v = tuple(linalg.inverse_unimodular(u)[0])  # <v, U x> = x_1
        out.append((p, Direction(v)))
        out.append((p, Direction(tuple(-x for x in v))))
    return out


@pytest.fixture(scope="module")
def corpus_reports():
    return [corollary_check(p, v) for p, v in _corollary_corpus()]


def test_cond3_agrees_with_the_line_test_on_a_seeded_corpus(corpus_reports):
    assert len(corpus_reports) >= 3000
    kinds = {}
    for rep in corpus_reports:
        expected = _line_misses_span(rep.p_min, rep.p_max, rep.slice_config.points)
        assert rep.cond3 is expected, rep.to_json()
        kind = ("width one" if rep.lw == 1 else "empty slice" if not rep.slice_config.points
                else "cond2 fails" if not rep.cond2 else f"cond3 {rep.cond3}")
        kinds[kind, rep.cond2] = kinds.get((kind, rep.cond2), 0) + 1
    # width one with (2) holding is where the solve's lw >= 2 guard decides (3)
    assert set(kinds) == {("width one", True), ("width one", False), ("empty slice", True),
                          ("cond2 fails", False), ("cond3 True", True),
                          ("cond3 False", True)}, kinds
    assert min(kinds.values()) >= 50, kinds


def test_seeded_corollary_corpus_keeps_its_digest(corpus_reports):
    digest = hashlib.sha256()
    for rep in corpus_reports:
        digest.update(json.dumps(rep.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == \
        "4e0fd96016f35dacdb490bd6bc33e7cf5f060c9844ebeb66ac6d18b8763d0d1a"


@pytest.mark.parametrize("run, solves", [
    (lambda: wps.screen((4, 5, 6, 7)), 0),  # both orientations fail (2)
    (lambda: corollary_check(DELTA_PRIME, Direction((1, 0, 0))), 1),
])
def test_the_obstruction_test_solves_at_most_once(monkeypatch, run, solves):
    calls = []
    solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda a, b: calls.append(a) or solve(a, b))
    report = run()
    corollary = getattr(report, "corollary", report)
    assert corollary.cond3 is (solves == 1)
    assert len(calls) == solves


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


def test_nef_report_repr_names_each_field():
    rep = nef_check([3, 5], 60, 4, linalg.integer_matrix([[1, -1, 0, 0], [0, 1, -1, 0]]))
    assert repr(rep) == ("NefReport(degrees=(3, 5), d=60, lw=4, bound=Fraction(15, 1), "
                         "saturation_ok=True, nef=True)")


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


@pytest.mark.parametrize("bad", [True, 25.7, 26.0, "26"])
@pytest.mark.parametrize("slot", ["degree", "d", "lw"])
def test_nef_check_takes_integers_only(slot, bad):
    # int() would truncate 25.7 to 25 < 51/2 and read "26" as 26
    args = {"degree": [25], "d": 51, "lw": 2}
    args[slot] = [bad] if slot == "degree" else bad
    with pytest.raises(InputError, match="integer"):
        nef_check(args["degree"], args["d"], args["lw"], [[1, -1]])
    assert nef_check([25], 51, 2, [[1, -1]]).nef


def test_nef_check_rejects_a_string_of_degrees():
    with pytest.raises(InputError, match="integer"):
        nef_check("26", 51, 2, [[1, -1]])


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
