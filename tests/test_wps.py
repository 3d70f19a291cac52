"""The weighted-projective-space pipeline."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from latticejets import linalg, polytope, wps
from latticejets.errors import BudgetExceededError, InputError, InvariantError, ToolkitError
from latticejets.polytope import slice_points, width_in_direction
from latticejets.screen import corollary_check
from latticejets.wps import (BinomialGenerator, WeightVector, load_table,
                             lowest_degree_binomials, project_to_3d,
                             rows_by_hash, rr_polytope, scan_weights, screen,
                             width_direction)
from tests.conftest import assert_value_semantics, invariant_factors_reference

W = WeightVector((7, 11, 13, 15))


def test_weight_vector_validation():
    with pytest.raises(InputError, match=r"^weights must have gcd 1$"):
        WeightVector((2, 4, 6, 8))
    with pytest.raises(InputError, match=r"^need four positive weights$"):
        WeightVector((0, 1, 1, 1))
    with pytest.raises(InputError, match=r"^need four positive weights$"):
        WeightVector((1, 1, 1))
    with pytest.raises(InputError, match=r"^\(1, 2, 3, True\) is not a vector of integers$"):
        WeightVector((1, 2, 3, True))


def test_weight_vector_keeps_its_frozen_semantics():
    assert_value_semantics(WeightVector, {"weights": (7, 11, 13, 15)},
                           "WeightVector(weights=(7, 11, 13, 15))")
    assert WeightVector((1, 2, 3, 5)) != polytope.Direction((1, 2, 3, 5))


def test_well_formed_flag():
    assert W.well_formed is True
    # 6 = 1 + 2 + 3 lies in the semigroup of the other weights
    assert WeightVector((1, 2, 3, 6)).well_formed is False


def _in_semigroup_by_values(target, gens) -> bool:
    """Reference: decide each value 1 .. target from the values below it."""
    reachable = [False] * (target + 1)
    reachable[0] = True
    for value in range(1, target + 1):
        reachable[value] = any(value >= g and reachable[value - g] for g in gens)
    return reachable[target]


def test_semigroup_bitmask_matches_the_value_by_value_reference():
    rng = random.Random(67)
    cases = [(0, [3]), (0, [1, 2]), (5, [6, 7, 8]), (4, [5]), (12, [12]), (13, [12]), (1, [1])]
    for _ in range(20_000):
        gens = [rng.randint(1, 40) for _ in range(rng.choice([1, 1, 2, 3, 3, 4]))]
        cases.append((rng.randint(0, 90), gens))
    answers = {True: 0, False: 0}
    for target, gens in cases:
        got = wps._in_semigroup(target, gens)
        assert got is _in_semigroup_by_values(target, gens), (target, gens)
        answers[got] += 1
    assert min(answers.values()) >= 5_000, answers


def test_rr_polytope_unit_weights():
    rr = rr_polytope(WeightVector((1, 1, 1, 1)))
    assert set(rr.vertices) == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


def test_rr_polytope_is_a_simplex_without_the_lower_dimensional_hull(monkeypatch):
    def unreachable(points):
        raise AssertionError("the Riemann-Roch simplex is built with no hull pass")

    monkeypatch.setattr(polytope, "_affine_coordinates", unreachable)
    w = WeightVector(load_table()[0].weights)
    rr = rr_polytope(w)
    assert set(rr.vertices) == {tuple(w.lcm // a if j == i else 0 for j in range(4))
                                for i, a in enumerate(w.weights)}


def test_rr_polytope_worked_example():
    rr = rr_polytope(W)
    assert set(rr.vertices) == {(2145, 0, 0, 0), (0, 1365, 0, 0),
                                (0, 0, 1155, 0), (0, 0, 0, 1001)}
    for v in rr.vertices:
        assert sum(a * b for a, b in zip(v, W.weights)) == W.lcm


def test_lowest_degree_binomials_worked_example():
    chosen, alternatives = lowest_degree_binomials(W)
    assert chosen[0].u == (1, -2, 0, 1)
    assert chosen[0].degree == 22
    assert chosen[0].text() == "x1*x4 - x2^2"
    assert chosen[1].u == (0, 1, -2, 1)
    assert chosen[1].degree == 26
    assert chosen[1].text() == "x2*x4 - x3^2"
    assert alternatives == []


def test_lowest_degree_binomials_unit_weights():
    chosen, _ = lowest_degree_binomials(WeightVector((1, 1, 1, 1)))
    assert all(b.degree == 1 for b in chosen)


def test_binomial_properties_on_table_rows():
    for row in load_table()[:10]:
        w = WeightVector(row.weights)
        chosen, _ = lowest_degree_binomials(w)
        for b in chosen:
            assert sum(a * x for a, x in zip(b.u, w.weights)) == 0
            plus_deg = sum(a * x for a, x in zip(b.u_plus, w.weights))
            minus_deg = sum(a * x for a, x in zip(b.u_minus, w.weights))
            assert plus_deg == minus_deg == b.degree


def _relations_up_to_degree(w, top):
    """Reference: the primitive, sign-normalized u with u.w = 0 and w.u+ <= top.

    Read off the box |u_i| <= top / w_i, which holds every such u, with no
    monomial enumeration. Ordered by (w.u+, graded-lex on u+); a tie in u+
    (equal weights) goes by u- in lex order.
    """
    box = [range(-(top // a), top // a + 1) for a in w]
    found = []
    for u in itertools.product(*box):
        if any(u) and sum(x * a for x, a in zip(u, w)) == 0 and gcd(*u) == 1 \
                and polytope.sign_normalized(u) == u:
            plus = tuple(max(x, 0) for x in u)
            minus = tuple(max(-x, 0) for x in u)
            degree = sum(x * a for x, a in zip(plus, w))
            if degree <= top:
                found.append(((degree, polytope.point_key(plus), minus), u))
    return [(u, key[0]) for key, u in sorted(found)]


def test_lowest_degree_binomials_match_the_box_reference():
    quads = [q for q in itertools.combinations_with_replacement(range(1, 13), 4)
             if gcd(*q) == 1]
    ties = 0
    for q in quads:
        chosen, alternatives = lowest_degree_binomials(WeightVector(q))
        got = [(b.u, b.degree) for b in chosen + alternatives]
        assert got == _relations_up_to_degree(q, chosen[1].degree), q
        ties += bool(alternatives)
    assert len(quads) == 1203 and ties >= 100, (len(quads), ties)


@pytest.mark.parametrize("weights, sizes", [((5, 6, 9, 13), [1, 3]), ((6, 7, 9, 11), [3])])
def test_binomial_batches_group_ties_by_degree(weights, sizes):
    batches = wps._binomial_batches(WeightVector(weights))
    assert [len(next(batches)) for _ in sizes] == sizes


def test_lowest_degree_binomials_read_no_degree_past_the_second(monkeypatch):
    # every monomial popped off the stream's heap joins its degree's pairing
    read = []
    heappop = wps.heappop

    def recording(heap):
        entry = heappop(heap)
        read.append(entry[0])
        return entry

    monkeypatch.setattr(wps, "heappop", recording)
    chosen, _ = lowest_degree_binomials(W)
    assert chosen[1].degree == max(read) == 26


def test_binomial_batches_past_the_second_match_the_box_reference():
    # saturate_generators reads the stream past u2's degree, so check it up to twice that
    rng = random.Random(31)
    quads = [q for q in itertools.combinations_with_replacement(range(1, 13), 4)
             if gcd(*q) == 1]
    for q in rng.sample(quads, 100):
        chosen, _ = lowest_degree_binomials(WeightVector(q))
        top = 2 * chosen[1].degree
        got = itertools.takewhile(lambda batch: batch[0].degree <= top,
                                  wps._binomial_batches(WeightVector(q)))
        expected = _relations_up_to_degree(q, top)
        assert [[(b.u, b.degree) for b in batch] for batch in got] == [
            list(group) for _, group in itertools.groupby(expected, key=lambda r: r[1])], q


def test_degree_budget_error():
    with pytest.raises(BudgetExceededError):
        lowest_degree_binomials(W, budget=10)


def test_degree_budget_boundary_is_the_second_binomials_degree():
    chosen, alternatives = lowest_degree_binomials(W, budget=26)
    assert [(b.u, b.degree) for b in chosen] == [((1, -2, 0, 1), 22), ((0, 1, -2, 1), 26)]
    assert alternatives == []
    with pytest.raises(BudgetExceededError) as info:
        lowest_degree_binomials(W, budget=25)
    assert info.value.diagnostics == {"weights": (7, 11, 13, 15), "degree_budget": 25}


def test_width_direction_worked_example():
    v = width_direction(W, (1, -2, 0, 1), (0, 1, -2, 1))
    assert v == (3, 5, 6, 7)
    # (w, v~) is a basis of a saturated rank-2 lattice
    assert invariant_factors_reference([W.weights, v]) == (1, 1)


def test_width_direction_vertex_values():
    rr = rr_polytope(W)
    values = sorted(sum(a * b for a, b in zip(x, (3, 5, 6, 7))) for x in rr.vertices)
    assert values == [6435, 6825, 6930, 7007]
    assert values[-1] - values[0] == 572


def test_width_direction_rejects_non_orthogonal():
    with pytest.raises(InputError):
        width_direction(W, (1, 0, 0, 0), (0, 1, -2, 1))


@pytest.mark.parametrize("u1, u2", [((1, -2, 0, 1), (2, -4, 0, 2)),
                                    ((0, 0, 0, 0), (1, -2, 0, 1)),
                                    ((0, 1, -2, 1), (0, 0, 0, 0))])
def test_width_direction_rejects_dependent_exponent_vectors(u1, u2):
    with pytest.raises(InputError, match="u-vectors must be linearly independent"):
        width_direction(W, u1, u2)


@pytest.mark.parametrize("u", [(1, -2, 0), (11, -7, 0), (1, -2, 0, 1, 5)])
def test_width_direction_rejects_exponent_vectors_of_the_wrong_length(u):
    # (11, -7, 0) pairs to zero with the first three weights, and the 5-vector
    # with all four, so only the length tells them apart
    with pytest.raises(InputError, match=f"has length {len(u)}, expected 4"):
        width_direction(W, u, (0, 1, -2, 1))
    with pytest.raises(InputError, match=f"has length {len(u)}, expected 4"):
        width_direction(W, (0, 1, -2, 1), u)


@pytest.mark.parametrize("v_tilde", [(3, 5, 6), (3, 5, 6, 7, 9)])
def test_projection_rejects_a_direction_of_the_wrong_length(v_tilde):
    with pytest.raises(InputError, match=f"has length {len(v_tilde)}, expected 4"):
        project_to_3d(rr_polytope(W), v_tilde, W)


ILL_TYPED = [("1", -2, 0, 1), None, (1.0, -2, 0, 1), (True, -2, 0, 1)]
ILL_TYPED_IDS = ["str", "none", "float", "bool"]


@pytest.mark.parametrize("u", ILL_TYPED, ids=ILL_TYPED_IDS)
def test_width_direction_rejects_ill_typed_exponent_vectors(u):
    with pytest.raises(InputError, match="is not a vector of integers"):
        width_direction(W, u, (0, 1, -2, 1))
    with pytest.raises(InputError, match="is not a vector of integers"):
        width_direction(W, (0, 1, -2, 1), u)


@pytest.mark.parametrize("v_tilde", [("3", 5, 6, 7), None, (3.0, 5, 6, 7), (3, 5, True, 7)],
                         ids=ILL_TYPED_IDS)
def test_projection_rejects_an_ill_typed_direction(v_tilde):
    with pytest.raises(InputError, match="is not a vector of integers"):
        project_to_3d(rr_polytope(W), v_tilde, W)


def _kernel_route_width_direction(w, u1, u2):
    """v~ through the integral kernel of (u1, u2), the coordinates of w in it and Bezout."""
    kernel = linalg.integral_kernel([u1, u2])
    if len(kernel) != 2:
        raise InputError("u-vectors must be linearly independent")
    alpha, beta = linalg.lattice_coordinates(kernel, [w.weights])[0]
    assert gcd(alpha, beta) == 1
    s, t = linalg.bezout(alpha, beta)
    v = tuple(-t * b1 + s * b2 for b1, b2 in zip(kernel[0], kernel[1]))
    return wps._reduce_mod_weights(v, w.weights)


def test_width_direction_matches_the_kernel_route():
    quads = _screened_weights()
    cases = []
    for quad in quads:
        w = WeightVector(quad)
        chosen, _ = lowest_degree_binomials(w)
        cases.append((w, chosen[0].u, chosen[1].u))
    # seeded weights, with u1 and u2 random combinations of a weight-lattice basis
    rng = random.Random(37)
    while len(cases) < len(quads) + 300:
        quad = tuple(rng.randint(1, 60) for _ in range(4))
        if gcd(*quad) != 1:
            continue
        w = WeightVector(quad)
        basis = linalg.integral_kernel([quad])
        u1, u2 = (linalg.mat_vec(linalg.transpose(basis), [rng.randint(-3, 3) for _ in basis])
                  for _ in range(2))
        cases.append((w, u1, u2))
    dependent = 0
    for w, u1, u2 in cases:
        try:
            expected = _kernel_route_width_direction(w, u1, u2)
        except InputError:
            dependent += 1
            with pytest.raises(InputError, match="u-vectors must be linearly independent"):
                width_direction(w, u1, u2)
            continue
        assert width_direction(w, u1, u2) == expected
    assert 0 < dependent < 30


def test_width_direction_certifies_its_completion(monkeypatch):
    complete = linalg.complete_to_unimodular

    def doubled(v):  # first row v, the other rows doubled: index 8, not a basis
        u = complete(v)
        return (u[0],) + tuple(tuple(2 * x for x in row) for row in u[1:])

    monkeypatch.setattr(linalg, "complete_to_unimodular", doubled)
    with pytest.raises(InvariantError, match="not a basis completion of the weights"):
        width_direction(W, (1, -2, 0, 1), (0, 1, -2, 1))


def test_projection_preserves_width():
    rr = rr_polytope(W)
    q, v = project_to_3d(rr, (3, 5, 6, 7), W)
    assert v.coords == (1, 0, 0)
    assert q.dim == 3 and q.is_full_dim
    assert width_in_direction(q, v) == 572


def _project_on(monkeypatch, basis):
    """``project_to_3d`` with ``basis`` in place of the weight lattice's HNF basis."""
    monkeypatch.setattr(wps, "_weight_lattice", lambda w: basis)
    return project_to_3d(rr_polytope(W), (3, 5, 6, 7), W)


def test_projection_alternative_basis_same_verdicts(monkeypatch):
    default_basis = wps._weight_lattice(W.weights)
    # a different (still valid, still upper triangular) basis of the same lattice
    u = linalg.integer_matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    other_basis = linalg.mat_mul(u, default_basis)
    assert other_basis != default_basis
    q1, v1 = _project_on(monkeypatch, default_basis)
    q2, v2 = _project_on(monkeypatch, other_basis)
    assert q1.vertices != q2.vertices  # the substitute basis is really read
    assert width_in_direction(q1, v1) == width_in_direction(q2, v2) == 572
    r1 = corollary_check(q1, v1)
    r2 = corollary_check(q2, v2)
    assert (r1.cond1, r1.cond2, r1.cond3, r1.verified) == \
        (r2.cond1, r2.cond2, r2.cond3, r2.verified)
    assert len(r1.slice_config) == len(r2.slice_config)


def test_projection_rejects_a_non_saturated_basis(monkeypatch):
    basis = wps._weight_lattice(W.weights)
    doubled = (tuple(2 * x for x in basis[0]),) + basis[1:]
    with pytest.raises(InvariantError, match="vertex outside the weight-orthogonal lattice"):
        _project_on(monkeypatch, doubled)


@pytest.mark.parametrize("rr, message", [
    (rr_polytope(WeightVector((1, 2, 3, 5))), "not on one level of the weights"),
    (polytope.LatticePolytope([(0, 0, 0, 1), (15, 0, 0, 0), (0, 0, 0, 0)]),
     "not on one level of the weights"),
    (polytope.LatticePolytope([(0, 0), (1, 0), (0, 1)]), "has dimension 2, expected 4"),
], ids=["other-weights", "two-levels", "dimension-2"])
def test_projection_rejects_a_polytope_off_one_weight_level(rr, message):
    with pytest.raises(InputError, match=message):
        project_to_3d(rr, (3, 5, 6, 7), W)


def test_projection_rejects_a_direction_that_does_not_complete_the_weights():
    # (6, 10, 12, 14) = 2 (3, 5, 6, 7): its 2 x 2 minors with W share the factor 2
    with pytest.raises(InputError, match=r"projected direction \(-2, -2, -2\) is imprimitive"):
        project_to_3d(rr_polytope(W), (6, 10, 12, 14), W)
    with pytest.raises(InputError, match="direction is a multiple of the weights"):
        project_to_3d(rr_polytope(W), (14, 22, 26, 30), W)


def test_negated_orientation_is_the_reflection_of_the_canonical_image():
    reflected = 0
    for quad in _screened_weights():
        w = WeightVector(quad)
        rr = rr_polytope(w)
        chosen, _ = lowest_degree_binomials(w)
        v = width_direction(w, chosen[0].u, chosen[1].u)
        q, direction = project_to_3d(rr, v, w)
        if not corollary_check(q, direction).cond1:
            continue  # the screen never negates there: the top vertex is not unique
        expected, _ = project_to_3d(rr, tuple(-x for x in v), w)
        got = wps._negated(q)
        assert got.vertices == expected.vertices
        assert got.facets() == expected.facets()
        assert got == expected and hash(got) == hash(expected)
        reflected += 1
    assert reflected > 100


def test_screen_worked_example():
    report = screen(W)
    assert report.m == 572
    assert report.verdict == "nef_not_semiample"
    assert report.nef.bound == Fraction(105, 4)
    assert report.nef.degrees == (22, 26)
    assert set(report.vertex_values) == {6435, 6825, 6930, 7007}
    # slice: two lattice points one level above the minimum, primitive step
    sl = report.corollary.slice_config.points
    assert len(sl) == 2
    step = tuple(a - b for a, b in zip(sl[1], sl[0]))
    from math import gcd
    g = 0
    for x in step:
        g = gcd(g, x)
    assert g == 1


def test_screen_v_tilde_well_defined_mod_sign_and_weights():
    report = screen(W)
    diff_plus = tuple(a - b for a, b in zip(report.v_tilde, (3, 5, 6, 7)))
    diff_minus = tuple(a + b for a, b in zip(report.v_tilde, (3, 5, 6, 7)))
    def is_weight_multiple(d):
        for t in range(-5, 6):
            if d == tuple(t * x for x in W.weights):
                return True
        return False
    assert is_weight_multiple(diff_plus) or is_weight_multiple(diff_minus)


def test_screen_unit_weights_inconclusive():
    report = screen(WeightVector((1, 1, 1, 1)))
    assert report.verdict == "inconclusive"
    assert report.corollary.cond1 is False


def test_screen_three_binomial_row():
    report = screen(WeightVector((23, 27, 29, 30)))
    assert report.m == 1827
    assert report.verdict == "nef_not_semiample"


def test_screen_json_roundtrip():
    import json

    blob = screen(W).to_json()
    assert json.loads(json.dumps(blob)) == blob
    assert blob["m"] == 572
    assert blob["verdict"] == "nef_not_semiample"


def test_load_table_has_93_rows():
    rows = load_table()
    assert len(rows) == 93
    lookup = {row.weights: row.m for row in rows}
    assert lookup[(7, 11, 13, 15)] == 572
    assert lookup[(23, 27, 29, 30)] == 1827
    assert lookup[(13, 21, 28, 30)] == 80
    assert lookup[(17, 18, 20, 27)] == 162


def test_rows_by_hash_deterministic():
    rows = load_table()
    first = rows_by_hash(rows, 10)
    second = rows_by_hash(rows, 10)
    assert first == second
    assert len(first) == 10


def test_spot_rows():
    for weights, m in [((18, 19, 21, 28), 76), ((11, 16, 25, 28), 550)]:
        report = screen(WeightVector(weights))
        assert report.m == m
        assert report.verdict == "nef_not_semiample"


def test_saturate_generators_noop_when_saturated():
    from latticejets.wps import saturate_generators

    chosen, _ = lowest_degree_binomials(W)
    extended = saturate_generators(W, chosen[0].u, chosen[1].u, list(chosen))
    assert extended == list(chosen)


def test_saturate_generators_extends_an_unsaturated_seed():
    # seed with doubled relation vectors: index 4, needs real binomials
    from latticejets.wps import saturate_generators

    chosen, _ = lowest_degree_binomials(W)
    u1, u2 = chosen[0].u, chosen[1].u
    doubled = [BinomialGenerator(u=tuple(2 * x for x in u1), degree=44),
               BinomialGenerator(u=tuple(2 * x for x in u2), degree=52)]
    extended = saturate_generators(W, u1, u2, doubled)
    rows = [g.u for g in extended]
    assert [(g.u, g.degree) for g in extended] == [
        ((2, -4, 0, 2), 44), ((0, 2, -4, 2), 52), ((1, -2, 0, 1), 22), ((0, 1, -2, 1), 26)]
    assert linalg.lattice_is_saturated(linalg.integer_matrix(rows))
    assert len(extended) > 2
    # every added generator lies in the rational plane of u1 and u2
    for g in extended[2:]:
        assert linalg.rank([u1, u2, g.u]) == 2


def _saturate_doubled_seed(**kwargs):
    """``saturate_generators`` on W from the doubled seed, which needs candidates."""
    from latticejets.wps import saturate_generators

    chosen, _ = lowest_degree_binomials(W)
    u1, u2 = chosen[0].u, chosen[1].u
    doubled = [BinomialGenerator(u=tuple(2 * x for x in u1), degree=44),
               BinomialGenerator(u=tuple(2 * x for x in u2), degree=52)]
    return saturate_generators(W, u1, u2, doubled, **kwargs)


def test_saturate_generators_bounded_retries():
    with pytest.raises(BudgetExceededError):
        _saturate_doubled_seed(max_extra=0)


def test_scan_weights_small_range():
    from latticejets.wps import scan_weights

    reports = list(scan_weights(8))
    assert reports  # every gcd-1 well-formed quadruple in range gets screened
    for item in reports:
        assert isinstance(item, dict) or item.verdict in ("nef_not_semiample",
                                                          "inconclusive")


def test_scan_weights_15_hits_are_the_published_rows():
    reports = list(scan_weights(15))
    assert len(reports) == 169
    assert not [item for item in reports if isinstance(item, dict)]
    hits = {r.weights.weights: r.m for r in reports if r.verdict == "nef_not_semiample"}
    assert hits == {row.weights: row.m for row in load_table()
                    if 2 <= min(row.weights) and max(row.weights) <= 15}


def _json_digest(items) -> str:
    """sha256 over the sorted-key JSON of each item, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode())
    return h.hexdigest()


def test_every_table_and_scan_report_keeps_its_digest():
    # the full JSON of every report, not the row summaries: any byte of any report moves it
    table = [r.report.to_json() for r in wps.reproduce_table()]
    scan = [x if isinstance(x, dict) else x.to_json() for x in scan_weights(15)]
    assert (len(table), len(scan)) == (93, 169)
    assert _json_digest(table) == \
        "1ab80e0803602e27932bdad4f8121f9f7d4b56f7af34b6bb9bd5ef72d6b19d39"
    assert _json_digest(scan) == \
        "39cd35a0e6824e07385f3a75e6ff964cb7629112842b87b665c0195cc3ceec33"


def test_scan_weights_limit():
    hits = [r for r in scan_weights(15, limit=1)
            if not isinstance(r, dict) and r.verdict == "nef_not_semiample"]
    assert [r.weights.weights for r in hits] == [(7, 11, 13, 15)]
    for limit in (0, -1):
        with pytest.raises(InputError, match="limit must be >= 1"):
            next(scan_weights(15, limit=limit))


def test_scan_weights_rejects_a_min_weight_below_one():
    for min_weight in (0, -3):
        with pytest.raises(InputError, match="min_weight must be >= 1"):
            next(scan_weights(15, min_weight=min_weight))
    first = next(scan_weights(5, min_weight=1, well_formed_only=False))
    assert first.weights.weights == (1, 2, 3, 4)


def _screen_stub(w, budget):
    return SimpleNamespace(weights=w, verdict="inconclusive")


def test_scan_walk_yields_what_the_combinations_filter_kept(monkeypatch):
    # the screen is stubbed, so this times the prefix walk alone
    monkeypatch.setattr(wps, "screen", _screen_stub)
    for min_weight in range(1, 5):
        for well_formed_only in (True, False):
            kept = [q for q in itertools.combinations(range(min_weight, 23), 4)
                    if gcd(*q) == 1
                    and (not well_formed_only or WeightVector(q).well_formed)]
            for max_weight in range(min_weight, 23):
                walked = [r.weights.weights for r in scan_weights(
                    max_weight, min_weight=min_weight, well_formed_only=well_formed_only)]
                assert walked == [q for q in kept if q[3] <= max_weight], \
                    (min_weight, max_weight, well_formed_only)


def test_scan_builds_a_weight_vector_only_for_walked_quadruples(monkeypatch):
    built = []

    def counted(weights):
        built.append(weights)
        return WeightVector(weights)

    monkeypatch.setattr(wps, "screen", _screen_stub)
    monkeypatch.setattr(wps, "WeightVector", counted)
    assert len(list(scan_weights(15))) == 169
    # one for each well-formed quadruple, not for each of the 961 with gcd 1
    assert len(built) == 169


@pytest.mark.parametrize("weights, projections", [
    ((4, 6, 7, 9), 1),      # cond1 fails, so it fails in the negated orientation too
    ((4, 5, 6, 7), 2),      # cond1 holds, cond2 fails both ways
    ((7, 11, 13, 15), 1),   # passes in the canonical orientation
    ((7, 15, 19, 23), 2),   # passes in the negated orientation
])
def test_screen_projects_each_orientation_it_needs_on_one_lattice(monkeypatch, weights,
                                                                  projections):
    projected, negated, lattices, kernels = [], [], [], []
    project, negate, lattice = wps.project_to_3d, wps._negated, wps._weight_lattice
    kernel = linalg.integral_kernel

    def counting_project(*args, **kwargs):
        projected.append(args[1])
        return project(*args, **kwargs)

    def counting_negate(q):
        negated.append(q)
        return negate(q)

    def counting_lattice(w):
        lattices.append(w)
        return lattice(w)

    def counting_kernel(m):
        kernels.append([tuple(row) for row in m])
        return kernel(m)

    monkeypatch.setattr(wps, "project_to_3d", counting_project)
    monkeypatch.setattr(wps, "_negated", counting_negate)
    monkeypatch.setattr(wps, "_weight_lattice", counting_lattice)
    monkeypatch.setattr(linalg, "integral_kernel", counting_kernel)
    report = screen(weights)
    # one projection, of the canonical sign; the negated sign is its reflection
    assert len(projected) == 1 and len(negated) == projections - 1
    canonical = projected[0]
    if report.verdict == "nef_not_semiample" and projections == 2:
        assert report.v_tilde == tuple(-x for x in canonical)
    else:  # the report keeps the passing orientation, else the canonical one
        assert report.v_tilde == canonical
    # one weight lattice, read in closed form: no integral kernel
    assert lattices == [weights] and kernels == []
    if not report.corollary.cond1:  # the skipped negated orientation fails cond1 too
        negated_v = tuple(-x for x in report.v_tilde)
        flipped = project(rr_polytope(report.weights), negated_v, report.weights)
        assert not corollary_check(*flipped).cond1


@pytest.mark.parametrize("weights, projections", [
    ((4, 6, 7, 9), 1), ((4, 5, 6, 7), 2), ((7, 11, 13, 15), 1), ((7, 15, 19, 23), 2)])
def test_screen_builds_no_hull_and_solves_the_vertex_coordinates_once(monkeypatch, weights,
                                                                       projections):
    hulls = []
    calls = {"lattice_coordinates": [], "complete_to_unimodular": [], "smith_normal_form": [],
             "hermite_normal_form": []}

    def no_hull(self, *args, **kwargs):
        hulls.append(args)
        raise AssertionError("the screen's simplices are built in closed form")

    def counting(name, real):
        def call(*args):
            calls[name].append(args[0])
            return real(*args)
        return call

    monkeypatch.setattr(polytope.LatticePolytope, "__init__", no_hull)
    for name in calls:
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    for name in ("_negated", "_simplex_facets"):
        calls[name] = []
        monkeypatch.setattr(wps, name, counting(name, getattr(wps, name)))
    screen(weights)
    assert hulls == []
    assert len(calls["_negated"]) == projections - 1  # the counts below hold either way
    # the weight lattice and the four vertices' coordinates in it are closed
    # form, however many orientations: no Smith or Hermite form and no solve
    for name in ("lattice_coordinates", "smith_normal_form", "hermite_normal_form"):
        assert calls[name] == [], name
    # one Euclid completion of w (width_direction) and one of the projected
    # direction (project_to_3d): the negated sign reuses the latter
    completions = calls["complete_to_unimodular"]
    assert len(completions) == 2 and completions[0] == weights
    # the facets are built once, by project_to_3d; _negated reflects them
    assert len(calls["_simplex_facets"]) == 1


def _screened_weights():
    table = [row.weights for row in load_table()]
    scan = [x["weights"] if isinstance(x, dict) else x.weights.weights for x in scan_weights(15)]
    return table + scan


def test_closed_form_simplices_equal_the_hull():
    rng = random.Random(71)
    weights = _screened_weights()
    assert len(weights) == 93 + 169
    for quad in weights:
        w = WeightVector(quad)
        rr = rr_polytope(w)
        checked = polytope.LatticePolytope(rng.sample(rr.vertices, 4), 4)
        assert rr.vertices == checked.vertices and rr.affine_dim == checked.affine_dim == 3
        assert rr == checked and hash(rr) == hash(checked)
        chosen, _ = lowest_degree_binomials(w)
        v_tilde = width_direction(w, chosen[0].u, chosen[1].u)
        for v in (v_tilde, tuple(-x for x in v_tilde)):
            q, _ = project_to_3d(rr, v, w)
            hull = polytope.LatticePolytope(rng.sample(q.vertices, 4), 3)
            assert q.vertices == hull.vertices
            assert q.affine_dim == hull.affine_dim == 3
            assert q.facets() == hull.facets() == polytope._facets_of(q.vertices, 3)


def _seeded_weight_quadruples(rng, count):
    """gcd-1 quadruples mixing weight 1, repeated weights, three weights sharing a
    factor and entries up to 10**6, in random order."""
    quads = []
    while len(quads) < count:
        kind = len(quads) % 5
        top = rng.choice([12, 300, 10**6])
        q = [rng.randint(1, top) for _ in range(4)]
        if kind == 0:
            q[rng.randrange(4)] = 1
        elif kind == 1:
            i, j = rng.sample(range(4), 2)
            q[i] = q[j]
        elif kind == 2:
            f = rng.randint(2, 60)
            q = [x * f if i != 0 else x for i, x in enumerate(q)]
        elif kind == 3:
            q = [rng.randint(1, 10**6) for _ in range(4)]
        rng.shuffle(q)
        if gcd(*q) == 1:
            quads.append(tuple(q))
    return quads


def test_weight_lattice_closed_form_matches_the_references():
    rng = random.Random(83)
    screened = _screened_weights()
    seeded = _seeded_weight_quadruples(rng, 2000)
    assert sum(1 in q for q in seeded) >= 400
    assert sum(len(set(q)) < 4 for q in seeded) >= 400
    assert sum(any(gcd(*q[:i], *q[i + 1:]) > 1 for i in range(4)) for q in seeded) >= 300
    assert sum(max(q) > 10**5 for q in seeded) >= 400
    pivots = []
    for quad in screened + seeded:
        basis = wps._weight_lattice(quad)
        assert basis == linalg.integral_kernel([quad]), quad
        pivots.append(tuple(basis[i][i] for i in range(3)))
        # the vertex differences the projection solves, lattice vectors and off-lattice ones
        rr = rr_polytope(WeightVector(quad)).vertices
        vectors = [tuple(a - b for a, b in zip(x, rr[0])) for x in rr]
        for _ in range(3):
            c = [rng.randint(-50, 50) for _ in range(3)]
            x = linalg.mat_vec(linalg.transpose(basis), c)
            vectors += [x, x[:3] + (x[3] + 1,), (x[0] + 1,) + x[1:]]
        expected = linalg.lattice_coordinates(basis, vectors)
        assert [wps._triangular_coordinates(basis, x) for x in vectors] == expected, quad
        assert None not in expected[:4]
    # the scan range reaches the first pivot's branch only five times
    scan_pivots = pivots[93:len(screened)]
    assert sum(p1 > 1 for p1, _, _ in scan_pivots) == 5
    assert sum(p1 > 1 for p1, _, _ in pivots) >= 100
    assert sum(p2 > 1 for _, p2, _ in pivots) >= 100


@pytest.mark.parametrize("call, name", [
    (lambda: screen(W, budget=50.5), "budget"),
    (lambda: screen(W, budget="50"), "budget"),
    (lambda: screen(W, budget=True), "budget"),
    (lambda: lowest_degree_binomials(W, 30.5), "budget"),
    (lambda: next(scan_weights(15.0)), "max_weight"),
    (lambda: next(scan_weights("15")), "max_weight"),
    (lambda: next(scan_weights(15, min_weight=2.0)), "min_weight"),
    (lambda: next(scan_weights(8, budget=None)), "budget"),
    (lambda: next(scan_weights(8, limit=1.5)), "limit"),
    (lambda: next(scan_weights(8, limit=True)), "limit"),
    (lambda: _saturate_doubled_seed(budget=50.5), "budget"),
    (lambda: _saturate_doubled_seed(max_extra=1.5), "max_extra"),
], ids=["screen-float", "screen-str", "screen-bool", "binomials-float", "scan-float",
        "scan-str", "scan-min-float", "scan-budget-none", "scan-limit-float",
        "scan-limit-bool", "saturate-budget-float", "saturate-max-extra-float"])
def test_integer_arguments_reject_other_types(call, name):
    with pytest.raises(InputError, match=f"^{name} .* is not an integer$"):
        call()


def _old_cond2_cond3(p, direction, p_min, p_max):
    """cond2 and cond3 as rank over all slice differences and a solve over all slice points."""
    lo = min(direction.pair(x) for x in p.vertices)
    pts = slice_points(p, direction, lo + 1).points
    if not pts:
        return True, True
    diffs = [tuple(a - b for a, b in zip(q, pts[0])) for q in pts[1:]]
    span_rank = linalg.rank(diffs) if diffs else 0
    seg = tuple(a - b for a, b in zip(p_max, p_min))
    cols = [seg] + [tuple(-x for x in d) for d in diffs]
    a = tuple(tuple(col[i] for col in cols) for i in range(p.dim))
    b = [q - pm for q, pm in zip(pts[0], p_min)]
    return p.dim - span_rank >= 2, linalg.solve(a, b) is None


def test_slice_conditions_match_all_point_formulation():
    checked = 0
    for item in scan_weights(10):
        w = item.weights
        chosen, _ = lowest_degree_binomials(w)
        vt = width_direction(w, chosen[0].u, chosen[1].u)
        for v_tilde in (vt, tuple(-x for x in vt)):
            projected, direction = project_to_3d(rr_polytope(w), v_tilde, w)
            rep = corollary_check(projected, direction)
            assert (rep.cond2, rep.cond3) == _old_cond2_cond3(
                projected, direction, rep.p_min, rep.p_max)
            checked += 1
    assert checked == 24


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("exc", [BudgetExceededError("over budget"), InputError("bad"),
                                 ToolkitError("stage failed")])
def test_scan_weights_records_skips(monkeypatch, exc):
    monkeypatch.setattr(wps, "screen", _raise(exc))
    items = list(scan_weights(8))
    assert items and all(item["error"] == str(exc) for item in items)


def test_scan_weights_propagates_invariant_errors(monkeypatch):
    monkeypatch.setattr(wps, "screen", _raise(InvariantError("broken enumerator")))
    with pytest.raises(InvariantError, match="broken enumerator"):
        list(scan_weights(8))


def test_width_invariant_under_v_tilde_shifts():
    # adding weight multiples to v~ or negating it never changes the width
    for row in load_table()[:5]:
        w = WeightVector(row.weights)
        chosen, _ = lowest_degree_binomials(w)
        vt = width_direction(w, chosen[0].u, chosen[1].u)
        rr = rr_polytope(w)

        def rr_width(vec):
            values = [sum(a * b for a, b in zip(x, vec)) for x in rr.vertices]
            return max(values) - min(values)

        base = rr_width(vt)
        assert base == row.m
        for t in (-3, -1, 1, 4):
            shifted = tuple(a + t * b for a, b in zip(vt, w.weights))
            assert rr_width(shifted) == base
        assert rr_width(tuple(-a for a in vt)) == base
