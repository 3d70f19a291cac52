"""The independent brute-force routes themselves."""

import random
from fractions import Fraction

import pytest

from latticejets import linalg, oracles
from latticejets.errors import InputError
from latticejets.polytope import (Direction, LatticePolytope, WidthResult, lattice_width,
                                  width_in_direction)


def test_rank_reference_known_values():
    assert oracles.rank_reference([[1, 0], [0, 1]]) == 2
    assert oracles.rank_reference([[1, 2], [2, 4]]) == 1
    assert oracles.rank_reference([[Fraction(1, 2), Fraction(1, 3)]]) == 1


def test_primitive_directions_dedupe_sign():
    dirs = oracles.primitive_directions(2, 1)
    assert set(dirs) == {(0, 1), (1, -1), (1, 0), (1, 1)}


def test_same_span():
    a = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    b = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)))
    assert oracles.same_span(a, b)
    assert not oracles.same_span(a[:1], b)


def test_brute_force_width_big_coordinates_python_path():
    # products far past 64 bits stay exact in Python integers
    big = 10 ** 18
    p = LatticePolytope([(0, 0), (big, 1), (1, big)])
    w, direction = oracles.brute_force_width(p, bound=1)
    assert w > 0
    assert direction.coords in ((0, 1), (1, -1), (1, 0), (1, 1))


def test_brute_force_width_takes_the_quotient_width_below_full_dimension():
    # directions constant on a segment or triangle in Z^3 have width 0 and are skipped
    rng = random.Random(2203)
    runs = 0
    while runs < 60:
        p = LatticePolytope([tuple(rng.randint(-3, 3) for _ in range(3))
                             for _ in range(rng.choice((2, 3)))])
        if p.affine_dim == 0:
            continue
        res = lattice_width(p)
        assert res.certified and res.width > 0
        assert oracles.brute_force_width(p)[0] == res.width, p.vertices
        runs += 1
    point = LatticePolytope([(3, -1, 2)])
    assert oracles.brute_force_width(point) == (0, Direction((0, 0, 1)))


def test_width_oracle_agrees_record():
    p = LatticePolytope([(0, 0), (0, 1), (2, 1), (3, 0)])
    record = oracles.width_oracle_agrees(p, lattice_width(p))
    assert record["agree"] and record["main_width"] == 1


def test_width_oracle_compares_full_dimensional_directions():
    # a certified width-one result in a direction that is not the least one
    # disagrees with the scan; the least direction agrees
    p = LatticePolytope([(0, 0, -2), (1, -3, 1), (2, -3, 3), (2, 1, 2)])
    wrong = oracles.width_oracle_agrees(p, WidthResult(1, Direction((6, -1, -3)), True))
    assert (wrong["scan_direction"], wrong["agree"]) == ([2, 0, -1], False)
    assert oracles.width_oracle_agrees(p, lattice_width(p))["agree"] is True
    # outside the box, or uncertified, the direction is not compared
    assert oracles.width_oracle_agrees(p, WidthResult(1, Direction((6, -1, -3)), True),
                                       bound=5)["agree"] is True
    assert oracles.width_oracle_agrees(p, WidthResult(1, Direction((6, -1, -3)), False))["agree"]


def test_width_oracle_compares_only_widths_below_full_dimension():
    # a lifted direction need not be the least one: (1, -1, 0) also gives the
    # coplanar parallelogram width 2, and the scan's is (0, 1, -1)
    p = LatticePolytope([(0, 0, 0), (1, 2, 3), (2, 1, 0), (3, 3, 3), (1, 1, 1)])
    assert width_in_direction(p, Direction((1, -1, 0))) == 2
    record = oracles.width_oracle_agrees(p, WidthResult(2, Direction((1, -1, 0)), True))
    assert (record["scan_direction"], record["agree"]) == ([0, 1, -1], True)


@pytest.mark.parametrize("bound", [True, False, 1.5, 2.0, "3", None])
def test_oracle_bound_must_be_an_int(bound):
    # index() would read True as 1; 1.5, "3" and None once raised a bare TypeError
    p = LatticePolytope([(0, 0), (0, 1), (2, 1), (3, 0)])
    with pytest.raises(InputError, match="^oracle bound .* is not an integer$"):
        oracles.brute_force_width(p, bound)
    with pytest.raises(InputError, match="^oracle bound .* is not an integer$"):
        oracles.width_oracle_agrees(p, lattice_width(p), bound)


def test_rank_oracle_agrees_record():
    record = oracles.rank_oracle_agrees([[1, 2, 3], [2, 4, 6], [0, 1, 0]])
    assert record["agree"] and record["main_rank"] == 2


def test_right_kernel_reference_span(monkeypatch):
    m = [[1, 1, 1, 1], [0, 1, 2, 3]]
    main = linalg.kernel_basis(m)

    def main_route(*args, **kwargs):
        raise AssertionError("the oracle reached linalg's elimination")

    # the references share no code with the main route
    for name in ("_gauss_jordan", "scaled_rref", "rref", "rank", "kernel_basis"):
        monkeypatch.setattr(linalg, name, main_route)
    ref = oracles.right_kernel_reference(m)
    assert oracles.same_span(main, ref)
    assert not oracles.same_span(main, ref[:1] + ((1, 0, 0, 0),))
    assert oracles.rank_reference(m) == 2
