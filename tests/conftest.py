"""Shared generators and fixtures for the test suite.

Random sweeps use seeded ``random.Random`` instances so every run is
reproducible bit for bit.
"""

import copy
import pickle
import random
from fractions import Fraction
from math import lcm, prod

import pytest

from latticejets import linalg
from latticejets.polytope import LatticePolytope, PointConfig, lattice_points


@pytest.fixture
def rem_base_polygon():
    """The quadrilateral whose 11 lattice points lie on a cubic but no conic."""
    return LatticePolytope([(0, 0), (1, 3), (3, 1), (4, 4)])


@pytest.fixture
def rem_base_points(rem_base_polygon):
    return lattice_points(rem_base_polygon)


@pytest.fixture
def type_ii_points():
    """Lattice points of the triangle (0,0), (0,1), (5,0)."""
    return lattice_points(LatticePolytope([(0, 0), (0, 1), (5, 0)]))


def assert_value_semantics(cls, fields: dict, text: str):
    """The frozen-value contract of ``Direction``, ``PointConfig`` and
    ``WeightVector``: built from ``fields`` by keyword or position, the value
    reprs as ``text``, hashes as its field tuple, equals only an instance of
    its own class, survives copy and pickle, and refuses assignment."""
    value = cls(**fields)
    values = tuple(fields.values())
    assert repr(value) == text
    assert hash(value) == hash(values)
    assert value == cls(*values)
    lookalike = type("Lookalike", (), fields)()
    assert value != values and value != lookalike and values != value
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)


def invariant_factors_reference(m) -> tuple[int, ...]:
    """The nonzero invariant factors (elementary divisors) of an integer matrix,
    from sympy's Smith form: a reference that shares no code with ``linalg``."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    return tuple(int(d) for d in invariant_factors(Matrix([list(row) for row in m]), domain=ZZ)
                 if d)


def sweep_shapes():
    """Normal-form parameters (kind, a, b) of the classification sweep: 189 shapes."""
    shapes = []
    for total in range(4, 13):
        for a in range(1, total // 2 + 1):
            shapes.append(("I", a, total - a))
    for a in range(5, 13):
        shapes.append(("II", a, None))
    for total in range(4, 13):
        for a in range(1, total + 1):
            shapes.append(("III", a, total - a))
    for total in range(3, 13):
        for a in range(1, total + 1):
            shapes.append(("IV", a, total - a))
    return shapes


def random_full_dim_polytope(rng: random.Random, k: int, coord_bound: int = 6,
                             max_extra: int = 4) -> LatticePolytope:
    """Random full-dimensional lattice polytope with bounded coordinates."""
    while True:
        count = rng.randint(k + 1, k + max_extra)
        pts = [tuple(rng.randint(-coord_bound, coord_bound) for _ in range(k))
               for _ in range(count)]
        try:
            p = LatticePolytope(pts)
        except Exception:
            continue
        if p.is_full_dim:
            return p


def random_config(rng: random.Random, k: int, n_points: int,
                  coord_bound: int = 4) -> PointConfig:
    """Random configuration of distinct lattice points."""
    if n_points > (2 * coord_bound + 1) ** k:
        raise ValueError(f"the box holds fewer than {n_points} lattice points")
    pts = set()
    while len(pts) < n_points:
        pts.add(tuple(rng.randint(-coord_bound, coord_bound) for _ in range(k)))
    return PointConfig(k, tuple(sorted(pts)))


def _falling(x, a):
    out = 1
    for i in range(a):
        out *= x - i
    return out


def reference_rows(s: PointConfig, alphas, falling: bool):
    """One row per multi-index alpha, each entry computed on its own: the
    falling factorial prod_j x_j (x_j - 1) ... (x_j - alpha_j + 1) of the
    derivative jet matrix, or the power prod_j x_j ** alpha_j."""
    value = _falling if falling else pow
    return tuple(tuple(prod(value(x, a) for x, a in zip(p, alpha)) for p in s.points)
                 for alpha in alphas)


def cleared_rows(rows):
    """Integer rows: each row scaled by the lcm of its entries' denominators,
    which keeps the rank, the RREF and the solutions of the rows."""
    out = []
    for row in rows:
        mult = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * mult) for x in row])
    return out


def random_primitive_direction(rng: random.Random, k: int, bound: int = 3):
    from math import gcd

    from latticejets.polytope import Direction

    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(k))
        if not any(v):
            continue
        g = 0
        for x in v:
            g = gcd(g, x)
        if g == 1:
            return Direction(v)


def random_unimodular(rng: random.Random, k: int, steps: int = 5,
                      shear_bound: int = 3) -> linalg.IntMatrix:
    """Random unimodular matrix as a product of shears and signed swaps.

    The steps often cancel or leave the matrix monomial: for k = 3 about one
    draw in five is a signed permutation, which only permutes and flips the
    axes. ``random_unimodular_off_axes`` redraws those. The draws stay as
    they are, since ``test_classify_json_digest`` pins a corpus made with them.
    """
    u = linalg.identity(k)
    for _ in range(steps):
        i, j = rng.sample(range(k), 2)
        kind = rng.randrange(3)
        m = [[1 if a == b else 0 for b in range(k)] for a in range(k)]
        if kind == 0:
            m[i][j] = rng.randint(-shear_bound, shear_bound)
        elif kind == 1:
            m[i][i] = 0
            m[j][j] = 0
            m[i][j] = 1
            m[j][i] = -1
        else:
            m[i][i] = -1
        u = linalg.mat_mul(linalg.integer_matrix(m), u)
    return u


def random_unimodular_off_axes(rng: random.Random, k: int) -> linalg.IntMatrix:
    """A ``random_unimodular`` draw that is no signed permutation: some row
    has two nonzero entries, so the map mixes the coordinates."""
    while True:
        u = random_unimodular(rng, k)
        if any(sum(x != 0 for x in row) > 1 for row in u):
            return u
