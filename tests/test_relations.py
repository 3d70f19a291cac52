"""Metamorphic relations: the screen under weight orders, unimodular images
and the reduction of weights that share a factor, and the 3-D lattice width
under dilation and unimodular images."""

import random
from itertools import combinations, permutations
from math import gcd

from latticejets import linalg
from latticejets.polytope import Direction, lattice_width, unimodular_image
from latticejets.screen import corollary_check
from latticejets.wps import load_table, rows_by_hash, screen
from tests.conftest import (random_full_dim_polytope, random_unimodular,
                            random_unimodular_off_axes)


def test_weight_orders_keep_m_verdict_and_witness():
    for row in rows_by_hash(load_table(), 12):
        for order in permutations(row.weights):
            rep = screen(order)
            assert (rep.m, rep.verdict, rep.corollary.verified) == \
                (row.m, "nef_not_semiample", True), order


def test_unimodular_images_keep_the_obstruction():
    # <U x + t, U^-T v> = <x, v> + <t, U^-T v>: the image has the same levels, shifted
    rng = random.Random(43)
    for row in rows_by_hash(load_table(), 15):
        rep = screen(row.weights)
        base = rep.corollary
        expected = (base.cond1, base.cond2, base.cond3, base.verified, base.lw,
                    len(base.slice_config))
        assert expected[:5] == (True, True, True, True, row.m)
        for _ in range(3):
            v = rep.direction
            while sum(x != 0 for x in v.coords) < 2:  # an image direction off every axis
                u = random_unimodular(rng, 3)
                inv_t = linalg.transpose(linalg.inverse_unimodular(u))
                v = Direction(linalg.mat_vec(inv_t, rep.direction.coords))
            t = tuple(rng.randint(-20, 20) for _ in range(3))
            moved = corollary_check(unimodular_image(rep.projected, u, t), v)
            assert (moved.cond1, moved.cond2, moved.cond3, moved.verified, moved.lw,
                    len(moved.slice_config)) == expected, (row.weights, u, t)


# the hits of scan_weights(30) in which three weights share a factor d, with
# the table row that P(a, db, dc, de) = P(a, b, c, e) reduces them to
ILL_FORMED_HITS = {
    (7, 22, 26, 30): (7, 11, 13, 15),
    (11, 14, 26, 30): (7, 11, 13, 15),
    (13, 14, 22, 30): (7, 11, 13, 15),
    (14, 15, 22, 26): (7, 11, 13, 15),
    (17, 18, 20, 26): (9, 10, 13, 17),
    (17, 22, 24, 26): (11, 12, 13, 17),
}


def _reduced(weights):
    """Divide the three weights that share a factor d > 1 by d, and sort."""
    for i, a in enumerate(weights):
        rest = weights[:i] + weights[i + 1:]
        d = gcd(*rest)
        if d > 1:
            return tuple(sorted((a,) + tuple(x // d for x in rest)))
    return weights


def test_ill_formed_hits_reduce_to_table_rows_with_the_same_m():
    table = {row.weights: row.m for row in load_table()}
    for weights, row in ILL_FORMED_HITS.items():
        assert _reduced(weights) == row and row in table
        rep = screen(weights)
        assert (rep.verdict, rep.m) == ("nef_not_semiample", table[row]), weights
    assert sorted(table[row] for row in ILL_FORMED_HITS.values()) == [572] * 4 + [702, 816]


# the well-formed hits of scan_weights(30) that are not table rows, with their m
BEYOND_PUBLISHED_TABLE = {
    (7, 22, 25, 30): 220, (9, 22, 23, 25): 2250, (9, 22, 26, 29): 1276,
    (10, 16, 19, 21): 735, (10, 22, 23, 27): 1215, (10, 24, 27, 29): 522,
    (11, 13, 20, 21): 1386, (11, 16, 23, 25): 2000, (11, 19, 25, 29): 2552,
    (11, 19, 28, 29): 2755, (12, 19, 23, 29): 2436, (13, 14, 22, 29): 1015,
    (13, 16, 25, 27): 2457, (13, 17, 19, 22): 1768, (13, 17, 20, 25): 425,
    (13, 17, 21, 23): 1785, (13, 19, 25, 28): 2375, (13, 23, 28, 29): 3289,
    (15, 22, 23, 27): 920, (16, 19, 29, 30): 1672, (17, 18, 21, 26): 442,
    (17, 20, 27, 28): 918, (17, 24, 28, 29): 986, (18, 20, 21, 29): 580,
    (20, 21, 25, 29): 725, (22, 23, 25, 30): 460,
}


def test_hits_beyond_the_published_table_screen_with_their_m():
    table = {row.weights for row in load_table()}
    assert len(BEYOND_PUBLISHED_TABLE) == 26
    for weights, m in BEYOND_PUBLISHED_TABLE.items():
        assert weights not in table
        assert all(gcd(*three) == 1 for three in combinations(weights, 3)), weights
        rep = screen(weights)
        assert (rep.verdict, rep.m) == ("nef_not_semiample", m), weights


def test_3d_lattice_width_scales_under_dilation():
    rng = random.Random(61)
    for _ in range(30):
        p = random_full_dim_polytope(rng, 3)
        base = lattice_width(p)
        assert base.certified, p
        for r in (2, 3):
            scaled = lattice_width(p.dilate(r))
            assert (scaled.width, scaled.certified) == (r * base.width, True), (p, r)


def test_3d_lattice_width_is_unimodular_invariant():
    rng = random.Random(67)
    for _ in range(30):
        p = random_full_dim_polytope(rng, 3)
        u = random_unimodular_off_axes(rng, 3)
        t = tuple(rng.randint(-20, 20) for _ in range(3))
        base, moved = lattice_width(p), lattice_width(unimodular_image(p, u, t))
        assert base.certified, p
        assert (moved.width, moved.certified) == (base.width, True), (p, u, t)
