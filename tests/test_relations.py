"""Metamorphic relations: the screen under weight orders and unimodular images,
and the 3-D lattice width under dilation and unimodular images."""

import random
from itertools import permutations

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
