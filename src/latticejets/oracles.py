"""Independent brute-force oracles.

These deliberately avoid the main code paths: ranks and right kernels by a
textbook Gauss-Jordan on Fractions (the main routes share one fraction-free
integer elimination), kernels compared as subspaces, widths by a full scan
over a box of primitive directions in Python integers (a lower-dimensional
polytope on its quotient width), binary-form gcds through sympy. The
CLI's --oracle flag runs them next to the main algorithms and diffs the
results; the test suite freezes their values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from . import linalg
from .errors import InputError, ToolkitError
from .polytope import Direction, LatticePolytope, WidthResult, _int_arg, direction_key


def rref_reference(m):
    """RREF over Q and its pivot columns, by textbook Gauss-Jordan on Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    if not a or not a[0]:
        raise ToolkitError("degenerate input: empty matrix")
    nrows, ncols = len(a), len(a[0])
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return tuple(tuple(row) for row in a), tuple(pivots)


def rank_reference(m) -> int:
    """Rank over Q: the pivot count of the reference RREF."""
    return len(rref_reference(m)[1])


def right_kernel_reference(m):
    """Right-kernel basis from the reference RREF: one vector per free column.

    Not canonical; compare with the main kernel through ``same_span``.
    """
    red, pivots = rref_reference(m)
    ncols = len(red[0])
    out = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for row, pc in zip(red, pivots):
                v[pc] = -row[fc]
            out.append(tuple(v))
    return tuple(out)


def same_span(vectors_a, vectors_b) -> bool:
    """True iff two linearly independent lists span one subspace (reference rank)."""
    if not vectors_a and not vectors_b:
        return True
    if bool(vectors_a) != bool(vectors_b) or len(vectors_a) != len(vectors_b):
        return False
    return rank_reference(list(vectors_a) + list(vectors_b)) == len(vectors_a)


def primitive_directions(k: int, bound: int):
    """Primitive vectors in [-bound, bound]^k, one per +/- pair, sorted."""
    out = []
    for v in product(range(-bound, bound + 1), repeat=k):
        if not any(v):
            continue
        if gcd(*v) != 1:
            continue
        lead = next(x for x in v if x)
        if lead < 0:
            continue
        out.append(v)
    return sorted(out, key=direction_key)


def brute_force_width(p: LatticePolytope, bound: int = 10):
    """Exhaustive width scan over primitive directions in a coordinate box.

    Exact: the scan runs on Python integers. Directions constant on P
    (width 0) are skipped unless every one is, which happens only when P is
    a point, so a lower-dimensional P gets its quotient width: its difference
    lattice is saturated, hence a direct summand, so every primitive
    functional on it lifts to a primitive ambient direction of the same
    width, and a direction whose restriction is imprimitive is no narrower.
    Ties go to the least ``direction_key``; a ``bound`` that is not an int
    or is below 1 is an ``InputError``.
    """
    bound = _int_arg("oracle bound", bound)
    if bound < 1:
        raise InputError(f"oracle bound must be >= 1, got {bound}")
    scored = []
    for v in primitive_directions(p.dim, bound):
        vals = [sum(a * b for a, b in zip(v, x)) for x in p.vertices]
        scored.append((max(vals) - min(vals), v))
    nonconstant = [item for item in scored if item[0]] or scored
    best, direction = min(nonconstant, key=lambda item: (item[0], direction_key(item[1])))
    return best, Direction(direction)


def binary_form_gcd_degree(forms) -> int:
    """Degree of the gcd of binary forms, via sympy (independent route)."""
    import sympy

    w1, w2 = sympy.symbols("w1 w2")
    exprs = []
    for poly in forms:
        expr = 0
        for e, c in poly.terms.items():
            expr += sympy.Rational(c.numerator, c.denominator) * w1 ** e[0] * w2 ** e[1]
        exprs.append(expr)
    g = 0
    for expr in exprs:
        g = sympy.gcd(g, expr)
    return int(sympy.Poly(g, w1, w2).total_degree())


def width_oracle_agrees(p: LatticePolytope, main: WidthResult, bound: int = 10) -> dict:
    """Diff record between ``main``, the width run a caller reports, and the scan
    (``bound`` is checked as by ``brute_force_width``).

    A certified ``main`` must have the scan's width. On a full-dimensional P
    whose reported direction lies in the box it must have the scan's direction
    too, as both are the least minimizing one; below full dimension only the
    widths are compared, since the lifted direction need not be the least.
    """
    scan_width, scan_dir = brute_force_width(p, bound)
    agree = (not main.certified) or (
        main.width == scan_width
        and (not p.is_full_dim or max(map(abs, main.direction.coords)) > bound
             or main.direction == scan_dir))
    return {
        "main_width": main.width,
        "main_certified": main.certified,
        "scan_width": scan_width,
        "scan_direction": list(scan_dir.coords),
        "agree": agree,
    }


def rank_oracle_agrees(matrix) -> dict:
    main = linalg.rank(matrix)
    ref = rank_reference(matrix)
    return {"main_rank": main, "reference_rank": ref, "agree": main == ref}
