"""Polynomial arithmetic and the textual report format."""

from fractions import Fraction

from latticejets.poly import (MultiPoly, from_coefficients, monomials_of_degree,
                              monomials_up_to_degree)


def test_monomials_of_degree_grlex():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_monomials_up_to_degree_counts():
    assert len(monomials_up_to_degree(2, 3)) == 10
    assert monomials_up_to_degree(2, 1) == [(0, 0), (1, 0), (0, 1)]


def test_linear_form_power_matches_repeated_multiplication():
    lin = MultiPoly.affine([2, -1])
    by_mult = MultiPoly.constant(2, 1)
    for _ in range(4):
        by_mult = by_mult * lin
    assert MultiPoly.linear_form_power([2, -1], 4) == by_mult


def test_text_format():
    p = from_coefficients(2, [(2, 0), (1, 1), (0, 2), (1, 0), (0, 0)],
                          [1, 0, -1, Fraction(-1, 2), 3])
    assert p.text("w") == "w1^2 - w2^2 - 1/2*w1 + 3"
    assert p.integer_normalized().text("w") == "2*w1^2 - 2*w2^2 - w1 + 6"


def test_integer_normalized_leading_positive():
    p = from_coefficients(2, [(2, 0), (0, 2)], [Fraction(-2, 3), Fraction(4, 3)])
    q = p.integer_normalized()
    assert q.terms[(2, 0)] == 1
    assert q.terms[(0, 2)] == -2


def test_zero_text():
    assert MultiPoly(2).text() == "0"


def test_evaluate_exact():
    p = MultiPoly.affine([1, 1], -2) * MultiPoly.affine([1, -1])
    assert p.evaluate((1, 1)) == 0
    assert p.evaluate((3, 1)) == 2 * 2
    assert p.evaluate((Fraction(1, 2), Fraction(1, 2))) == Fraction(0)
