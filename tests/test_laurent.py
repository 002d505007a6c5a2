import random

import pytest

from crystalpaths.laurent import LaurentPoly


def rand_poly(rng):
    return LaurentPoly({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randrange(5))})


def test_zero_coefficients_are_stripped():
    p = LaurentPoly({0: 1, 3: 0, -2: 5})
    assert p.pairs() == ((-2, 5), (0, 1))
    assert LaurentPoly({1: 2, -1: -2}) + LaurentPoly({1: -2, -1: 2}) == 0


def test_construction_from_pairs_accumulates():
    assert LaurentPoly([(1, 2), (1, 3), (0, -1)]) == LaurentPoly({1: 5, 0: -1})


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})
    with pytest.raises(TypeError):
        LaurentPoly({0.5: 1})


def test_monomials_and_degrees():
    m = LaurentPoly.q_power(-3, 4)
    assert len(m.pairs()) == 1 and m.pairs() == ((-3, 4),)
    assert len(LaurentPoly.zero().pairs()) != 1


def test_int_equality_and_hash():
    assert LaurentPoly.one() == 1
    assert LaurentPoly.zero() == 0
    assert LaurentPoly({0: 7}) == 7
    assert hash(LaurentPoly({0: 7})) == hash(7)
    assert LaurentPoly({1: 1}) != 1


def test_evaluation():
    p = LaurentPoly({-1: 2, 0: 1, 2: 3})
    assert p(1) == 6
    assert p(-1) == 2
    with pytest.raises(ZeroDivisionError):
        p(0)


def test_ring_axioms_randomized():
    rng = random.Random(20240901)
    one = LaurentPoly.one()
    for _ in range(200):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * one == a


def test_immutability():
    p = LaurentPoly.one()
    with pytest.raises(AttributeError):
        p._coeffs = {}
