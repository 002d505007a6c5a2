import itertools
import random

import pytest
from reference_weights import (
    AffineWeylElement,
    perm_apply,
    perm_compose,
    perm_identity,
    perm_inverse,
    reflect_weight,
    theta_vector,
)

from crystalpaths.weights import (
    LevelWeight,
    dot,
    equal_mod_ones,
    perm_sign,
    rho_vector,
    times_reflection,
    vadd,
)


def rand_sum_zero(rng, n):
    head = [rng.randint(-3, 3) for _ in range(n - 1)]
    return tuple(head + [-sum(head)])


def rand_level_weight(rng, n):
    return LevelWeight(rng.randint(0, 3), tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(-3, 3))


def test_dot_examples():
    theta = theta_vector(3)
    assert dot(theta, theta) == 2
    assert dot((0, 0, 0), (5, -1, 7)) == 0
    assert dot(rho_vector(3), (1, 0, -1)) == 2
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))


def test_dot_symmetric_bilinear_randomized():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        a = tuple(rng.randint(-5, 5) for _ in range(n))
        b = tuple(rng.randint(-5, 5) for _ in range(n))
        c = tuple(rng.randint(-5, 5) for _ in range(n))
        k = rng.randint(-3, 3)
        assert dot(a, b) == dot(b, a)
        assert dot(a, vadd(b, c)) == dot(a, b) + dot(a, c)
        assert dot(tuple(k * x for x in a), b) == k * dot(a, b)


def test_perm_utilities():
    p = (2, 3, 1)
    assert perm_apply(p, (10, 20, 30)) == (30, 10, 20)
    assert perm_compose(p, perm_inverse(p)) == perm_identity(3)
    assert perm_sign(perm_identity(4)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((2, 3, 1)) == 1


def test_level_weight_pairings_and_dominance():
    lam = LevelWeight.vacuum(3, 2)
    assert [lam.pairing(i) for i in range(3)] == [2, 0, 0]
    assert lam.is_dominant()
    fund = LevelWeight.fundamental(2, 3)
    assert fund.finite == (1, 1, 0)
    assert [fund.pairing(i) for i in range(3)] == [0, 0, 1]
    assert not LevelWeight(1, (0, 2), 0).is_dominant()


def test_level_weight_reflection():
    lam = LevelWeight(1, (0, 0), 0)
    r0 = reflect_weight(lam, 0)
    assert r0.finite == (1, -1) and r0.delta == -1
    assert reflect_weight(r0, 0) == lam
    r1 = reflect_weight(LevelWeight(2, (3, 1, 0), 5), 2)
    assert r1.finite == (3, 0, 1) and r1.delta == 5


def test_translate_action_example():
    w = AffineWeylElement((1, -1), perm_identity(2))
    lam = LevelWeight(1, (0, 0), 0)
    out = w.act(lam)
    assert out.finite == (1, -1) and out.delta == -1 and out.level == 1
    # identity and zero translation
    assert AffineWeylElement.identity(2).act(lam) == lam
    swap_only = AffineWeylElement((0, 0), (2, 1))
    acted = swap_only.act(LevelWeight(1, (5, 3), 2))
    assert acted == LevelWeight(1, (3, 5), 2)


def test_compose_reflection_examples():
    e = AffineWeylElement.identity(2)
    r1 = e.compose_reflection(1)
    assert r1.beta == (0, 0) and r1.tau == (2, 1) and r1.sign == -1
    r0 = e.compose_reflection(0)
    assert r0.beta == (1, -1) and r0.tau == (2, 1) and r0.sign == -1
    for i in (0, 1):
        assert e.compose_reflection(i).compose_reflection(i) == e


def test_sign_flips_and_translations_even():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        w = AffineWeylElement(rand_sum_zero(rng, n), tuple(rng.sample(range(1, n + 1), n)))
        for i in range(n):
            assert w.compose_reflection(i).sign == -w.sign
    assert AffineWeylElement((2, -1, -1), perm_identity(3)).sign == 1


def test_compose_reflection_is_equivariant():
    # acting with w r_i equals acting with w after reflecting the weight
    rng = random.Random(13)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        w = AffineWeylElement(rand_sum_zero(rng, n), tuple(rng.sample(range(1, n + 1), n)))
        lam = rand_level_weight(rng, n)
        for i in range(n):
            assert w.compose_reflection(i).act(lam) == w.act(reflect_weight(lam, i))


def test_times_reflection_matches_compose_reflection():
    """The pairing's tuple arithmetic for t_beta tau r_i agrees with the
    validated element, for every i, every tau at n <= 5 and random beta."""
    rng = random.Random(17)
    for n in (2, 3, 4, 5):
        for tau in itertools.permutations(range(1, n + 1)):
            beta = rand_sum_zero(rng, n)
            for i in range(n):
                w = AffineWeylElement(beta, tau).compose_reflection(i)
                assert times_reflection(beta, tau, i) == (w.beta, w.tau), (beta, tau, i)


def test_validation():
    with pytest.raises(ValueError):
        AffineWeylElement((1, 0), perm_identity(2))
    with pytest.raises(ValueError):
        AffineWeylElement((0, 0), (1, 1))
    with pytest.raises(ValueError):
        LevelWeight(1, (0,), 0)


def test_equal_mod_ones():
    assert equal_mod_ones((2, 1, 0), (5, 4, 3))
    assert not equal_mod_ones((2, 1, 0), (5, 4, 4))
