import itertools
import random

import pytest

from reference_straighten import is_normal, normalize_by_steps, straighten_step

from crystalpaths.straighten import SchurSymbol, normalize
from crystalpaths.weights import LevelWeight, rho_vector, vadd


def test_step_examples():
    assert straighten_step(SchurSymbol((0, 0), 1), 1) == SchurSymbol((-1, 1), 1, -1, 0)
    assert straighten_step(SchurSymbol((2, -2), 1), 0) == SchurSymbol((0, 0), 1, -1, -2)
    wide = straighten_step(SchurSymbol((1, 0, -1), 2), 0)
    assert wide.alpha == (2, 0, -2) and wide.qpow == 2 + 1 - 1 + (-1)


def test_step_is_an_involution():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.choice([2, 3, 4])
        sym = SchurSymbol(tuple(rng.randint(-5, 5) for _ in range(n)), rng.randint(1, 3))
        i = rng.randrange(n)
        assert straighten_step(straighten_step(sym, i), i) == sym


def test_normal_inputs_are_fixed():
    for alpha in ((0, 0), (1, 0), (2, 1, 1)):
        n = len(alpha)
        sym = SchurSymbol(alpha, 2)
        assert is_normal(sym)
        assert normalize(sym) == (1, 0, alpha)


def test_normalize_examples():
    assert normalize(SchurSymbol((-1, 1), 1)) == (-1, 0, (0, 0))
    assert normalize(SchurSymbol((2, -2), 1)) == (-1, -2, (0, 0))
    # shifted entries colliding modulo level + rank annihilate
    assert normalize(SchurSymbol((1, 2), 1)) is None  # mu = (2, 2)
    assert normalize(SchurSymbol((3, 1), 1)) is None  # mu = (4, 1), equal mod 3
    assert normalize(SchurSymbol((-1, -1, 1), 1)) is None


def test_normalize_agrees_with_rewriting_on_windows():
    for n, ell in ((2, 1), (2, 2), (3, 1)):
        width = ell + n
        for alpha in itertools.product(range(-width, width + 1), repeat=n):
            sym = SchurSymbol(alpha, ell)
            assert normalize(sym) == normalize_by_steps(sym)


def test_rewrite_steps_are_sound_for_normalize():
    rng = random.Random(42)
    for _ in range(400):
        n = rng.choice([2, 3])
        sym = SchurSymbol(tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(1, 2))
        i = rng.randrange(n)
        assert normalize(sym) == normalize(straighten_step(sym, i))


def test_random_schedules_are_confluent():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.choice([2, 3])
        sym = SchurSymbol(tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(1, 2))
        target = normalize(sym)
        walk = sym
        for _ in range(rng.randrange(10)):
            walk = straighten_step(walk, rng.randrange(n))
        assert normalize(walk) == target


def test_zero_detection_matches_fixed_points():
    # a vanishing symbol always rewrites onto a move fixed point
    for n, ell in ((2, 1), (3, 1)):
        width = ell + n
        for alpha in itertools.product(range(-width, width + 1), repeat=n):
            sym = SchurSymbol(alpha, ell)
            closed = normalize(sym)
            mu = vadd(alpha, rho_vector(n))
            collision = len({x % (ell + n) for x in mu}) < n
            assert (closed is None) == collision


def test_accumulated_bookkeeping():
    sym = SchurSymbol((0, 0), 1, sign=-1, qpow=5)
    sign, qpow, beta = normalize(sym)
    assert (sign, qpow, beta) == (-1, 5, (0, 0))


def test_level_validation():
    with pytest.raises(ValueError):
        SchurSymbol((0, 0), 0)
    with pytest.raises(ValueError):
        SchurSymbol((0, 0), 1, sign=2)
    with pytest.raises(ValueError):
        straighten_step(SchurSymbol((0, 0, 0), 1), 3)


def test_pi_on_character():
    """The level-shifted projection pi of one exponential, as normalize
    computes it: the identity on a dominant weight of the level, zero on a
    collision modulo l + n, and a dominant weight with a sign otherwise."""
    assert normalize(SchurSymbol((0, 0), 1)) == (1, 0, (0, 0))
    assert normalize(SchurSymbol((1, 2), 1)) is None
    sign, qpow, beta = normalize(SchurSymbol((-1, 1, 0), 2))
    assert sign == -1 and LevelWeight(2, beta, 0).is_dominant()


def test_dominant_window_bound():
    # every normal form lies inside the level window
    rng = random.Random(44)
    for _ in range(300):
        n = rng.choice([2, 3])
        ell = rng.randint(1, 3)
        sym = SchurSymbol(tuple(rng.randint(-6, 6) for _ in range(n)), ell)
        nf = normalize(sym)
        if nf is None:
            continue
        _, _, beta = nf
        assert all(beta[i] >= beta[i + 1] for i in range(n - 1))
        assert beta[0] - beta[-1] <= ell
