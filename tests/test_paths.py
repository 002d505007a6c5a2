import itertools
import random

import pytest
import reference_crystal as rc
import reference_paths as rp
from reference_crystal import combine
from reference_paths import (
    classical_dimension,
    classically_restricted_paths,
    enumerate_paths,
    is_classically_restricted,
    is_level_restricted,
    level_restricted_paths,
    weight_out,
)

from crystalpaths import tableaux as tx
from crystalpaths.paths import Path, format_path, normalize_content, parse_path
from crystalpaths.tableaux import RectShape, Tableau
from crystalpaths.weights import LevelWeight


def boxes(n, *letters):
    return Path(n, tuple(Tableau(n, ((x,),)) for x in letters))


def rand_path(rng, max_len=4):
    n = rng.choice([2, 3])
    length = rng.randint(1, max_len)
    shapes = [RectShape(rng.randint(1, n - 1), rng.randint(1, 2)) for _ in range(length)]
    pools = [tx.enumerate_tableaux(s, n) for s in shapes]
    return Path(n, tuple(rng.choice(pool) for pool in pools))


def test_tensor_statistics_example():
    p = boxes(2, 1, 1)
    assert rp.phi(p, 1) == 2 and rp.eps(p, 1) == 0


def test_formal_highest_vector_neutral_at_level_zero():
    # restriction folds the highest vector of Lambda as the statistics
    # (0, <h_i, Lambda>); at level zero they leave a path's statistics as they are
    zero = LevelWeight(0, (0, 0), 0)
    p = boxes(2, 2, 1)
    for i in range(2):
        u = (0, zero.pairing(i))
        assert u == (0, 0)
        assert combine((rp.eps(p, i), rp.phi(p, i)), u) == (rp.eps(p, i), rp.phi(p, i))
    assert is_level_restricted(Path(2, ()), zero)


def test_formal_highest_vector_requires_dominant():
    with pytest.raises(ValueError):
        is_level_restricted(Path(2, ()), LevelWeight(1, (0, 2), 0))


def test_phi_minus_eps_matches_weight_randomized():
    rng = random.Random(500)
    for _ in range(500):
        p = rand_path(rng)
        c = p.weight()
        for i in range(p.n):
            expected = c[-1] - c[0] if i == 0 else c[i - 1] - c[i]
            assert rp.phi(p, i) - rp.eps(p, i) == expected


def test_lowering_resolution_example():
    p = boxes(2, 1, 1)
    assert rp.f(p, 1) == boxes(2, 1, 2)
    assert rp.f(boxes(2, 1, 2), 1) == boxes(2, 2, 2)


def test_partial_bijection_randomized():
    rng = random.Random(501)
    for _ in range(500):
        p = rand_path(rng)
        i = rng.randrange(p.n)
        down = rp.f(p, i)
        if down is not None:
            assert rp.e(down, i) == p


def test_string_lengths_randomized():
    rng = random.Random(502)
    for _ in range(200):
        p = rand_path(rng, max_len=3)
        i = rng.randrange(p.n)
        walk = p
        for _ in range(rp.phi(p, i)):
            walk = rp.f(walk, i)
            assert walk is not None
        assert rp.f(walk, i) is None


def _right_assoc_stats(factors, i):
    acc = (0, 0)
    for t in reversed(factors):
        acc = combine((rc.eps(t, i), rc.phi(t, i)), acc)
    return acc


def _right_assoc_e(path, i):
    # two-factor rule applied with the grouping b_L (x) (rest)
    def rec(factors):
        if len(factors) == 1:
            t = rc.e(factors[0], i)
            return None if t is None else (t,)
        head, rest = factors[0], factors[1:]
        rest_eps, rest_phi = _right_assoc_stats(rest, i)
        if rest_phi >= rc.eps(head, i):
            moved = rec(rest)
            return None if moved is None else (head,) + moved
        t = rc.e(head, i)
        return None if t is None else (t,) + rest

    eps_total = combine((rc.eps(path.factors[0], i), rc.phi(path.factors[0], i)),
                        _right_assoc_stats(path.factors[1:], i))[0] if len(path.factors) > 1 else rc.eps(path.factors[0], i)
    if eps_total == 0:
        return None
    moved = rec(path.factors)
    return None if moved is None else Path(path.n, moved)


def test_fold_associativity_exhaustive():
    for n in (2, 3):
        shape = RectShape(1, 1)
        for length in (2, 3):
            for p in enumerate_paths(n, (shape,) * length):
                for i in range(n):
                    left = (rp.eps(p, i), rp.phi(p, i))
                    right = _right_assoc_stats(p.factors, i)
                    assert left == right
                    assert rp.e(p, i) == _right_assoc_e(p, i)


def test_level_restriction_example():
    lam = LevelWeight.vacuum(2, 1)
    restricted = [
        p
        for p in enumerate_paths(2, (RectShape(1, 1),) * 2)
        if is_level_restricted(p, lam)
        and weight_out(p, lam).same_classical_weight(lam)
    ]
    assert restricted == [boxes(2, 2, 1)]


def test_classical_restriction_follows_tensor_rule():
    # with the right-to-left convention the strict pattern 2|1 is highest
    assert is_classically_restricted(boxes(2, 2, 1))
    assert is_classically_restricted(boxes(2, 1, 1))
    assert not is_classically_restricted(boxes(2, 1, 2))


def test_level_restricted_stream():
    lam = LevelWeight.vacuum(2, 1)
    found = list(level_restricted_paths(2, (RectShape(1, 1),) * 2, lam, lam))
    assert found == [boxes(2, 2, 1)]
    other = LevelWeight.fundamental(1, 2)
    assert list(level_restricted_paths(2, (RectShape(1, 1),) * 2, lam, other)) == []


def test_level_restriction_implies_classical_and_zero_bound():
    for n, ell in ((2, 1), (2, 2), (3, 1)):
        lam = LevelWeight.vacuum(n, ell)
        for p in enumerate_paths(n, (RectShape(1, 1),) * 3):
            if is_level_restricted(p, lam):
                assert is_classically_restricted(p)
                assert rp.eps(p, 0) <= lam.pairing(0)


def test_level_restriction_monotone_in_level():
    for n in (2, 3):
        for ell in (1, 2):
            lam = LevelWeight.vacuum(n, ell)
            lifted = LevelWeight.vacuum(n, ell + 1)
            for p in enumerate_paths(n, (RectShape(1, 1),) * 3):
                if is_level_restricted(p, lam):
                    assert is_level_restricted(p, lifted)


def test_level_restriction_validation():
    p = boxes(2, 1, 1)
    with pytest.raises(ValueError):
        is_level_restricted(p, LevelWeight(1, (0, 2), 0))
    wide = Path(2, (Tableau(2, ((1, 1),)),))
    with pytest.raises(ValueError):
        is_level_restricted(wide, LevelWeight.vacuum(2, 1))


def test_empty_path():
    lam = LevelWeight.vacuum(3, 2)
    empty = Path(3, ())
    assert is_level_restricted(empty, lam)
    assert weight_out(empty, lam).same_classical_weight(lam)
    assert list(enumerate_paths(3, ())) == [empty]


def test_classically_restricted_brute_force():
    shapes = (RectShape(1, 1),) * 2
    assert list(classically_restricted_paths(2, shapes, (2, 0))) == [boxes(2, 1, 1)]
    assert list(classically_restricted_paths(2, shapes, (1, 1))) == [boxes(2, 2, 1)]
    assert list(classically_restricted_paths(2, shapes, (0, 2))) == []


def test_weight_bookkeeping_against_dimensions():
    # restricted paths weighted by irreducible dimensions exhaust the product
    for n in (2, 3):
        for length in range(1, 5):
            shapes = (RectShape(1, 1),) * length
            total = 0
            for lam in itertools.product(range(length + 1), repeat=n):
                if sum(lam) != length or any(lam[i] < lam[i + 1] for i in range(n - 1)):
                    continue
                count = len(list(classically_restricted_paths(n, shapes, lam)))
                total += count * classical_dimension(lam, n)
            assert total == n**length


def test_path_text_round_trip():
    p = parse_path("2|1", 2)
    assert p == boxes(2, 2, 1)
    assert format_path(p) == "2|1"
    q = parse_path("1,1/2,3|2", 3)
    assert q.factors[0].rows == ((1, 1), (2, 3))
    assert parse_path(format_path(q), 3) == q
    assert parse_path("", 3) == Path(3, ())
    assert format_path(Path(3, ())) == ""


def test_normalize_content():
    assert normalize_content((2, 1), 3) == (2, 1, 0)
    assert normalize_content((2, 1, 0), 3) == (2, 1, 0)
    with pytest.raises(ValueError):
        normalize_content((1, 1, 1, 1), 3)
