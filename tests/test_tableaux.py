import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import reference_crystal as rc
import reference_paths as rp
from reference_crystal import (
    fold_stats,
    lowering_index,
    promotion,
    promotion_inverse,
    raising_index,
    reflect,
    simple_root,
)
from reference_tableaux import brute_force_fillings
from reference_weights import theta_vector

from crystalpaths import tableaux as tx
from crystalpaths.signature import CertificateError
from crystalpaths.tableaux import (
    RectCrystal,
    RectShape,
    Tableau,
    enumerate_tableaux,
    fillings,
    format_tableau,
    highest_weight_tableau,
    parse_tableau,
)
from crystalpaths.weights import LevelWeight, vsub

SMALL_GRID = [
    (n, RectShape(k, l))
    for n in (2, 3, 4)
    for k in range(1, n)
    for l in range(1, 7)
    if k * l <= 6
]


def all_small():
    for n, shape in SMALL_GRID:
        for t in enumerate_tableaux(shape, n):
            yield n, t


def rand_tableau(rng):
    n, shape = rng.choice(SMALL_GRID)
    return rng.choice(enumerate_tableaux(shape, n))


def test_enumeration_counts():
    assert len(enumerate_tableaux(RectShape(1, 1), 2)) == 2
    assert len(enumerate_tableaux(RectShape(2, 1), 3)) == 3
    assert len(enumerate_tableaux(RectShape(2, 2), 3)) == 6
    assert {t.rows for t in enumerate_tableaux(RectShape(2, 1), 3)} == {
        ((1,), (2,)),
        ((1,), (3,)),
        ((2,), (3,)),
    }


@st.composite
def partitions(draw, cells: int = 7) -> tuple[int, ...]:
    """A partition of at most `cells` cells, sometimes with zero parts."""
    parts = []
    while cells and draw(st.booleans()):
        parts.append(draw(st.integers(1, min(cells, parts[-1] if parts else cells))))
        cells -= parts[-1]
    return tuple(parts) + (0,) * draw(st.integers(0, 2))


@settings(max_examples=150, deadline=None, database=None)
@given(partitions(), st.integers(1, 5))
@example((), 3)
@example((1, 1, 1), 2)
@example((2, 2), 5)
def test_fillings_match_brute_force(partition, n):
    """The one filler lists exactly the column-strict fillings, in sorted
    (row-word lexicographic) order: one for the empty partition, none for
    more parts than n."""
    assert list(fillings(partition, n)) == brute_force_fillings(partition, n)


def test_fillings_refuse_a_non_partition():
    with pytest.raises(ValueError, match="not a partition"):
        fillings((1, 2), 3)


def test_enumeration_rejects_tall_shapes():
    with pytest.raises(ValueError):
        enumerate_tableaux(RectShape(3, 1), 3)


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(3, ((2, 1),))  # row decreasing
    with pytest.raises(ValueError):
        Tableau(3, ((1, 1), (1, 2)))  # column not strict
    with pytest.raises(ValueError):
        Tableau(3, ((1, 4),))  # entry out of range
    with pytest.raises(ValueError):
        Tableau(3, ((1, 1), (2,)))  # ragged


def test_operator_examples():
    one = Tableau(2, ((1,),))
    two = Tableau(2, ((2,),))
    assert rc.f(one, 1) == two and rc.e(one, 1) is None
    assert rc.phi(one, 1) == 1 and rc.eps(one, 1) == 0
    b = Tableau(3, ((1, 1), (2, 2)))
    assert rc.f(b, 2) == Tableau(3, ((1, 1), (2, 3)))


def test_affine_operator_examples():
    one = Tableau(2, ((1,),))
    two = Tableau(2, ((2,),))
    assert rc.e(two, 0) is None
    assert rc.e(one, 0) == two
    assert rc.f(two, 0) == one and rc.f(one, 0) is None
    # the 0-string and 1-string together form a 2-cycle on {1, 2}
    assert rc.f(one, 1) == two and rc.f(two, 0) == one


def test_promotion_examples():
    assert promotion(Tableau(2, ((1,),))) == Tableau(2, ((2,),))
    assert promotion(Tableau(2, ((2,),))) == Tableau(2, ((1,),))
    assert promotion(Tableau(3, ((1, 2),))) == Tableau(3, ((2, 3),))


def test_promotion_order_and_inverse():
    rng = random.Random(5)
    for _ in range(50):
        t = rand_tableau(rng)
        x = t
        for _ in range(t.n):
            x = promotion(x)
        assert x == t
        assert promotion_inverse(promotion(t)) == t
        assert promotion(promotion_inverse(t)) == t


def test_promotion_rotates_content():
    for n, t in all_small():
        c = t.content()
        assert promotion(t).content() == (c[-1],) + c[:-1]


def test_promotion_conjugates_operators_exhaustively():
    for n, t in all_small():
        for i in range(n):
            down = rc.f(t, i)
            lhs = None if down is None else promotion(down)
            assert lhs == rc.f(promotion(t), (i + 1) % n)


def test_weight_axiom_exhaustively():
    for n, t in all_small():
        for i in range(n):
            down = rc.f(t, i)
            if down is None:
                continue
            drop = vsub(down.content(), t.content())
            if i == 0:
                assert drop == theta_vector(n)
            else:
                assert drop == tuple(-x for x in simple_root(i, n))


def test_phi_minus_eps_pairing_exhaustively():
    for n, t in all_small():
        c = t.content()
        for i in range(n):
            expected = c[-1] - c[0] if i == 0 else c[i - 1] - c[i]
            assert rc.phi(t, i) - rc.eps(t, i) == expected


def test_partial_bijection_and_string_lengths():
    for n, t in all_small():
        for i in range(n):
            down = rc.f(t, i)
            if down is not None:
                assert rc.e(down, i) == t
            up = rc.e(t, i)
            if up is not None:
                assert rc.f(up, i) == t
            walk, count = t, 0
            while (walk := rc.e(walk, i)) is not None:
                count += 1
            assert count == rc.eps(t, i)
            walk, count = t, 0
            while (walk := rc.f(walk, i)) is not None:
                count += 1
            assert count == rc.phi(t, i)


def literal_signature_rule(t, i):
    """Reference: (eps_i, phi_i, e_i t, f_i t) for a classical index i by the
    signature rule on the cell word, recomputed on every call."""
    k, l = t.shape
    cells = t.cells()
    stats = [(int(x == i + 1), int(x == i)) for x in cells]

    def changed(pos, value):
        if pos is None:
            return None
        word = list(cells)
        word[pos] = value
        return Tableau(t.n, [word[(k - 1 - r) * l:(k - r) * l] for r in range(k)])

    return (*fold_stats(stats), changed(raising_index(stats), i), changed(lowering_index(stats), i + 1))


def test_rect_crystal_matches_literal_rules():
    """Every array of the integer crystal equals the literal signature rule
    and promotion, elementwise, on every shape with k*l <= 6 and n <= 5;
    the inverse promotion inverts promotion and equals n-1 promotions."""
    for n in range(2, 6):
        for shape in (RectShape(k, l) for k in range(1, n) for l in range(1, 7) if k * l <= 6):
            crystal = tx.RectCrystal(n, shape)
            assert crystal is tx.RectCrystal(n, tuple(shape))
            assert crystal.elements == enumerate_tableaux(shape, n)

            def tableau(x):
                return None if x < 0 else crystal.elements[x]

            def unpromoted(t):
                for _ in range(n - 1):
                    t = t if t is None else tx._promote(t)
                return t

            for x, t in enumerate(crystal.elements):
                assert crystal.index[t] == x and crystal.content[x] == t.content()
                promoted = tx._promote(t)
                assert tableau(crystal.promotion[x]) == promoted
                assert tableau(crystal.promotion_inverse[x]) == unpromoted(t)
                assert crystal.promotion_inverse[crystal.promotion[x]] == x
                arrays = [(crystal.eps[i][x], crystal.phi[i][x], tableau(crystal.e[i][x]),
                           tableau(crystal.f[i][x])) for i in range(n)]
                eps0, phi0, up, down = literal_signature_rule(promoted, 1)
                assert arrays[0] == (eps0, phi0, unpromoted(up), unpromoted(down)), (t, 0)
                for i in range(1, n):
                    assert arrays[i] == literal_signature_rule(t, i), (t, i)


def test_unique_finds_the_perfect_element():
    """RectCrystal.unique gives the one element whose phi (or eps) equals
    the pairings of a weight, read from any iterable, and refuses values
    that no element or several elements have."""
    for n, shape, lam, stats, rows in [
        (2, (1, 1), LevelWeight.vacuum(2, 1), "phi", ((2,),)),
        (2, (1, 1), LevelWeight.fundamental(1, 2), "phi", ((1,),)),
        (3, (1, 2), LevelWeight.vacuum(3, 2), "phi", ((3, 3),)),
        (2, (1, 1), LevelWeight.fundamental(1, 2), "eps", ((2,),)),
    ]:
        crystal = RectCrystal(n, shape)
        x = crystal.unique(getattr(crystal, stats), map(lam.pairing, range(n)))
        assert crystal.elements[x] == Tableau(n, rows)
    crystal = RectCrystal(2, (1, 1))
    with pytest.raises(CertificateError, match="0 elements of B\\^1x1 have string lengths \\(2, 0\\)"):
        crystal.unique(crystal.phi, map(LevelWeight.vacuum(2, 2).pairing, range(2)))
    crystal = RectCrystal(3, (1, 1))
    with pytest.raises(CertificateError, match="2 elements of B\\^1x1"):
        crystal.unique(crystal.phi[1:2], (0,))


def test_rectangles_are_perfect():
    """B(r x l) is perfect of level l at rank n <= 5 and l <= 3: for every
    dominant weight of level l (its pairings, l split into n parts) exactly
    one element has phi equal to it, and exactly one has eps equal to it.
    So no b0 and no level-one walk in that range meets unique's refusal."""
    checks = 0
    for n, ell in itertools.product(range(2, 6), range(1, 4)):
        weights = [p for p in itertools.product(range(ell + 1), repeat=n) if sum(p) == ell]
        for rows in range(1, n):
            crystal = RectCrystal(n, (rows, ell))
            for pairings, stats in itertools.product(weights, (crystal.phi, crystal.eps)):
                matches = [x for x in range(len(crystal.elements))
                           if all(s[x] == v for s, v in zip(stats, pairings))]
                assert len(matches) == 1, (n, rows, ell, pairings)
                assert crystal.unique(stats, pairings) == matches[0]
                checks += 1
    assert checks == 738


def test_reflection():
    assert reflect(Tableau(3, ((1,),)), 1) == Tableau(3, ((2,),))
    rng = random.Random(9)
    for _ in range(200):
        t = rand_tableau(rng)
        i = rng.randrange(t.n)
        s = reflect(t, i)
        assert reflect(s, i) == t
        assert rc.phi(s, i) == rc.eps(t, i) and rc.eps(s, i) == rc.phi(t, i)


def test_zero_eps_bounded_by_ones():
    rng = random.Random(3)
    for _ in range(100):
        t = rand_tableau(rng)
        assert rc.eps(t, 0) <= t.content()[0]


def test_highest_weight_tableau():
    u = highest_weight_tableau(RectShape(2, 3), 4)
    assert u.rows == ((1, 1, 1), (2, 2, 2))
    for i in range(1, 4):
        assert rc.e(u, i) is None


def test_text_round_trip():
    t = Tableau(4, ((1, 1), (2, 3)))
    assert format_tableau(t) == "1,1/2,3"
    assert parse_tableau("1,1/2,3", 4) == t
    for n, t in all_small():
        assert parse_tableau(format_tableau(t), n) == t
    with pytest.raises(ValueError):
        parse_tableau("2,1", 3)


def test_tensor_square_connected_under_all_operators():
    # almost-perfect condition: the tensor square is connected
    from crystalpaths.paths import Path

    for n in (2, 3):
        for k in range(1, n):
            for l in range(1, 5):
                if k * l > 4:
                    continue
                pool = enumerate_tableaux(RectShape(k, l), n)
                elements = [Path(n, (a, b)) for a in pool for b in pool]
                seen = {elements[0]}
                frontier = [elements[0]]
                while frontier:
                    x = frontier.pop()
                    for i in range(n):
                        for move in (rp.e(x, i), rp.f(x, i)):
                            if move is not None and move not in seen:
                                seen.add(move)
                                frontier.append(move)
                assert len(seen) == len(elements)


@pytest.mark.parametrize("text", ["1xa", "x1", "1x", "0x1", "2x-1", "1x2x3", "12", ""])
def test_shape_parse_names_the_text_and_the_form(text):
    """Every malformed shape raises one message naming the text and the
    form KxL, where a non-integer side once raised Python's bare int()
    message."""
    with pytest.raises(ValueError) as refused:
        RectShape.parse(text)
    assert str(refused.value) == "shape must be KxL with positive integers K and L, got %r" % text


def test_shape_parse_reads_either_case_and_int_spacing():
    assert RectShape.parse("2X3") == RectShape(2, 3)
    assert RectShape.parse(" 2x1") == RectShape.parse("2 x 1 ") == RectShape(2, 1)
