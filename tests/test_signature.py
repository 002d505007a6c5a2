"""The signature rule against the literal folds of reference_crystal: the
bracket of unit signs and the two-factor sides, the string move
f_i^k / e_i^-k, and the level-zero pairing's move s_i e_i, both as the
general string move of the reference and as the pairing's bracket of
column signs (pairing._column_move)."""

import itertools

import reference_crystal as rc
import reference_paths as rp
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest
from test_bosonic import PAIRING_GRID

from crystalpaths import bosonic, energy, pairing, tableaux
from crystalpaths.kostka import CrystalSpec
from crystalpaths.paths import Path
from crystalpaths.signature import CertificateError, bracket, lowering_side, raising_side
from crystalpaths.tableaux import RectShape
from crystalpaths.weights import LevelWeight, guard_code

stat_lists = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6)
unit_words = st.lists(st.sampled_from((1, -1, 0)), max_size=12)


@st.composite
def index_paths(draw):
    """(crystals, path of element indices) with n <= 5 and one to five
    factors of rectangles with at most four boxes and two columns: 1x1,
    2x1, 3x1, 4x1, 1x2 and 2x2, as the rank allows."""
    n = draw(st.integers(2, 5))
    kinds = [RectShape(r, c) for r in range(1, n) for c in (1, 2) if r * c <= 4]
    shapes = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5))
    crystals = [tableaux.RectCrystal(n, s) for s in shapes]
    return crystals, tuple(draw(st.integers(0, len(c.elements) - 1)) for c in crystals)


def as_path(crystals, path):
    return Path(crystals[0].n, tuple(c.elements[x] for c, x in zip(crystals, path)))


@settings(max_examples=300, deadline=None, database=None)
@given(unit_words)
def test_bracket_matches_literal_folds(signs):
    """On random words of up to twelve unit signs, each a factor with
    (eps, phi) = (1, 0) for a -, (0, 1) for a + and (0, 0) for a 0, the
    bracket finds as many free - and + signs as the folded eps and phi, the
    leftmost free - where the literal fold raises and the rightmost free +
    where it lowers, and exactly the signs that the whole string moves of
    the reference change."""
    stats = [(int(s < 0), int(s > 0)) for s in signs]
    plus, minus = bracket(signs)
    assert (len(minus), len(plus)) == rc.fold_stats(stats)
    assert (minus[0] if minus else None) == rc.raising_index(stats)
    assert (plus[-1] if plus else None) == rc.lowering_index(stats)
    assert plus == [j for j, step in enumerate(rc.string_steps(stats, len(plus))) if step]
    assert minus == [j for j, step in enumerate(rc.string_steps(stats, -len(minus))) if step]


@settings(max_examples=300, deadline=None, database=None)
@given(stat_lists)
def test_index_folds_match_literal_folds(stats):
    """raising_side and lowering_side equal the accumulate folds on every
    two adjacent factors, and the string move to the mirror point equals
    the literal reflection, on random statistics of up to six factors."""
    for left, right in zip(stats, stats[1:]):
        assert raising_side(left, right) == rc.raising_index([left, right])
        assert lowering_side(left, right) == rc.lowering_index([left, right])
    eps, phi = rc.fold_stats(stats)
    assert rc.string_steps(stats, phi - eps) == rc.reflection_steps(stats)


@settings(max_examples=300, deadline=None, database=None)
@given(stat_lists)
def test_string_steps_match_single_steps_on_statistics(stats):
    """Every string move, up to one step past each end of the string, equals
    |k| single steps of the literal rule, each moving one unit between eps
    and phi of the factor that the fold points at; past the end it is None."""
    eps, phi = rc.fold_stats(stats)
    for k in range(-eps - 1, phi + 2):
        walk, steps = list(stats), [0] * len(stats)
        for _ in range(abs(k)):
            j = (rc.lowering_index if k > 0 else rc.raising_index)(walk)
            if j is None:
                steps = None
                break
            e, p = walk[j]
            walk[j], steps[j] = ((e + 1, p - 1), steps[j] + 1) if k > 0 else ((e - 1, p + 1), steps[j] - 1)
        assert rc.string_steps(stats, k) == steps, k


@settings(max_examples=150, deadline=None, database=None)
@given(index_paths(), st.data())
def test_string_steps_match_repeated_operators(case, data):
    """The string move of an index path, applied factor by factor through
    RectCrystal.move, equals k-fold Path f_i (k > 0) or e_i (k < 0) of the
    literal reference, and is None exactly when that runs off the string."""
    crystals, path = case
    i = data.draw(st.integers(0, crystals[0].n - 1))
    stats = [(c.eps[i][x], c.phi[i][x]) for c, x in zip(crystals, path)]
    eps, phi = rc.fold_stats(stats)
    k = data.draw(st.integers(-eps - 1, phi + 1))
    want = as_path(crystals, path)
    for _ in range(abs(k)):
        want = (rp.f if k > 0 else rp.e)(want, i)
        if want is None:
            break
    steps = rc.string_steps(stats, k)
    if want is None:
        assert steps is None
    else:
        moved = tuple(c.move(x, i, s) for c, x, s in zip(crystals, path, steps))
        assert as_path(crystals, moved) == want


def path_content(crystals, path):
    return [sum(column) for column in zip(*(c.content[x] for c, x in zip(crystals, path)))]


def moved_path(crystals, path, i):
    """rc.string_raise_and_reflect as a tuple path, None where e_i kills it,
    after checking that it names exactly the factors it moves."""
    stats = [(c.eps[i][x], c.phi[i][x]) for c, x in zip(crystals, path)]
    found = rc.string_raise_and_reflect(crystals, path, i, stats, path_content(crystals, path))
    if found is None:
        return None
    moved, changed = found
    assert changed == [j for j, (a, b) in enumerate(zip(path, moved)) if a != b]
    return tuple(moved)


@settings(max_examples=150, deadline=None, database=None)
@given(index_paths())
def test_raise_and_reflect_matches_literal_reference(case):
    """s_i e_i as one string move equals a raising followed by the literal
    reflection, for every i, None included."""
    crystals, path = case
    for i in range(crystals[0].n):
        assert moved_path(crystals, path, i) == rc.raise_and_reflect(crystals, path, i)


def test_raise_and_reflect_exhaustive_on_mixed_products():
    """Every path and every i of two mixed products with 1x2 and 2x2
    factors; both the killed (eps_i = 0) and the moved cases occur."""
    seen = set()
    for n, shapes in ((3, ("1x2", "2x2", "1x1")), (4, ("2x1", "1x2", "2x2"))):
        crystals = [tableaux.RectCrystal(n, RectShape.parse(s)) for s in shapes]
        for path in itertools.product(*(range(len(c.elements)) for c in crystals)):
            for i in range(n):
                got = moved_path(crystals, path, i)
                assert got == rc.raise_and_reflect(crystals, path, i), (n, shapes, path, i)
                seen.add(got is None)
    assert seen == {True, False}


def column_move_args(crystals, i):
    """The i-signs, f_i arrays and e_i arrays that the pairing hands
    pairing._column_move for these factor crystals."""
    return ([tuple(p - e for e, p in zip(c.eps[i], c.phi[i])) for c in crystals],
            [c.f[i] for c in crystals], [c.e[i] for c in crystals])


def string_move(crystals, path, i, k):
    """f_i^k (k > 0) or e_i^-k (k <= 0) of a path by the reference string
    move and RectCrystal.move, with the factors it moves; None when the
    string ends first."""
    steps = rc.string_steps([(c.eps[i][x], c.phi[i][x]) for c, x in zip(crystals, path)], k)
    if steps is None:
        return None
    return ([c.move(x, i, s) for c, x, s in zip(crystals, path, steps)],
            [j for j, s in enumerate(steps) if s])


def test_column_move_matches_string_steps_on_the_pairing_grid():
    """On every path and every i of every column product of the pairing's
    grid, the bracket pass moving s_i e_i b = f_i^(<h_i, content> + 1) b
    equals the reference string move, the moved factors included: the
    killed case (None), the k <= 0 case and the moved case all occur."""
    seen = set()
    for n, shapes in PAIRING_GRID:
        crystals = [tableaux.RectCrystal(n, s) for s in shapes]
        args = [column_move_args(crystals, i) for i in range(n)]
        for path in itertools.product(*(range(len(c.elements)) for c in crystals)):
            content = path_content(crystals, path)
            for i in range(n):
                k = content[i - 1] - content[i] + 1
                got = pairing._column_move(*args[i], path, k)
                assert got == string_move(crystals, path, i, k), (n, shapes, path, i)
                stats = [(c.eps[i][x], c.phi[i][x]) for c, x in zip(crystals, path)]
                assert got == rc.string_raise_and_reflect(crystals, path, i, stats, content)
                seen.add("killed" if got is None else "k <= 0" if k <= 0 else "moved")
    assert seen == {"killed", "k <= 0", "moved"}


@st.composite
def column_paths(draw):
    """(crystals, path of element indices) of one to six column factors
    with n <= 5."""
    n = draw(st.integers(2, 5))
    shapes = draw(st.lists(st.integers(1, n - 1).map(lambda r: RectShape(r, 1)), min_size=1, max_size=6))
    crystals = [tableaux.RectCrystal(n, s) for s in shapes]
    return crystals, tuple(draw(st.integers(0, len(c.elements) - 1)) for c in crystals)


@settings(max_examples=150, deadline=None, database=None)
@given(column_paths())
def test_column_move_matches_string_steps_at_every_power(case):
    """On random column paths, the bracket pass equals the reference string
    move for every i and every power k from one step past the e-end of the
    string to one step past its f-end."""
    crystals, path = case
    for i in range(crystals[0].n):
        eps, phi = rc.fold_stats([(c.eps[i][x], c.phi[i][x]) for c, x in zip(crystals, path)])
        for k in range(-eps - 1, phi + 2):
            got = pairing._column_move(*column_move_args(crystals, i), path, k)
            assert got == string_move(crystals, path, i, k), (path, i, k)


@pytest.mark.parametrize("n, shapes", [(2, ("1x2",)), (3, ("1x1", "1x2"))])
def test_column_move_precondition_refuses_a_row_factor(n, shapes):
    """A 1x2 factor has elements with eps_i + phi_i = 2, two signs where the
    bracket pass reads one: a level-zero spec refuses it when it is made,
    and the certificate's column table refuses it with CertificateError,
    also under python -O."""
    shapes = tuple(RectShape.parse(s) for s in shapes)
    row = tableaux.RectCrystal(n, RectShape(1, 2))
    assert any(a + b == 2 for i in range(n) for a, b in zip(row.eps[i], row.phi[i]))
    with pytest.raises(ValueError, match="level-zero identity needs column factors"):
        CrystalSpec(n, shapes, level=0, lam=LevelWeight.vacuum(n, 0))
    with pytest.raises(CertificateError, match="not a column crystal"):
        pairing._column_table(n, RectShape(1, 2), guard_code(n, sum(s.rows * s.cols for s in shapes))[0])


def test_column_move_precondition_refuses_arrays_off_the_signs(monkeypatch):
    """A column crystal whose e_i is undefined where eps_i = 1 would send the
    bracket pass to index -1: the certificate refuses it at setup with
    CertificateError, also under python -O."""
    crystal = tableaux.RectCrystal(2, RectShape(1, 1))
    assert any(crystal.eps[1])
    monkeypatch.setattr(crystal, "e", [(-1, -1), (-1, -1)])
    pairing._column_table.cache_clear()  # so that the certificate checks the patched arrays
    spec = CrystalSpec(2, (RectShape(1, 1),) * 2, level=0, lam=LevelWeight.vacuum(2, 0))
    with pytest.raises(CertificateError, match="not a column crystal"):
        pairing._level_zero_certificate(spec)


def test_commutation_warnings_match_literal_rule():
    """commutation_hypothesis_warnings reads the side e_0 acts on from
    signature.raising_side; the literal two-factor fold gives the same
    warnings, and some are raised."""
    total = 0
    for n, ell in ((2, 1), (3, 1), (3, 2), (4, 1)):
        kinds = tuple(RectShape(r, c) for r in range(1, n) for c in range(1, ell + 1))
        for node, b0_rows in itertools.product(range(1, n), range(1, n)):
            lam = LevelWeight.fundamental(node, n)
            if ell == 2:
                lam = LevelWeight(2, tuple(a + b for a, b in zip(
                    lam.finite, LevelWeight.fundamental(n - 1, n).finite)), 0)
            spec = CrystalSpec(n, kinds, level=ell, lam=lam, b0_shape=RectShape(b0_rows, ell))
            got = bosonic.commutation_hypothesis_warnings(spec)
            assert got == literal_commutation_warnings(spec), spec
            total += len(got)
    assert total > 0


def literal_commutation_warnings(spec):
    """The commutation check with the side of each 0-raising read from the
    literal fold rc.raising_index."""
    shape, z = spec.b0()
    tail = tableaux.RectCrystal(spec.n, shape)
    b0 = tail.elements[z]
    warnings = []
    for shape in sorted(set(spec.shapes)):
        table = energy.LocalIsoTable(spec.n, shape, tail.shape)
        crystal = tableaux.RectCrystal(spec.n, shape)
        for x, b in enumerate(crystal.elements):
            if rc.raising_index([(crystal.eps[0][x], crystal.phi[0][x]), (tail.eps[0][z], tail.phi[0][z])]) != 0:
                continue
            k = x * table.width + z
            table.fill(k)
            y1, y2 = table.image1[k], table.image2[k]
            if rc.raising_index([(tail.eps[0][y1], tail.phi[0][y1]), (crystal.eps[0][y2], crystal.phi[0][y2])]) != 0:
                warnings.append("0-raising side is not preserved through the local isomorphism "
                                "at %s (x) %s" % (b, b0))
    return warnings
