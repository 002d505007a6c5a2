"""The single-pass signature rule against the literal folds of
reference_crystal: the operator indices, the statistics of the product, the
string move f_i^k / e_i^-k, and the level-zero pairing's move s_i e_i."""

import itertools

import reference_crystal as rc
import reference_paths as rp
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalpaths import bosonic, energy, tableaux
from crystalpaths.kostka import CrystalSpec
from crystalpaths.paths import Path
from crystalpaths.signature import fold_stats, lowering_index, raising_index, string_steps
from crystalpaths.tableaux import RectShape
from crystalpaths.weights import LevelWeight

stat_lists = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6)


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
@given(stat_lists)
def test_index_folds_match_literal_folds(stats):
    """raising_index, lowering_index and fold_stats equal the accumulate
    folds, and the string move to the mirror point equals the literal
    reflection, on random statistics of up to six factors."""
    assert raising_index(stats) == rc.raising_index(stats)
    assert lowering_index(stats) == rc.lowering_index(stats)
    assert fold_stats(stats) == rc.fold_stats(stats)
    eps, phi = rc.fold_stats(stats)
    assert string_steps(stats, phi - eps) == rc.reflection_steps(stats)


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
        assert string_steps(stats, k) == steps, k


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
    steps = string_steps(stats, k)
    if want is None:
        assert steps is None
    else:
        moved = tuple(c.move(x, i, s) for c, x, s in zip(crystals, path, steps))
        assert as_path(crystals, moved) == want


def moved_path(crystals, path, i):
    """bosonic._raise_and_reflect as a tuple path, None where e_i kills it,
    after checking that it names exactly the factors it moves."""
    stats = [(c.eps[i][x], c.phi[i][x]) for c, x in zip(crystals, path)]
    content = [sum(column) for column in zip(*(c.content[x] for c, x in zip(crystals, path)))]
    found = bosonic._raise_and_reflect(crystals, path, i, stats, content)
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


def test_commutation_warnings_match_literal_rule():
    """commutation_hypothesis_warnings reads the side e_0 acts on from
    eps_0(a) > phi_0(b); the literal two-factor fold gives the same
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
    (b0,) = spec.b0_tail()
    tail = tableaux.RectCrystal(spec.n, spec.resolved_b0_shape())
    z = tail.index[b0]
    warnings = []
    for shape in sorted(set(spec.shapes)):
        table = energy.local_table(spec.n, shape, tail.shape)
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
