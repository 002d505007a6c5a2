"""kostka_classical on products of single rows and of single columns against
the crystal-free Kostka-Foulkes polynomials of reference_charge.

For rows 1 x mu_j, in any order, the energy generating function of the
classically restricted paths of content lambda is q^(-n(mu)) K_{lambda mu}(q),
mu the row lengths sorted; for columns h_j x 1 it is K_{lambda^t, sort(h)}(1/q),
which vanishes when lambda^t has more parts than there are columns."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from reference_charge import conjugate, kostka_foulkes, n_statistic, partitions

from crystalpaths.kostka import CrystalSpec, kostka_classical
from crystalpaths.laurent import LaurentPoly
from crystalpaths.tableaux import RectShape


def rescaled(poly: LaurentPoly, sign: int, shift: int) -> LaurentPoly:
    """poly(q^sign) times q^shift."""
    return LaurentPoly((sign * e + shift, c) for e, c in poly.pairs())


@pytest.mark.parametrize("shape, content, want", [
    ((3,), (1, 1, 1), {3: 1}),
    ((2, 1), (1, 1, 1), {1: 1, 2: 1}),
    ((1, 1, 1), (1, 1, 1), {0: 1}),
    ((4,), (2, 1, 1), {3: 1}),
    ((3, 1), (2, 1, 1), {1: 1, 2: 1}),
    ((2, 2), (2, 1, 1), {1: 1}),
    ((2, 1, 1), (2, 1, 1), {0: 1}),
    ((1, 1, 1, 1), (2, 1, 1), {}),
    ((3, 1), (1, 1, 1, 1), {3: 1, 4: 1, 5: 1}),
    ((2, 2), (1, 1, 1, 1), {2: 1, 4: 1}),
])
def test_charge_gives_known_kostka_foulkes(shape, content, want):
    """The charge reference reproduces tabulated Kostka-Foulkes polynomials."""
    assert kostka_foulkes(shape, content) == LaurentPoly(want)


@st.composite
def row_products(draw):
    """(n, row lengths in factor order) with n <= 4 and up to four rows of
    length at most three."""
    return draw(st.integers(2, 4)), draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))


@settings(max_examples=150, deadline=None, database=None)
@given(row_products())
def test_rows_match_charge(case):
    """On rows 1 x mu_j in any order, every content lambda reads
    q^(-n(mu)) K_{lambda mu}(q)."""
    n, lengths = case
    spec = CrystalSpec(n, tuple(RectShape(1, m) for m in lengths))
    mu = tuple(sorted(lengths, reverse=True))
    for lam in partitions(sum(lengths), n):
        want = rescaled(kostka_foulkes(lam, mu), 1, -n_statistic(mu))
        assert kostka_classical(spec, lam) == want, (n, lengths, lam)


@st.composite
def column_products(draw):
    """(n, column heights in factor order) with 3 <= n <= 5 and up to five
    columns."""
    n = draw(st.integers(3, 5))
    return n, draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=5))


@settings(max_examples=150, deadline=None, database=None)
@given(column_products())
def test_columns_match_charge(case):
    """On columns h_j x 1 in any order, every content lambda reads
    K_{lambda^t, sort(h)}(1/q), and zero when lambda^t has more parts than
    there are columns."""
    n, heights = case
    spec = CrystalSpec(n, tuple(RectShape(h, 1) for h in heights))
    h = tuple(sorted(heights, reverse=True))
    for lam in partitions(sum(heights), n):
        got = kostka_classical(spec, lam)
        assert got == rescaled(kostka_foulkes(conjugate(lam), h), -1, 0), (n, heights, lam)
        if len(conjugate(lam)) > len(heights):
            assert got == 0, (n, heights, lam)
