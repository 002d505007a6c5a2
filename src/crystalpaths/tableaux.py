"""Rectangular column-strict tableaux with classical and affine crystal operators.

A tableau with entries in {1..n} carries raising and lowering operators
e_i, f_i for 1 <= i <= n-1 through the signature rule on its cells, and the
index-0 operators through conjugation by promotion, the cyclic symmetry of
the rank-n alphabet.  Each crystal B(shape) at rank n is built once, as
integer arrays over its elements (RectCrystal), promotion and its inverse
included, with -1 for an undefined operator result.  The program reads only
those arrays; the signature rule and promotion themselves run only while a
crystal is built.  The one enumeration of column-strict fillings
(:func:`fillings`) serves any partition: its rectangles are the crystal's
elements, and their contents the Schur polynomials of kostka's oracle.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from collections.abc import Iterable, Iterator

from .signature import CertificateError, Record, bracket


class RectShape(collections.namedtuple("RectShape", "rows cols")):
    __slots__ = ()

    def __str__(self):
        return "%dx%d" % (self.rows, self.cols)

    @classmethod
    def parse(cls, text: str) -> "RectShape":
        try:
            k, l = map(int, text.lower().split("x"))
        except ValueError:
            k = l = 0
        if k < 1 or l < 1:
            raise ValueError("shape must be KxL with positive integers K and L, got %r" % text)
        return cls(k, l)


class Tableau(Record):
    """Column-strict filling of a k x l rectangle with entries in {1..n}.

    Rows weakly increase left to right, columns strictly increase top to
    bottom.  Instances are immutable and hashable; ``shape`` is derived.
    """

    _fields = ("n", "rows")
    __slots__ = _fields + ("shape",)
    n: int
    rows: tuple[tuple[int, ...], ...]
    shape: RectShape

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(r) for r in rows)
        if n < 2:
            raise ValueError("rank must be at least 2")
        if not rows or not rows[0]:
            raise ValueError("tableau must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("tableau is not rectangular")
        if len(rows) >= n:
            raise ValueError("height %d must be below the rank %d" % (len(rows), n))
        for r in rows:
            for x in r:
                if not 1 <= x <= n:
                    raise ValueError("entry %d outside 1..%d" % (x, n))
            if any(r[c] > r[c + 1] for c in range(width - 1)):
                raise ValueError("row not weakly increasing: %s" % (r,))
        for up, down in zip(rows, rows[1:]):
            if any(a >= b for a, b in zip(up, down)):
                raise ValueError("column not strictly increasing")
        super().__init__(n, rows)
        object.__setattr__(self, "shape", RectShape(len(rows), width))

    def content(self) -> tuple[int, ...]:
        return filling_content(self.rows, self.n)

    def cells(self) -> tuple[int, ...]:
        """Cell word, bottom row to top row, each row left to right.

        This is the factor order (leftmost tensor factor first) under which
        the signature rule reproduces the standard crystal structure of the
        rectangle.
        """
        return tuple(x for row in reversed(self.rows) for x in row)

    def __str__(self):
        return format_tableau(self)


def format_tableau(t: Tableau) -> str:
    return "/".join(",".join(str(x) for x in row) for row in t.rows)


def parse_tableau(text: str, n: int) -> Tableau:
    rows = tuple(tuple(int(x) for x in part.split(",")) for part in text.split("/"))
    return Tableau(n, rows)


def highest_weight_tableau(shape: RectShape, n: int) -> Tableau:
    """Row r filled with the letter r: the classical highest weight element."""
    return Tableau(n, tuple((r + 1,) * shape.cols for r in range(shape.rows)))


def fillings(partition: tuple[int, ...], n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The column-strict fillings of a partition with entries in {1..n}, as
    tuples of rows, in row-word lexicographic order: rows weakly increase,
    columns strictly increase.  Zero parts are ignored; the empty partition
    has one filling, and a partition of more than n parts none."""
    partition = tuple(x for x in partition if x)
    if any(a < b for a, b in zip(partition, partition[1:])):
        raise ValueError("not a partition: %s" % (partition,))

    def fill(rows: tuple[tuple[int, ...], ...]):
        if len(rows) == len(partition):
            yield rows
            return
        above = rows[-1] if rows else (0,)
        # every entry is at least the first, which exceeds the entry above it
        for row in itertools.combinations_with_replacement(range(above[0] + 1, n + 1), partition[len(rows)]):
            if all(map(operator.lt, above, row)):
                yield from fill(rows + (row,))

    return fill(())


def filling_content(rows: Iterable[Iterable[int]], n: int) -> tuple[int, ...]:
    """Coordinate m counts the entries equal to m."""
    counts = [0] * n
    for r in rows:
        for x in r:
            counts[x - 1] += 1
    return tuple(counts)


def enumerate_tableaux(shape: RectShape, n: int) -> tuple[Tableau, ...]:
    """All column-strict fillings of the rectangle, in row-word lexicographic order."""
    shape = RectShape(*shape)
    if shape.rows >= n:
        raise ValueError("height %d must be below the rank %d" % (shape.rows, n))
    return tuple(Tableau(n, rows) for rows in fillings((shape.cols,) * shape.rows, n))


# ---------------------------------------------------------------------------
# the literal rules, run only while a RectCrystal is built


def _promote(t: Tableau) -> Tableau:
    """Promotion: remove the largest letter, slide, increment, refill with 1.

    The maximal letters sit at the bottom of their columns in a suffix of
    the last row.  Each vacated cell slides toward the top-left corner,
    pulling in the larger of its upper and left neighbors (ties pull from
    above, as column strictness requires); parked holes act as walls.  The
    holes end as a prefix of the first row, every remaining entry gains one,
    and the holes are filled with the letter 1.
    """
    n = t.n
    k, l = t.shape
    grid: list[list[int | None]] = [list(row) for row in t.rows]
    holes = [c for c in range(l) if grid[k - 1][c] == n]
    if any(grid[r][c] == n for r in range(k - 1) for c in range(l)):
        raise CertificateError("maximal letters must lie in the bottom row of a rectangle")
    for c in holes:
        grid[k - 1][c] = None
    for c in holes:
        r, col = k - 1, c
        while True:
            above = grid[r - 1][col] if r > 0 else None
            left = grid[r][col - 1] if col > 0 else None
            if above is None and left is None:
                break
            if left is None or (above is not None and above >= left):
                grid[r][col] = above
                r -= 1
            else:
                grid[r][col] = left
                col -= 1
            grid[r][col] = None
    parked = sum(1 for c in range(l) if grid[0][c] is None)
    if parked != len(holes) or any(grid[0][c] is not None for c in range(len(holes))):
        raise CertificateError("holes must park as a prefix of the first row")
    rows = tuple(
        tuple(1 if x is None else x + 1 for x in row) for row in grid
    )
    return Tableau(n, rows)


@functools.cache
class RectCrystal:
    """The affine crystal B(shape) at rank n as integer arrays, built once
    per (n, shape).

    Element x is the tableau ``elements[x]``, in enumerate_tableaux order,
    and ``index`` inverts that.  For every i in I = {0, 1, ..., n-1},
    ``eps[i][x]`` and ``phi[i][x]`` are the string lengths and ``e[i][x]``
    and ``f[i][x]`` the operator images, -1 where undefined.  The classical
    operators come from the signature rule on the cell word, the index-0
    operators from e_1 and f_1 conjugated by promotion, which rotates the
    alphabet: promotion o f_i = f_(i+1 mod n) o promotion, and promotion has
    order n.  ``promotion`` and ``promotion_inverse`` are index permutations.
    """

    def __init__(self, n: int, shape: RectShape):
        self.n, self.shape = n, RectShape(*shape)
        self.elements = enumerate_tableaux(self.shape, n)
        self.index = {t: x for x, t in enumerate(self.elements)}
        self.content = tuple(t.content() for t in self.elements)
        self.promotion = tuple(self.index[_promote(t)] for t in self.elements)
        inverse = [0] * len(self.elements)
        for x, y in enumerate(self.promotion):
            inverse[y] = x
        self.promotion_inverse = tuple(inverse)
        self.eps, self.phi, self.e, self.f = ([None] * n for _ in range(4))
        by_word = {t.cells(): x for x, t in enumerate(self.elements)}
        for i in range(1, n):
            self.eps[i], self.phi[i], self.e[i], self.f[i] = zip(
                *(self._signature_rule(t, i, by_word) for t in self.elements))
        self.eps[0], self.phi[0] = (tuple(s[y] for y in self.promotion) for s in (self.eps[1], self.phi[1]))
        self.e[0], self.f[0] = (
            tuple(-1 if op[y] < 0 else self.promotion_inverse[op[y]] for y in self.promotion)
            for op in (self.e[1], self.f[1]))

    def move(self, x: int, i: int, steps: int) -> int:
        """Element x moved by f_i^steps, or by e_i^-steps when steps < 0,
        where the string is known to be long enough."""
        table = self.f[i] if steps > 0 else self.e[i]
        for _ in range(abs(steps)):
            if table[x] < 0:
                raise CertificateError("the %d-string of %s ends early" % (i, self.elements[x]))
            x = table[x]
        return x

    def unique(self, stats, values) -> int:
        """The one element x with stats[i][x] == values[i] for every i, stats
        being eps or phi; CertificateError unless exactly one matches, as in a
        crystal perfect of the values' level."""
        values = tuple(values)
        matches = [x for x in range(len(self.elements)) if all(s[x] == v for s, v in zip(stats, values))]
        if len(matches) != 1:
            raise CertificateError("%d elements of B^%s have string lengths %s; it is not perfect of their level"
                                   % (len(matches), self.shape, values))
        return matches[0]

    def _signature_rule(self, t: Tableau, i: int, by_word: dict) -> tuple[int, int, int, int]:
        """(eps_i, phi_i, e_i, f_i) of t from one bracket of its cell word,
        a letter i reading + and a letter i+1 reading -: e_i changes the
        leftmost free - to an i, f_i the rightmost free + to an i+1; by_word
        maps each element's cell word to its index."""
        cells = t.cells()
        plus, minus = bracket([(x == i) - (x == i + 1) for x in cells])
        e = by_word[cells[:minus[0]] + (i,) + cells[minus[0] + 1:]] if minus else -1
        f = by_word[cells[:plus[-1]] + (i + 1,) + cells[plus[-1] + 1:]] if plus else -1
        return len(minus), len(plus), e, f
