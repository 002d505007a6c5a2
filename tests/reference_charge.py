"""Kostka-Foulkes polynomials from charge, with no crystal at all.

K_{lambda mu}(q) sums q^charge(T) over the semistandard tableaux T of shape
lambda and content mu, mu a partition (Lascoux and Schuetzenberger).  The
charge of a tableau is that of its row reading word, rows bottom to top,
each left to right.  The word splits into standard subwords, each picked
right to left, cyclically: a 1, then a 2 left of it, and so on up to the
largest letter left, wrapping past the left end when none is left of the
last pick.  Within a subword the index of the 1 is 0, and the index of
each next letter is that of the one before, plus one when it was found only
after wrapping; the charge sums the indices of all subwords.

The tests compare these polynomials with kostka.kostka_classical on
products of single rows and of single columns, for which the energy
generating function is a Kostka-Foulkes polynomial up to a shift and q ->
1/q.  Nothing here imports the program but its Laurent polynomials.
"""

from collections import Counter
from typing import Iterator, Optional

from crystalpaths.laurent import LaurentPoly


def partitions(total: int, parts: int, largest: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """The partitions of total into at most parts nonzero parts, none above
    largest, in decreasing lexicographic order."""
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, parts - 1, first):
            yield (first,) + rest


def conjugate(shape) -> tuple[int, ...]:
    """The transposed partition."""
    return tuple(sum(1 for row in shape if row > c) for c in range(shape[0] if shape else 0))


def n_statistic(shape) -> int:
    """n(mu) = sum_{i<j} min(mu_i, mu_j) = sum_i (i - 1) mu_i for a partition."""
    return sum(i * part for i, part in enumerate(sorted(shape, reverse=True)))


def _strips(lengths, shape, size: int, r: int = 0) -> Iterator[tuple[int, ...]]:
    """Per row, the cells of a horizontal strip of size cells added to rows
    of those lengths inside shape: no two new cells in one column."""
    if r == len(shape):
        if size == 0:
            yield ()
        return
    room = min(shape[r], lengths[r - 1] if r else shape[0]) - lengths[r]
    for added in range(min(room, size) + 1):
        for rest in _strips(lengths, shape, size - added, r + 1):
            yield (added,) + rest


def semistandard_tableaux(shape, content) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The tableaux of a partition shape with content[k - 1] letters k, as
    tuples of rows, top row first: the letters k fill a horizontal strip
    around the letters below k."""
    shape = tuple(shape)

    def grow(rows, k):
        if k == len(content):
            if tuple(map(len, rows)) == shape:
                yield rows
            return
        for strip in _strips(tuple(map(len, rows)), shape, content[k]):
            yield from grow(tuple(row + (k + 1,) * a for row, a in zip(rows, strip)), k + 1)

    yield from grow(((),) * len(shape), 0)


def charge(word) -> int:
    """The charge of a word whose content is a partition."""
    left = list(enumerate(word))  # the (position, letter) pairs not yet picked
    total = 0
    while left:
        picked, pos, index = set(), len(word), 0
        for letter in range(1, max(x for _, x in left) + 1):
            here = [p for p, x in left if x == letter]
            before = [p for p in here if p < pos]
            if not before:  # wrap past the left end
                index += 1
            pos = max(before or here)
            picked.add(pos)
            total += index
        left = [(p, x) for p, x in left if p not in picked]
    return total


def reading_word(rows) -> tuple[int, ...]:
    """Rows bottom to top, each left to right."""
    return tuple(x for row in reversed(rows) for x in row)


def kostka_foulkes(shape, content) -> LaurentPoly:
    """K_{shape content}(q), content a partition."""
    counts = Counter(charge(reading_word(t)) for t in semistandard_tableaux(shape, content))
    return LaurentPoly(counts)
