"""Signature rule for tensor products of crystals.

Factor lists are ordered leftmost first.  For a two-factor product with left
factor y and right factor x the statistics combine as

    phi(y (x) x) = phi(y) + max(0, phi(x) - eps(y))
    eps(y (x) x) = eps(x) + max(0, eps(y) - phi(x))

and a raising operator acts on x when phi(x) >= eps(y), a lowering operator
when phi(x) > eps(y); otherwise the action passes into y.  Longer products
fold left-associatively, so the factor receiving the action is found by
scanning from the right against the statistics of the folded prefix.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

Stats = tuple[int, int]  # (eps, phi) of one factor for a fixed operator index


def combine(left: Stats, right: Stats) -> Stats:
    le, lp = left
    re, rp = right
    return (re + max(0, le - rp), lp + max(0, rp - le))


def fold_stats(stats: Sequence[Stats]) -> Stats:
    """(eps, phi) of the full tensor product; the empty product gives (0, 0)."""
    acc = (0, 0)
    for s in stats:
        acc = combine(acc, s)
    return acc


def raising_index(stats: Sequence[Stats]) -> Optional[int]:
    """Index of the factor a raising operator acts on, or None if it is undefined."""
    eps, _ = fold_stats(stats)
    if eps == 0:
        return None
    prefixes = list(accumulate(stats, combine, initial=(0, 0)))  # [k]: first k factors
    for j in range(len(stats) - 1, 0, -1):
        if stats[j][1] >= prefixes[j][0]:
            return j
    return 0


def lowering_index(stats: Sequence[Stats]) -> Optional[int]:
    """Index of the factor a lowering operator acts on, or None if it is undefined."""
    _, phi = fold_stats(stats)
    if phi == 0:
        return None
    prefixes = list(accumulate(stats, combine, initial=(0, 0)))  # [k]: first k factors
    for j in range(len(stats) - 1, 0, -1):
        if stats[j][1] > prefixes[j][0]:
            return j
    return 0
