"""Signature rule for tensor products of crystals.

Factor lists are ordered leftmost first.  For a two-factor product with left
factor y and right factor x the statistics combine as

    phi(y (x) x) = phi(y) + max(0, phi(x) - eps(y))
    eps(y (x) x) = eps(x) + max(0, eps(y) - phi(x))

and a raising operator acts on x when phi(x) >= eps(y), a lowering operator
when phi(x) > eps(y); otherwise the action passes into y.  Longer products
fold left-associatively, so the factor receiving the action is found by
scanning from the right against the statistics of the folded prefix.

The module also holds what every other module shares: CertificateError, and
Record, the immutable value base of the package's small classes.
"""

from __future__ import annotations

from itertools import accumulate
from operator import attrgetter
from typing import Optional, Sequence

Stats = tuple[int, int]  # (eps, phi) of one factor for a fixed operator index


class CertificateError(AssertionError):
    """A mathematical certificate failed: the computation contradicts a
    theorem it relies on.  Raised explicitly, so ``python -O`` keeps it."""


class Record:
    """Immutable value with slots.  A subclass lists its fields in
    ``_fields``, the positional order of its constructor, and sets them (and
    any derived slot) in ``__init__`` through ``object.__setattr__``.
    Equality and hashing are field-wise and hold only between instances of
    one class, so a record never equals a tuple; assignment raises."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, *value):
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__name__))

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values(self)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self._values(self))))


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
    prefixes = list(accumulate(stats, combine, initial=(0, 0)))  # [k]: first k factors
    if prefixes[-1][0] == 0:
        return None
    for j in range(len(stats) - 1, 0, -1):
        if stats[j][1] >= prefixes[j][0]:
            return j
    return 0


def lowering_index(stats: Sequence[Stats]) -> Optional[int]:
    """Index of the factor a lowering operator acts on, or None if it is undefined."""
    prefixes = list(accumulate(stats, combine, initial=(0, 0)))  # [k]: first k factors
    if prefixes[-1][1] == 0:
        return None
    for j in range(len(stats) - 1, 0, -1):
        if stats[j][1] > prefixes[j][0]:
            return j
    return 0


def reflection_steps(stats: Sequence[Stats]) -> list[int]:
    """Per factor, the steps of the crystal reflection s_i in one pass: k > 0
    for k lowerings, -k for k raisings.  Each factor reads +^phi -^eps and a
    - cancels a free + to its right, so the product reduces to +^phi -^eps.
    s_i turns that into +^eps -^phi: it lowers the phi - eps rightmost free
    + signs, or raises the eps - phi leftmost free - signs."""
    prefixes = list(accumulate(stats, combine, initial=(0, 0)))  # [k]: first k factors
    eps, phi = prefixes[-1]
    if eps > phi:  # reversing the factors and swapping eps with phi mirrors the rule
        return [-k for k in reversed(reflection_steps([(p, e) for e, p in reversed(stats)]))]
    steps, left = [0] * len(stats), phi - eps
    for j in range(len(stats) - 1, -1, -1):
        steps[j] = min(left, max(0, stats[j][1] - prefixes[j][0]))  # free + signs of factor j
        left -= steps[j]
    return steps
