"""Signature rule for tensor products of crystals.

Factor lists are ordered leftmost first.  For a two-factor product with left
factor y and right factor x the statistics combine as

    phi(y (x) x) = phi(y) + max(0, phi(x) - eps(y))
    eps(y (x) x) = eps(x) + max(0, eps(y) - phi(x))

and a raising operator acts on x when phi(x) >= eps(y), a lowering operator
when phi(x) > eps(y); otherwise the action passes into y.  In signs: a
factor reads +^phi -^eps, a - cancels the nearest free + to its right, e_i
turns the leftmost free - into a + and f_i the rightmost free + into a -.

The module also holds what every other module shares: CertificateError, and
Record, the immutable value base of the package's small classes.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Sequence

Stats = tuple[int, int]  # (eps, phi) of one factor for a fixed operator index


class CertificateError(AssertionError):
    """A mathematical certificate failed: the computation contradicts a
    theorem it relies on.  Raised explicitly, so ``python -O`` keeps it."""


class Record:
    """Immutable value with slots.  The base constructor sets the fields a
    subclass lists in ``_fields`` from exactly as many values; a subclass's
    ``__init__`` normalizes and checks, calls it, then sets any derived slot by
    ``object.__setattr__``.  Equality and hashing are field-wise and hold only
    within one class, so a record never equals a tuple; assignment raises."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

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


def fold_stats(stats: Sequence[Stats]) -> Stats:
    """(eps, phi) of the full tensor product; the empty product gives (0, 0)."""
    eps = phi = 0
    for e, p in stats:
        phi += max(0, p - eps)
        eps = e + max(0, eps - p)
    return eps, phi


def raising_index(stats: Sequence[Stats]) -> Optional[int]:
    """The factor holding the leftmost free - sign, where e_i acts; None if e_i kills."""
    eps, pos = 0, 0  # eps of the prefix
    for j, (e, p) in enumerate(stats):
        if p >= eps:
            eps, pos = e, j
        else:
            eps += e - p
    return pos if eps else None


def lowering_index(stats: Sequence[Stats]) -> Optional[int]:
    """The factor holding the rightmost free + sign, where f_i acts; None if f_i kills."""
    eps, pos = 0, None  # eps of the prefix
    for j, (e, p) in enumerate(stats):
        if p > eps:
            eps, pos = e, j
        else:
            eps += e - p
    return pos
