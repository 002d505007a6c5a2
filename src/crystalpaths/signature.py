"""Signature rule for tensor products of crystals.

Factor lists are ordered leftmost first.  In signs a factor reads
+^phi -^eps, a - cancels the nearest free + to its right, e_i turns the
leftmost free - into a + and f_i the rightmost free + into a -.  The program
reads the rule in two forms.  :func:`bracket` pairs a word of unit signs, one
per factor: the cells of a tableau, the column factors of a path.  For two
factors, left factor y and right factor x, the statistics combine as

    phi(y (x) x) = phi(y) + max(0, phi(x) - eps(y))
    eps(y (x) x) = eps(x) + max(0, eps(y) - phi(x))

and a raising operator acts on x when phi(x) >= eps(y), a lowering operator
when phi(x) > eps(y); otherwise the action passes into y
(:func:`raising_side`, :func:`lowering_side`).  Nothing folds the
statistics of a longer product.

The module also holds what every other module shares: CertificateError, and
Record, the immutable value base of the package's small classes.
"""

from __future__ import annotations

from operator import attrgetter
from collections.abc import Iterable

Stats = tuple[int, int]  # (eps, phi) of one factor for a fixed operator index


class CertificateError(AssertionError):
    """A mathematical certificate failed: the computation contradicts a
    theorem it relies on.  Raised explicitly, so ``python -O`` keeps it."""


class Record:
    """Immutable value with slots.  The base constructor sets the fields a
    subclass lists in ``_fields`` from exactly as many values; a subclass's
    ``__init__`` normalizes and checks (``CrystalSpec`` after the call,
    through its own methods), calls it, then sets any derived slot
    (``Tableau.shape``) by ``object.__setattr__``.  Equality and hashing are
    field-wise and hold only within one class, so a record never equals a
    tuple; assignment raises."""

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


def bracket(signs: Iterable[int]) -> tuple[list[int], list[int]]:
    """(positions of the free + signs, positions of the free - signs) of a
    word of signs +1, -1 and 0, leftmost factor first, each list in reading
    order: a - cancels the nearest free + to its right.  The product has
    phi = len(plus) and eps = len(minus); e_i acts at minus[0], f_i at
    plus[-1]."""
    plus, minus = [], []  # the free + signs, the - signs no + has cancelled yet
    for j, s in enumerate(signs):
        if s < 0:
            minus.append(j)
        elif s:
            if minus:
                del minus[-1]
            else:
                plus.append(j)
    return plus, minus


def raising_side(left: Stats, right: Stats) -> int | None:
    """The factor of left (x) right that e_i acts on, 0 for the left and 1
    for the right, from their (eps, phi); None if e_i kills the pair."""
    if right[1] < left[0]:
        return 0
    return 1 if right[0] else None


def lowering_side(left: Stats, right: Stats) -> int | None:
    """The factor of left (x) right that f_i acts on, 0 for the left and 1
    for the right, from their (eps, phi); None if f_i kills the pair."""
    if right[1] > left[0]:
        return 1
    return 0 if left[1] else None
