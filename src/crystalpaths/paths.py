"""Paths at the API and text boundary, and the content a restricted path has.

A path is an ordered tensor of tableaux; the rightmost list element is the
rightmost tensor factor, which is the factor the signature rule inspects
first.  Path objects carry a path in and out of the library as text; inside
it a path is a tuple of element indices into tableaux.RectCrystal, and
kostka.scan_plan and kostka.scan_paths alone restrict and grade paths.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import tableaux
from .signature import Record
from .tableaux import RectShape, Tableau
from .weights import LevelWeight, vadd


class Path(Record):
    """Tensor product element b_L (x) ... (x) b_1, stored leftmost first."""

    __slots__ = _fields = ("n", "factors")
    n: int
    factors: tuple[Tableau, ...]

    def __init__(self, n: int, factors: tuple[Tableau, ...]):
        factors = tuple(factors)
        for t in factors:
            if t.n != n:
                raise ValueError("factor rank %d does not match path rank %d" % (t.n, n))
        super().__init__(n, factors)

    @property
    def shapes(self) -> tuple[RectShape, ...]:
        return tuple(t.shape for t in self.factors)

    def weight(self) -> tuple[int, ...]:
        """Total content vector."""
        w = (0,) * self.n
        for t in self.factors:
            w = vadd(w, t.content())
        return w

    def __str__(self):
        return format_path(self)


def format_path(p: Path) -> str:
    return "|".join(tableaux.format_tableau(t) for t in p.factors)


def parse_path(text: str, n: int) -> Path:
    text = text.strip()
    if not text:
        return Path(n, ())
    return Path(n, tuple(tableaux.parse_tableau(part, n) for part in text.split("|")))


def normalize_content(lam: Iterable[int], n: int) -> tuple[int, ...]:
    """Zero-pad a partition or content vector to length n."""
    v = tuple(int(x) for x in lam)
    if len(v) > n:
        if any(v[n:]):
            raise ValueError("weight %s has a nonzero entry past position %d" % (v, n))
        return v[:n]
    return v + (0,) * (n - len(v))


def target_content(lam: LevelWeight, lam_out: LevelWeight, boxes: int) -> tuple[int, ...] | None:
    """The one content c of a path with the given box count for which lam + c
    is lam_out modulo the all-ones vector, or None when n does not divide
    boxes - |lam_out| + |lam|, so that no path of that box count has it."""
    shift, rest = divmod(boxes - sum(lam_out.finite) + sum(lam.finite), lam.rank)
    if rest:
        return None
    return tuple(b - a + shift for a, b in zip(lam.finite, lam_out.finite))
