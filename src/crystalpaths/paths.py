"""Tensor products of rectangular tableaux and restriction tests.

A path is an ordered tensor of tableaux; the rightmost list element is the
rightmost tensor factor, which is the factor the signature rule inspects
first.  Restriction against a dominant affine weight is decided by folding a
formal highest weight vector as an extra rightmost factor.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from . import tableaux
from .signature import CertificateError, Record, fold_stats, lowering_index, raising_index
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", factors)

    def __len__(self):
        return len(self.factors)

    @property
    def shapes(self) -> tuple[RectShape, ...]:
        return tuple(t.shape for t in self.factors)

    def weight(self) -> tuple[int, ...]:
        """Total content vector."""
        w = (0,) * self.n
        for t in self.factors:
            w = vadd(w, t.content())
        return w

    def _stats(self, i: int) -> list[tuple[int, int]]:
        return [(tableaux.eps(t, i), tableaux.phi(t, i)) for t in self.factors]

    def eps(self, i: int) -> int:
        return fold_stats(self._stats(i))[0]

    def phi(self, i: int) -> int:
        return fold_stats(self._stats(i))[1]

    def e(self, i: int) -> Optional["Path"]:
        pos = raising_index(self._stats(i))
        if pos is None:
            return None
        moved = tableaux.e(self.factors[pos], i)
        if moved is None:
            raise CertificateError("signature rule pointed at an exhausted factor")
        return self._with_factor(pos, moved)

    def f(self, i: int) -> Optional["Path"]:
        pos = lowering_index(self._stats(i))
        if pos is None:
            return None
        moved = tableaux.f(self.factors[pos], i)
        if moved is None:
            raise CertificateError("signature rule pointed at an exhausted factor")
        return self._with_factor(pos, moved)

    def _with_factor(self, pos: int, t: Tableau) -> "Path":
        factors = list(self.factors)
        factors[pos] = t
        return Path(self.n, tuple(factors))

    def __str__(self):
        return format_path(self)


class FormalHighestVector(Record):
    """Highest weight vector of a dominant affine weight, carried formally.

    Only its statistics matter: eps_i = 0 and phi_i is the coroot pairing.
    It is enough to decide restriction of a path tensored against it; the
    ambient infinite crystal is never materialized.
    """

    __slots__ = _fields = ("weight",)
    weight: LevelWeight

    def __init__(self, weight: LevelWeight):
        if not weight.is_dominant():
            raise ValueError("formal highest vector needs a dominant weight")
        object.__setattr__(self, "weight", weight)

    def eps(self, i: int) -> int:
        return 0

    def phi(self, i: int) -> int:
        return self.weight.pairing(i)


def format_path(p: Path) -> str:
    return "|".join(tableaux.format_tableau(t) for t in p.factors)


def parse_path(text: str, n: int) -> Path:
    text = text.strip()
    if not text:
        return Path(n, ())
    return Path(n, tuple(tableaux.parse_tableau(part, n) for part in text.split("|")))


def enumerate_paths(n: int, shapes: Sequence[RectShape]) -> Iterator[Path]:
    """All paths with the given factor shapes, leftmost factor varying slowest."""
    pools = [tableaux.enumerate_tableaux(RectShape(*s), n) for s in shapes]
    for combo in itertools.product(*pools):
        yield Path(n, combo)


def is_classically_restricted(p: Path) -> bool:
    """No raising operator with classical index applies."""
    return all(p.eps(i) == 0 for i in range(1, p.n))


def restricted_epsilons(p: Path, lam: LevelWeight) -> tuple[int, ...]:
    """eps_i of p tensored with the formal highest vector of lam, for all i."""
    u = FormalHighestVector(lam)
    out = []
    for i in range(p.n):
        stats = p._stats(i) + [(u.eps(i), u.phi(i))]
        out.append(fold_stats(stats)[0])
    return tuple(out)


def is_level_restricted(p: Path, lam: LevelWeight) -> bool:
    """True when p tensored with the formal highest vector of lam is killed
    by every raising operator."""
    if not lam.is_dominant():
        raise ValueError("restriction weight must be dominant")
    for s in p.shapes:
        if s.cols > lam.level:
            raise ValueError(
                "factor %s has level %d above the restriction level %d"
                % (s, s.cols, lam.level)
            )
    return all(x == 0 for x in restricted_epsilons(p, lam))


def weight_out(p: Path, lam: LevelWeight) -> LevelWeight:
    """Weight of p tensored with the highest vector of lam: lam plus the
    classical weight of p.  The delta coefficient is left at zero; the
    energy grading supplies it separately."""
    return LevelWeight(lam.level, vadd(lam.finite, p.weight()), 0)


def normalize_content(lam: Iterable[int], n: int) -> tuple[int, ...]:
    """Zero-pad a partition or content vector to length n."""
    v = tuple(int(x) for x in lam)
    if len(v) > n:
        if any(v[n:]):
            raise ValueError("weight %s has more than %d nonzero parts" % (v, n))
        return v[:n]
    return v + (0,) * (n - len(v))


def target_content(lam: LevelWeight, lam_out: LevelWeight, boxes: int) -> Optional[tuple[int, ...]]:
    """The one content c of a path with the given box count for which lam + c
    is lam_out modulo the all-ones vector, or None when n does not divide
    boxes - |lam_out| + |lam|, so that no path of that box count has it."""
    shift, rest = divmod(boxes - sum(lam_out.finite) + sum(lam.finite), lam.rank)
    if rest:
        return None
    return tuple(b - a + shift for a, b in zip(lam.finite, lam_out.finite))


def level_restricted_paths(
    n: int, shapes: Sequence[RectShape], lam: LevelWeight, lam_out: LevelWeight
) -> Iterator[Path]:
    """Stream the paths whose tensor with the highest vector of lam is a
    highest weight vector of weight lam_out, disregarding the delta
    coefficient."""
    for p in enumerate_paths(n, shapes):
        if is_level_restricted(p, lam) and weight_out(p, lam).same_classical_weight(lam_out):
            yield p
