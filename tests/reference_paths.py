"""Literal paths: the crystal operators and restriction tests on Path
objects, and the plain path streams.

The program holds a path as a tuple of element indices into
tableaux.RectCrystal and restricts and grades paths only through the
recursion of kostka.scan_paths.  The tests check that recursion against
the plain enumeration below, which folds the signature rule over the
factors of each Path and decides restriction against a dominant affine
weight Lambda by folding the statistics (0, <h_i, Lambda>) of its highest
vector as an extra rightmost factor.
"""

import itertools
from typing import Iterable, Iterator, Optional, Sequence

import reference_crystal as rc
from reference_crystal import fold_stats, lowering_index, raising_index

from crystalpaths import tableaux
from crystalpaths.kostka import schur_monomials
from crystalpaths.paths import Path, normalize_content
from crystalpaths.signature import CertificateError
from crystalpaths.tableaux import RectShape
from crystalpaths.weights import LevelWeight, vadd


def stats(p: Path, i: int) -> list[tuple[int, int]]:
    """(eps_i, phi_i) of every factor, leftmost first."""
    return [(rc.eps(t, i), rc.phi(t, i)) for t in p.factors]


def eps(p: Path, i: int) -> int:
    return fold_stats(stats(p, i))[0]


def phi(p: Path, i: int) -> int:
    return fold_stats(stats(p, i))[1]


def _move(p: Path, pos: Optional[int], op) -> Optional[Path]:
    if pos is None:
        return None
    moved = op(p.factors[pos])
    if moved is None:
        raise CertificateError("signature rule pointed at an exhausted factor")
    return Path(p.n, p.factors[:pos] + (moved,) + p.factors[pos + 1:])


def e(p: Path, i: int) -> Optional[Path]:
    """e_i p by the signature rule, or None where e_i kills p."""
    return _move(p, raising_index(stats(p, i)), lambda t: rc.e(t, i))


def f(p: Path, i: int) -> Optional[Path]:
    """f_i p by the signature rule, or None where f_i kills p."""
    return _move(p, lowering_index(stats(p, i)), lambda t: rc.f(t, i))


def reflect_path(p: Path, i: int) -> Path:
    """Crystal reflection of a path, one e or f step at a time."""
    gap = phi(p, i) - eps(p, i)
    out = p
    for _ in range(gap):
        out = f(out, i)
    for _ in range(-gap):
        out = e(out, i)
    if out is None:
        raise AssertionError("the %d-string of %s ends before its mirror point" % (i, p))
    return out


def enumerate_paths(n: int, shapes: Sequence[RectShape]) -> Iterator[Path]:
    """All paths with the given factor shapes, leftmost factor varying slowest."""
    pools = [tableaux.enumerate_tableaux(RectShape(*s), n) for s in shapes]
    for combo in itertools.product(*pools):
        yield Path(n, combo)


def is_classically_restricted(p: Path, lam: Optional[LevelWeight] = None) -> bool:
    """No raising operator with classical index applies to p, or, given
    lam, to p tensored with the highest vector of lam."""
    u = [(0, 0 if lam is None else lam.pairing(i)) for i in range(p.n)]
    return all(fold_stats(stats(p, i) + [u[i]])[0] == 0 for i in range(1, p.n))


def is_level_restricted(p: Path, lam: LevelWeight) -> bool:
    """True when p tensored with the highest vector of lam is killed by
    every raising operator."""
    if not lam.is_dominant():
        raise ValueError("restriction weight must be dominant")
    for s in p.shapes:
        if s.cols > lam.level:
            raise ValueError(
                "factor %s has level %d above the restriction level %d"
                % (s, s.cols, lam.level)
            )
    return all(fold_stats(stats(p, i) + [(0, lam.pairing(i))])[0] == 0 for i in range(p.n))


def weight_out(p: Path, lam: LevelWeight) -> LevelWeight:
    """Weight of p tensored with the highest vector of lam: lam plus the
    classical weight of p, with the delta coefficient left at zero."""
    return LevelWeight(lam.level, vadd(lam.finite, p.weight()), 0)


def level_restricted_paths(
    n: int, shapes: Sequence[RectShape], lam: LevelWeight, lam_out: LevelWeight
) -> Iterator[Path]:
    """Stream the paths whose tensor with the highest vector of lam is a
    highest weight vector of weight lam_out, disregarding the delta
    coefficient."""
    for p in enumerate_paths(n, shapes):
        if is_level_restricted(p, lam) and weight_out(p, lam).same_classical_weight(lam_out):
            yield p


def classically_restricted_paths(
    n: int, shapes: Sequence[RectShape], lam: Iterable[int]
) -> Iterator[Path]:
    """Stream the classically restricted paths of the given content."""
    target = normalize_content(lam, n)
    for p in enumerate_paths(n, shapes):
        if p.weight() == target and is_classically_restricted(p):
            yield p


def classical_dimension(partition: Iterable[int], n: int) -> int:
    """Dimension of the irreducible with the given highest weight: the number
    of column-strict fillings with entries at most n."""
    key = tuple(x for x in partition if x)
    return sum(c for _, c in schur_monomials(key, n))
