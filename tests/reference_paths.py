"""Literal path streams: the program computes these polynomials with the
content-targeted recursion of kostka.scan_paths, and the tests check that
recursion against the plain enumeration below."""

from typing import Iterable, Iterator, Sequence

from crystalpaths.paths import Path, enumerate_paths, is_classically_restricted, normalize_content
from crystalpaths.tableaux import RectShape


def classically_restricted_paths(
    n: int, shapes: Sequence[RectShape], lam: Iterable[int]
) -> Iterator[Path]:
    """Stream the classically restricted paths of the given content."""
    target = normalize_content(lam, n)
    for p in enumerate_paths(n, shapes):
        if p.weight() == target and is_classically_restricted(p):
            yield p
