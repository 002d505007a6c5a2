"""Energy-graded generating polynomials of restricted paths.

The classical polynomial counts paths killed by every classical raising
operator, graded by path energy.  The level polynomial counts paths whose
tensor against a formal highest weight vector of a dominant level-l weight
is again highest, graded either by plain path energy (when the restriction
weight is a multiple of the affine fundamental weight at node 0, where the
extra grading factor is unnecessary) or by the energy of the path extended
by the matching element of a perfect level-l crystal.

An independent q=1 oracle expands the product of Schur polynomials by brute
force and peels off leading terms, never touching crystal operators.
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .energy import path_energy, phi_matching_element
from .laurent import LaurentPoly
from .paths import Path, is_classically_restricted, normalize_content, produces
from .tableaux import RectShape, enumerate_tableaux
from .weights import LevelWeight

Grading = tuple[str, Optional[tuple[LevelWeight, RectShape]]]


@dataclass(frozen=True)
class CrystalSpec:
    """Rank, ordered factor shapes (leftmost first), and optional level data."""

    n: int
    shapes: tuple[RectShape, ...]
    level: Optional[int] = None
    lam: Optional[LevelWeight] = None
    lam_prime: Optional[LevelWeight] = None
    b0_shape: Optional[RectShape] = None

    def __post_init__(self):
        object.__setattr__(self, "shapes", tuple(RectShape(*s) for s in self.shapes))
        if self.b0_shape is not None:
            object.__setattr__(self, "b0_shape", RectShape(*self.b0_shape))

    def validate(self):
        if self.n < 2:
            raise ValueError("rank must be at least 2, got %d" % self.n)
        for s in self.shapes:
            if not 1 <= s.rows <= self.n - 1:
                raise ValueError(
                    "factor height %d must lie in 1..%d (below the rank)" % (s.rows, self.n - 1)
                )
            if s.cols < 1:
                raise ValueError("factor width must be positive, got %d" % s.cols)
        if self.level is not None:
            if self.level < 1:
                raise ValueError("level must be at least 1, got %d" % self.level)
            for s in self.shapes:
                if s.cols > self.level:
                    raise ValueError(
                        "factor %s has level %d exceeding the spec level %d"
                        % (s, s.cols, self.level)
                    )
        for name, w in (("Lambda", self.lam), ("LambdaPrime", self.lam_prime)):
            if w is None:
                continue
            if self.level is None:
                raise ValueError("%s given without a level" % name)
            if w.rank != self.n:
                raise ValueError("%s has rank %d, expected %d" % (name, w.rank, self.n))
            if w.level != self.level:
                raise ValueError("%s has level %d, expected %d" % (name, w.level, self.level))
            if not w.is_dominant():
                raise ValueError("%s is not dominant" % name)
        if self.b0_shape is not None:
            if self.level is None:
                raise ValueError("b0 shape given without a level")
            if not 1 <= self.b0_shape.rows <= self.n - 1:
                raise ValueError("b0 height %d must be below the rank" % self.b0_shape.rows)
            if self.b0_shape.cols != self.level:
                raise ValueError(
                    "b0 shape %s must have width equal to the level %d"
                    % (self.b0_shape, self.level)
                )

    @property
    def rank(self) -> int:
        return self.n

    def total_boxes(self) -> int:
        return sum(s.rows * s.cols for s in self.shapes)

    def resolved_lam_prime(self) -> Optional[LevelWeight]:
        return self.lam_prime if self.lam_prime is not None else self.lam

    def resolved_b0_shape(self) -> RectShape:
        if self.b0_shape is not None:
            return self.b0_shape
        if self.level is None:
            raise ValueError("no level from which to build a default row crystal")
        return RectShape(1, self.level)

    def is_vacuum(self) -> bool:
        """True when the restriction weight is the level multiple of the
        node-0 fundamental weight."""
        return (
            self.lam is not None
            and self.lam.same_classical_weight(LevelWeight.vacuum(self.n, self.level))
        )

    def grading(self) -> Grading:
        if self.lam is None or self.is_vacuum():
            return ("plain", None)
        return ("augmented", (self.lam, self.resolved_b0_shape()))


def path_grader(
    n: int, grading: Grading, cache_dir: Optional[str] = None
) -> Callable[[Path], int]:
    """The energy of a rank-n path under the grading.  The augmented grading
    resolves its element b0 once here, not once per graded path as
    :func:`augmented_energy` does."""
    kind, args = grading
    if kind == "plain":
        return lambda p: path_energy(p, cache_dir)
    lam, b0_shape = args
    b0 = phi_matching_element(n, b0_shape, lam)
    return lambda p: path_energy(Path(n, p.factors + (b0,)), cache_dir)


# ---------------------------------------------------------------------------
# path scans, optionally split across processes by the leftmost factor


def _enumerate_chunk(n: int, shapes, chunk: int, nchunks: int) -> Iterator[Path]:
    if not shapes:
        if chunk == 0:
            yield Path(n, ())
        return
    first_pool = enumerate_tableaux(RectShape(*shapes[0]), n)
    rest_pools = [enumerate_tableaux(RectShape(*s), n) for s in shapes[1:]]
    for idx, first in enumerate(first_pool):
        if idx % nchunks != chunk:
            continue
        for rest in itertools.product(*rest_pools):
            yield Path(n, (first,) + rest)


def _scan_chunk(payload):
    n, shapes, mode, args, grading, cache_dir, chunk, nchunks = payload
    buckets: dict[tuple, dict[int, int]] = {}
    grade = path_grader(n, grading, cache_dir)
    for p in _enumerate_chunk(n, shapes, chunk, nchunks):
        if mode == "classical":
            (target,) = args
            if p.weight() != target or not is_classically_restricted(p):
                continue
            key = target
        elif mode == "level":
            lam, lam_prime = args
            if not produces(p, lam, lam_prime):
                continue
            key = ()
        elif mode == "table":
            key = p.weight()
        else:
            raise ValueError("unknown scan mode %r" % mode)
        exp = grade(p)
        bucket = buckets.setdefault(key, {})
        bucket[exp] = bucket.get(exp, 0) + 1
    return [(key, sorted(d.items())) for key, d in sorted(buckets.items())]


def scan_paths(
    n: int,
    shapes: Sequence[RectShape],
    mode: str,
    args: tuple,
    grading: Grading,
    cache_dir: Optional[str] = None,
    jobs: int = 1,
) -> dict[tuple, LaurentPoly]:
    """Accumulate q^(energy) over filtered paths, keyed per the scan mode."""
    shapes = tuple(RectShape(*s) for s in shapes)
    nchunks = max(1, min(jobs, len(enumerate_tableaux(shapes[0], n)) if shapes else 1))
    payloads = [
        (n, shapes, mode, args, grading, cache_dir, chunk, nchunks) for chunk in range(nchunks)
    ]
    if nchunks == 1:
        chunks = [_scan_chunk(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=nchunks) as pool:
            chunks = list(pool.map(_scan_chunk, payloads))
    merged: dict[tuple, LaurentPoly] = {}
    for chunk in chunks:
        for key, pairs in chunk:
            merged[key] = merged.get(key, LaurentPoly.zero()) + LaurentPoly(pairs)
    return merged


def kostka_classical(
    spec: CrystalSpec,
    lam: Iterable[int],
    cache_dir: Optional[str] = None,
    jobs: int = 1,
) -> LaurentPoly:
    """Sum of q^(path energy) over classically restricted paths of content lam."""
    spec.validate()
    target = normalize_content(lam, spec.n)
    table = scan_paths(
        spec.n, spec.shapes, "classical", (target,), ("plain", None), cache_dir, jobs
    )
    return table.get(target, LaurentPoly.zero())


def kostka_level(
    spec: CrystalSpec, cache_dir: Optional[str] = None, jobs: int = 1
) -> LaurentPoly:
    """Sum of q^(energy) over level-restricted paths producing LambdaPrime."""
    spec.validate()
    if spec.lam is None:
        raise ValueError("level polynomial needs a restriction weight Lambda")
    lam_prime = spec.resolved_lam_prime()
    table = scan_paths(
        spec.n,
        spec.shapes,
        "level",
        (spec.lam, lam_prime),
        spec.grading(),
        cache_dir,
        jobs,
    )
    return table.get((), LaurentPoly.zero())


def weight_energy_table(
    spec_like,
    grading: Grading,
    cache_dir: Optional[str] = None,
    jobs: int = 1,
) -> dict[tuple, LaurentPoly]:
    """content -> sum of q^(energy) over the whole tensor product."""
    n, shapes = spec_like
    return scan_paths(n, shapes, "table", (), grading, cache_dir, jobs)


# ---------------------------------------------------------------------------
# q = 1 oracle: Schur polynomial product expansion by leading-term peeling


def _partition_of_shape(s: RectShape) -> tuple[int, ...]:
    return (s.cols,) * s.rows


@functools.lru_cache(maxsize=None)
def schur_monomials(partition: tuple[int, ...], n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Monomial expansion of the Schur polynomial in n variables, computed by
    enumerating column-strict fillings of the partition shape."""
    partition = tuple(x for x in partition if x)
    if any(partition[i] < partition[i + 1] for i in range(len(partition) - 1)):
        raise ValueError("not a partition: %s" % (partition,))
    if len(partition) > n:
        return ()
    counts: dict[tuple[int, ...], int] = {}
    rows = [[0] * width for width in partition]

    def fill(r: int, c: int):
        if r == len(partition):
            content = [0] * n
            for row in rows:
                for x in row:
                    content[x - 1] += 1
            key = tuple(content)
            counts[key] = counts.get(key, 0) + 1
            return
        nr, nc = (r, c + 1) if c + 1 < partition[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0 and c < partition[r - 1]:
            lo = max(lo, rows[r - 1][c] + 1)
        for x in range(lo, n + 1):
            rows[r][c] = x
            fill(nr, nc)
        rows[r][c] = 0

    if not partition:
        counts[(0,) * n] = 1
    else:
        fill(0, 0)
    return tuple(sorted(counts.items()))


def _dict_product(a: dict, b: dict, n: int) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            total = out.get(key, 0) + va * vb
            if total:
                out[key] = total
            elif key in out:
                del out[key]
    return out


def schur_expand(monomials: dict, n: int) -> dict[tuple[int, ...], int]:
    """Write a symmetric polynomial as a sum of Schur polynomials by repeated
    subtraction of the lexicographically leading term."""
    work = {k: v for k, v in monomials.items() if v}
    out: dict[tuple[int, ...], int] = {}
    while work:
        lead = max(work)
        coeff = work[lead]
        if any(lead[i] < lead[i + 1] for i in range(n - 1)) or min(lead) < 0:
            raise ValueError("leading term %s is not a partition; not Schur-positive" % (lead,))
        out[lead] = coeff
        for mono, cnt in schur_monomials(lead, n):
            total = work.get(mono, 0) - coeff * cnt
            if total:
                work[mono] = total
            elif mono in work:
                del work[mono]
    return out


@functools.lru_cache(maxsize=None)
def _product_expansion(n: int, shapes: tuple[RectShape, ...]) -> dict[tuple[int, ...], int]:
    product = {(0,) * n: 1}
    for s in shapes:
        product = _dict_product(product, dict(schur_monomials(_partition_of_shape(s), n)), n)
    return schur_expand(product, n)


def multiplicity_oracle(spec: CrystalSpec, lam: Iterable[int]) -> int:
    """Multiplicity of the irreducible of highest weight lam in the product
    of the factor representations, via plain polynomial algebra."""
    spec.validate()
    target = normalize_content(lam, spec.n)
    return _product_expansion(spec.n, tuple(sorted(spec.shapes))).get(target, 0)


def classical_dimension(partition: Iterable[int], n: int) -> int:
    """Dimension of the irreducible with the given highest weight: the number
    of column-strict fillings with entries at most n."""
    key = tuple(x for x in partition if x)
    return sum(c for _, c in schur_monomials(key, n))
