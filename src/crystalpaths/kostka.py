"""Energy-graded generating polynomials of restricted paths.

Every polynomial here reads one scan of the tensor product
(:func:`scan_paths`), which adds q^(energy) per path into a table keyed by
content.  A scan may target one content and may restrict the paths.  The
classical polynomial is the entry at the content lam of the scan restricted
to paths killed by every classical raising operator.  The level polynomial
is the entry at the one content c with Lambda + c equal to LambdaPrime
modulo the all-ones vector, of the scan restricted to paths whose tensor
against a formal highest weight vector of Lambda is again highest; when no
such content exists nothing is scanned.  The unrestricted scan is the
content table that the alternating sums read.  Paths are graded by plain
path energy when Lambda is a multiple of the affine fundamental weight at
node 0, where the extra grading factor is unnecessary, and otherwise by the
energy of the path extended by the matching element b0 of a perfect
level-l crystal, resolved once per scan.

A scan walks the suffixes b_k (x) ... (x) b_1 (x) b0 depth first, placing
factors right to left from the b0 tail.  A suffix carries its energy, its
content (b0 excluded; compared with the target only at full length) and,
when restricted, phi_i of the suffix tensored with the highest vector u,
from <h_i, Lambda> for every affine index i or from 0 for the classical
ones.  Placing x left of y_k (x) ... (x) y_1 adds H(x (x) y_k) + H(x' (x)
y_(k-1)) + ..., x' being x carried past y_k by the local isomorphism, as in
path_energy: O(k) lookups per suffix, not O(L^2) per path, each read
straight from the flat lists of an energy.LocalIsoTable (H, and the b2'
list as the carry).  By the signature rule a suffix S with eps_i(S) = 0
keeps it under x exactly when eps_i(x) <= phi_i(S), and then phi_i becomes
phi_i(S) - eps_i(x) + phi_i(x); otherwise the walk cuts S and every path
that ends in it.  A restricted walk is pruned far below |B|^L paths and
runs in the calling process; an unrestricted one may be shared out among
worker processes.

An independent q=1 oracle expands the product of Schur polynomials by brute
force and peels off leading terms, never touching crystal operators.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from . import tableaux
from .energy import get_local_table, phi_matching_element
from .laurent import LaurentPoly
from .paths import normalize_content, target_content
from .tableaux import RectShape, Tableau
from .weights import LevelWeight


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

    def b0_tail(self) -> tuple[Tableau, ...]:
        """The factors appended on the right of every path before it is
        graded: none for a vacuum (or absent) restriction weight, else the
        element b0 of the grading crystal with phi(b0) = Lambda."""
        if self.lam is None or self.is_vacuum():
            return ()
        return (phi_matching_element(self.n, self.resolved_b0_shape(), self.lam),)


# ---------------------------------------------------------------------------
# the suffix walk, optionally shared out among worker processes

CLASSICAL = "classical"

# On a shared 2-core x86_64 VM (Python 3.11) a 2-worker pool, its import
# included, lost at 65536 paths (n=4, eight 1x1 factors: 0.150 s in-process,
# 0.248 s) and won at 262144 (nine: 0.718 s, 0.504 s); "pool_threshold" in
# BENCH_suffix_walk.json has every figure.
MIN_PATHS_PER_WORKER = 50000


def _scan_chunk(payload):
    """Walk this chunk's share of the suffix tree laid out by scan_paths and
    count its leaves by (encoded content, energy)."""
    levels, tail, target, phi0, split, chunk, nchunks = payload
    last = len(levels) - 1
    counts: dict[tuple[int, int], int] = {}
    ordinal = itertools.count()

    def walk(depth, suffix, energy, code, phi):
        elements, meets = levels[depth]
        for x, (content, eps, delta) in enumerate(elements):
            if depth == last and target is not None and code + content != target:
                continue
            grown = phi
            if phi is not None:
                if not all(map(operator.le, eps, phi)):
                    continue
                grown = tuple(map(operator.add, phi, delta))
            if depth == split and next(ordinal) % nchunks != chunk:
                continue
            h, b = energy, x
            for (heights, carry, width), y in zip(meets, suffix):
                k = b * width + y
                h += heights[k]
                b = carry[k]
            if depth == last:
                key = (code + content, h)
                counts[key] = counts.get(key, 0) + 1
            else:
                walk(depth + 1, (x,) + suffix, h, code + content, grown)

    if levels:
        walk(0, tail, 0, 0, phi0)
    else:  # the empty path, in the one chunk there is
        counts[(0, 0)] = 1
    return sorted(counts.items())


def scan_paths(
    n: int,
    shapes: Sequence[RectShape],
    target: Optional[tuple[int, ...]] = None,
    restricted: Union[None, str, LevelWeight] = None,
    b0_tail: tuple[Tableau, ...] = (),
    cache_dir: Optional[str] = None,
    jobs: int = 1,
) -> dict[tuple, LaurentPoly]:
    """content -> sum of q^(energy of the path followed by b0_tail, at most
    one factor) over the paths of content target (all when None) that are
    restricted: classically highest for CLASSICAL, highest against the
    highest vector of Lambda for a LevelWeight Lambda.  The local tables are
    read in this process.  A restricted scan runs in this process too; an
    unrestricted one starts a pool of at most jobs workers when each gets at
    least MIN_PATHS_PER_WORKER paths."""
    shapes = tuple(RectShape(*s) for s in shapes)
    if len(b0_tail) > 1:
        raise ValueError("the walk grows from at most one tail factor")
    boxes = sum(s.rows * s.cols for s in shapes)
    if target is not None and (min(target) < 0 or sum(target) != boxes):
        return {}  # no path has this content
    base = boxes + 1  # a content's coordinates are its digits in this base

    def encode(content):
        return sum(c * base**i for i, c in enumerate(content))

    if restricted is None:
        indices, phi0 = (), None
    elif restricted == CLASSICAL:
        indices, phi0 = range(1, n), (0,) * (n - 1)
    else:
        indices = range(n)
        phi0 = tuple(map(restricted.pairing, indices))
    met = [t.shape for t in b0_tail]  # shapes right of the factor placed next
    levels = []
    for shape in reversed(shapes):
        crystal = tableaux.RectCrystal(n, shape)
        elements = [(encode(content), tuple(crystal.eps[i][x] for i in indices),
                     tuple(crystal.phi[i][x] - crystal.eps[i][x] for i in indices))
                    for x, content in enumerate(crystal.content)]
        tables = [get_local_table(n, shape, other, cache_dir) for other in reversed(met)]
        levels.append((elements, [(t.energy, t.image2, t.width) for t in tables]))
        met.append(shape)
    tail = tuple(tableaux.RectCrystal(n, t.shape).index[t] for t in b0_tail)
    code = None if target is None else encode(target)

    sizes = list(itertools.accumulate((len(e) for e, _ in levels), operator.mul)) or [1]
    # a restricted scan is pruned far below the full product: it runs here
    nchunks = 1 if restricted is not None else max(1, min(jobs, sizes[-1] // MIN_PATHS_PER_WORKER))
    # workers share out the suffixes that survive at the first depth offering
    # 64 per worker, and each walks the short stretch above that depth
    split = next((d for d, size in enumerate(sizes) if size >= 64 * nchunks), len(sizes) - 1)
    payloads = [(levels, tail, code, phi0, split, chunk, nchunks) for chunk in range(nchunks)]
    if nchunks == 1:
        chunks = [_scan_chunk(payloads[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=nchunks) as pool:
            chunks = list(pool.map(_scan_chunk, payloads))
    merged: dict[tuple, dict[int, int]] = {}
    for chunk in chunks:
        for (key, exp), count in chunk:
            bucket = merged.setdefault(tuple(key // base**i % base for i in range(n)), {})
            bucket[exp] = bucket.get(exp, 0) + count
    return {key: LaurentPoly(bucket) for key, bucket in sorted(merged.items())}


def kostka_classical(
    spec: CrystalSpec,
    lam: Iterable[int],
    cache_dir: Optional[str] = None,
    jobs: int = 1,
) -> LaurentPoly:
    """Sum of q^(path energy) over classically restricted paths of content lam."""
    spec.validate()
    target = normalize_content(lam, spec.n)
    table = scan_paths(spec.n, spec.shapes, target, CLASSICAL, (), cache_dir, jobs)
    return table.get(target, LaurentPoly.zero())


def kostka_level(
    spec: CrystalSpec, cache_dir: Optional[str] = None, jobs: int = 1
) -> LaurentPoly:
    """Sum of q^(energy) over level-restricted paths producing LambdaPrime:
    the restricted paths of the one content c with Lambda + c equal to
    LambdaPrime modulo the all-ones vector."""
    spec.validate()
    if spec.lam is None:
        raise ValueError("level polynomial needs a restriction weight Lambda")
    target = target_content(spec.lam, spec.resolved_lam_prime(), spec.total_boxes())
    if target is None:  # no path has a content that produces LambdaPrime
        return LaurentPoly.zero()
    table = scan_paths(
        spec.n, spec.shapes, target, spec.lam, spec.b0_tail(), cache_dir, jobs
    )
    return table.get(target, LaurentPoly.zero())


def weight_energy_table(
    spec: CrystalSpec, cache_dir: Optional[str] = None, jobs: int = 1
) -> dict[tuple, LaurentPoly]:
    """content -> sum of q^(energy) over the whole tensor product, graded
    with the spec's b0 tail.  When the spec has a restriction weight and no
    content produces LambdaPrime, no sum of the spec reads the table, and
    it is {} without a scan."""
    if spec.lam is not None and target_content(
        spec.lam, spec.resolved_lam_prime(), spec.total_boxes()
    ) is None:
        return {}
    return scan_paths(
        spec.n, spec.shapes, b0_tail=spec.b0_tail(), cache_dir=cache_dir, jobs=jobs
    )


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
