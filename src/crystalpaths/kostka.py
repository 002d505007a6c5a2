"""Energy-graded generating polynomials of restricted paths.

Every polynomial here is a scan of the tensor product, which adds q^(energy)
over the paths of one target content whose tensor with the highest vector u
of a dominant weight Lambda is highest: killed by every e_i (affine), or by
the classical e_1..e_{n-1} only (classical).  A scan plan (:func:`scan_plan`)
sets up the guard code, element tables, b0 step and carry plan of a product
once and then scans any target: :func:`scan_paths` scans one, and each
alternating sum of bosonic scans all its fibres, classically against
Lambda, through one plan.  Paths are graded by plain path energy when
Lambda is a multiple of the affine fundamental weight at node 0, otherwise
by the energy of the path extended by the matching element b0 of a perfect
level-l crystal.

A scan places the factors leftmost first, appends the b0 tail last, and
grades each path as it grows (energy.grade), carrying one element per
shape.  The target content fixes the content R right of each factor x, and
phi_i of that suffix tensored with u is D_i = <h_i, Lambda> + R_i-1 - R_i;
by the signature rule the path is highest exactly when eps_i(x) <= D_i at
every x.  A state is (carried elements, R and the D_i packed into one int
with a guard bit atop each field) -> {energy: count}, and x passes by one
test of the guard bits (weights.guard_code, at a width the spec bounds).

An independent q=1 oracle expands the product of Schur polynomials by brute
force (:func:`schur_product`, which also counts the paths of each content)
and peels off leading terms, never touching crystal operators.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Sequence

from . import tableaux
from .energy import carry_plan, grade
from .laurent import LaurentPoly
from .paths import normalize_content, target_content
from .signature import Record
from .tableaux import RectShape
from .weights import LevelWeight, guard_code, pack


FACTOR_LIMIT = 5000  # the most elements of a factor crystal; B(7x1) at rank 14 has 3432, built in 0.7 s
TABLE_LIMIT = 10 ** 6  # the most pairs of one local table, 24 MB in lists; 2x3 (x) 2x3 at rank 6 has 240100


@functools.cache
def factor_size(n: int, s: RectShape) -> int:
    """|B(s)| at rank n, unbuilt: at least n and rows * cols + 1, and under those
    bounds the hook-content product over the cells (i, j) of (n + j - i) / hook,
    a column at a time.  ValueError for a height not below the rank, a width
    below 1 or a size over FACTOR_LIMIT."""
    if not 1 <= s.rows <= n - 1:
        raise ValueError("factor height %d must lie in 1..%d (below the rank)" % (s.rows, n - 1))
    if s.cols < 1:
        raise ValueError("factor width must be positive, got %d" % s.cols)
    size = max(n, s.rows * s.cols + 1)
    if size <= FACTOR_LIMIT:
        size = (math.prod(math.perm(n + j, s.rows) for j in range(s.cols))
                // math.prod(math.perm(s.rows + s.cols - 1 - j, s.rows) for j in range(s.cols)))
    if size > FACTOR_LIMIT:  # printed at most as 10^18, past which the product can have too many digits
        raise ValueError("factor %s at rank %d has at least %d elements, over FACTOR_LIMIT = %d"
                         % (s, n, min(size, 10 ** 18), FACTOR_LIMIT))
    return size


def check_tables(n: int, shapes: Sequence[RectShape]) -> None:
    """ValueError for a factor that factor_size refuses, or when the largest
    local table that grading a path of these factors builds (energy.carry_plan:
    each factor against every shape left of it) holds over TABLE_LIMIT pairs.
    A rank over FACTOR_LIMIT is refused for any product, the empty one too: a
    factor at rank n has at least n elements, and the sums over an empty
    product take time quadratic in n."""
    if n > FACTOR_LIMIT:
        raise ValueError("rank %d is over FACTOR_LIMIT = %d" % (n, FACTOR_LIMIT))
    sizes = [factor_size(n, s) for s in shapes]
    pairs = max(map(operator.mul, itertools.accumulate(sizes, max), sizes[1:]), default=0)
    if pairs > TABLE_LIMIT:
        raise ValueError("a local table would hold %d pairs, over TABLE_LIMIT = %d" % (pairs, TABLE_LIMIT))


class CrystalSpec(Record):
    """Rank, ordered factor shapes (leftmost first), and optional level data."""

    __slots__ = _fields = ("n", "shapes", "level", "lam", "lam_prime", "b0_shape")
    n: int
    shapes: tuple[RectShape, ...]
    level: int | None
    lam: LevelWeight | None
    lam_prime: LevelWeight | None
    b0_shape: RectShape | None

    def __init__(self, n: int, shapes: Sequence[RectShape], level: int | None = None,
                 lam: LevelWeight | None = None, lam_prime: LevelWeight | None = None,
                 b0_shape: RectShape | None = None):
        """ValueError for the first fault in a factor, level or weight, or a
        local table of the factors and the b0 tail that check_tables refuses.
        Level 0 is the formal level zero, of column factors alone; there a
        dominant Lambda or LambdaPrime is 0 modulo the all-ones vector."""
        super().__init__(n, tuple(RectShape(*s) for s in shapes), level, lam, lam_prime,
                         None if b0_shape is None else RectShape(*b0_shape))
        if n < 2:
            raise ValueError("rank must be at least 2, got %d" % n)
        if level == 0:
            if any(s.cols != 1 for s in self.shapes):
                raise ValueError("level-zero identity needs column factors")
        elif level is not None:
            if level < 1:
                raise ValueError("level must be at least 1, got %d" % level)
            for s in self.shapes:
                if s.cols > level:
                    raise ValueError("factor %s has level %d exceeding the spec level %d" % (s, s.cols, level))
        for name, w in (("Lambda", lam), ("LambdaPrime", lam_prime)):
            if w is None:
                continue
            if level is None:
                raise ValueError("%s given without a level" % name)
            if w.rank != n:
                raise ValueError("%s has rank %d, expected %d" % (name, w.rank, n))
            if w.level != level:
                raise ValueError("%s has level %d, expected %d" % (name, w.level, level))
            if not w.is_dominant():
                raise ValueError("%s is not dominant" % name)
        if self.b0_shape is not None:
            if level is None:
                raise ValueError("b0 shape given without a level")
            if not 1 <= self.b0_shape.rows <= n - 1:
                raise ValueError("b0 height %d must be below the rank" % self.b0_shape.rows)
            if self.b0_shape.cols != level:
                raise ValueError("b0 shape %s must have width equal to the level %d" % (self.b0_shape, level))
        check_tables(n, self.shapes + (() if lam is None or self.is_vacuum()
                                       else (self.resolved_b0_shape(),)))  # the b0 tail

    def total_boxes(self) -> int:
        return sum(s.rows * s.cols for s in self.shapes)

    def resolved_lam_prime(self) -> LevelWeight:
        """LambdaPrime, which defaults to Lambda; ValueError without Lambda."""
        if self.lam is None:
            raise ValueError("Lambda, the restriction weight, is required")
        return self.lam_prime if self.lam_prime is not None else self.lam

    def target(self) -> tuple[int, ...] | None:
        """The content of the paths that produce LambdaPrime from Lambda
        (paths.target_content); ValueError without Lambda."""
        return target_content(self.lam, self.resolved_lam_prime(), self.total_boxes())

    def resolved_b0_shape(self) -> RectShape:
        return self.b0_shape if self.b0_shape is not None else RectShape(1, self.level)

    def is_vacuum(self) -> bool:
        """True when the restriction weight is the level multiple of the
        node-0 fundamental weight: as Lambda has the spec's level, when its
        entries are all equal."""
        return self.lam is not None and len(set(self.lam.finite)) == 1

    def b0(self) -> tuple[RectShape, int] | None:
        """The factor appended on the right of every path before it is
        graded, as (shape, element index): None for a vacuum (or absent)
        restriction weight, else the element b0 of the grading crystal with
        phi(b0) = Lambda."""
        if self.lam is None or self.is_vacuum():
            return None
        shape = self.resolved_b0_shape()
        crystal = tableaux.RectCrystal(self.n, shape)
        return shape, crystal.unique(crystal.phi, map(self.lam.pairing, range(self.n)))


# ---------------------------------------------------------------------------
# the transfer-matrix scan


@functools.cache
def _scan_table(n: int, shape: RectShape, affine: bool, width: int) -> tuple:
    """(x, N_x, M_x) per element x of B(shape) in scan_plan's code of that width."""
    crystal, indices = tableaux.RectCrystal(n, shape), range(0 if affine else 1, n)
    steps = [[c[i - 1] - c[i] for i in indices] for c in crystal.content]
    need = [[crystal.eps[i][x] + d for i, d in zip(indices, s)] for x, s in enumerate(steps)]
    return tuple((x, pack([*c, *need[x]], width), pack([*c, *steps[x]], width))
                 for x, c in enumerate(crystal.content))


def scan_plan(n: int, shapes: Sequence[RectShape], lam: LevelWeight, affine: bool,
              b0: tuple[RectShape, int] | None = None) -> Callable[[tuple[int, ...]], LaurentPoly]:
    """The scan of one product set up once, as a function of the target
    content: the sum of q^(energy of the path followed by b0, if given, the
    element b0[1] of B(b0[0])) over the paths of that content whose tensor
    with the highest vector of lam is highest, killed by every e_i when
    affine, by the classical e_i (i = 1..n-1) otherwise.  The state int H packs R = target
    - prefix content and D_i = R_i-1 - R_i + <h_i, lam> per restricted i
    (R_-1 = R_n-1).  Element x of content c passes iff no field of H - N_x
    is negative, N_x = (c, eps_i(x) + c_i-1 - c_i), and leads to H - M_x,
    M_x = (c, c_i-1 - c_i).  The fields of a surviving state lie in [0,
    boxes + <h_i, lam>], of the first state within boxes + |<h_i, lam>| of
    0, of N_x in [-cells, 2 cells]: the code's bound, which no target moves."""
    shapes = tuple(RectShape(*s) for s in shapes)
    boxes = sum(s.rows * s.cols for s in shapes)
    indices = range(0 if affine else 1, n)
    lam_i = list(map(lam.pairing, indices))
    width, guard = guard_code(n + len(indices), boxes + max(map(abs, lam_i), default=0)
                              + 2 * max((s.rows * s.cols for s in shapes), default=0))
    steps = [(guard, _scan_table(n, shape, affine, width)) for shape in shapes]
    if b0 is not None:  # graded against, but neither counted nor restricted: no guard bit tested
        steps.append((0, [(b0[1], 0, 0)]))
    kinds, plan = carry_plan(n, shapes + (() if b0 is None else (b0[0],)))

    def scan(target: tuple[int, ...]) -> LaurentPoly:
        if min(target) < 0 or sum(target) != boxes:
            return LaurentPoly.zero()  # no path has this content
        start = pack([*target, *(target[i - 1] - target[i] + p for i, p in zip(indices, lam_i))], width)
        # (carried, H) -> {energy: count}; carried[s] is the latest factor of
        # kind s carried right past every later factor, -1 before the first
        states = {((-1,) * kinds, start): {0: 1}}
        for (mask, elements), step in zip(steps, plan):
            grown: dict[tuple, dict[int, int]] = {}
            for (carried, state), energies in states.items():
                top = state + mask
                for x, need, move in elements:
                    if (top - need) & mask != mask:
                        continue
                    h, moved = grade(step, x, carried)
                    bucket = grown.setdefault((moved, state - move), {})
                    for e, count in energies.items():
                        bucket[e + h] = bucket.get(e + h, 0) + count
            states = grown
        # every surviving state has remaining content zero
        return LaurentPoly([pair for energies in states.values() for pair in energies.items()])
    return scan


def scan_paths(n: int, shapes: Sequence[RectShape], target: tuple[int, ...], lam: LevelWeight,
               affine: bool, b0: tuple[RectShape, int] | None = None) -> LaurentPoly:
    """The scan of one target content (:func:`scan_plan`)."""
    return scan_plan(n, shapes, lam, affine, b0)(target)


def kostka_classical(spec: CrystalSpec, lam: Iterable[int]) -> LaurentPoly:
    """Sum of q^(path energy) over classically restricted paths of content
    lam: the classical scan against the zero weight."""
    target = normalize_content(lam, spec.n)
    return scan_paths(spec.n, spec.shapes, target, LevelWeight.vacuum(spec.n, 0), False)


def kostka_level(spec: CrystalSpec) -> LaurentPoly:
    """Sum of q^(energy) over level-restricted paths producing LambdaPrime:
    the restricted paths of the one content c with Lambda + c equal to
    LambdaPrime modulo the all-ones vector."""
    target = spec.target()
    if target is None:  # no path has a content that produces LambdaPrime
        return LaurentPoly.zero()
    return scan_paths(spec.n, spec.shapes, target, spec.lam, True, spec.b0())


# ---------------------------------------------------------------------------
# q = 1 oracle: Schur polynomial product expansion by leading-term peeling


def schur_monomials(partition: tuple[int, ...], n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Monomial expansion of the Schur polynomial in n variables: the contents
    of the column-strict fillings of the partition shape, counted."""
    counts = collections.Counter(tableaux.filling_content(rows, n) for rows in tableaux.fillings(partition, n))
    return tuple(sorted(counts.items()))


def _dict_product(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
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
def schur_product(n: int, shapes: tuple[RectShape, ...]) -> dict[tuple[int, ...], int]:
    """content -> number of paths of that content in the product of the
    factor crystals: the monomial expansion of the product of their Schur
    polynomials, which is symmetric in the content."""
    product = {(0,) * n: 1}
    for s in shapes:
        product = _dict_product(product, dict(schur_monomials((s.cols,) * s.rows, n)))
    return product


def multiplicity_oracle(spec: CrystalSpec, lam: Iterable[int]) -> int:
    """Multiplicity of the irreducible of highest weight lam in the product
    of the factor representations, via plain polynomial algebra."""
    target = normalize_content(lam, spec.n)
    return schur_expand(schur_product(spec.n, tuple(sorted(spec.shapes))), spec.n).get(target, 0)
