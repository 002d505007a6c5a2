"""Exact weight and Weyl-group arithmetic for rank n >= 2.

Finite weights are integer vectors in Z^n.  Weights of the classical
(permutation) action are only meaningful modulo the all-ones vector, and all
comparisons that cross that quotient go through :func:`equal_mod_ones`.
Affine weights are (level, finite part, delta coefficient) triples; the null
direction delta carries the q-grading.  An affine Weyl group element
t_beta tau is the pair (beta, tau) of a sum-zero translation and a
coordinate permutation; its sign is the parity of tau, translations being
even.
"""

from __future__ import annotations

import itertools
import operator

from .signature import Record

Vector = tuple[int, ...]
Permutation = tuple[int, ...]


# ---------------------------------------------------------------------------
# integer vectors


def dot(a: Vector, b: Vector) -> int:
    if len(a) != len(b):
        raise ValueError("length mismatch: %d vs %d" % (len(a), len(b)))
    return sum(map(operator.mul, a, b))


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(map(operator.add, a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(map(operator.sub, a, b))


def guard_code(fields: int, bound: int) -> tuple[int, int]:
    """(width, guard) of a code of `fields` ints, field k at bit k * width (:func:`pack`), guard the
    top bit of every field.  If each field of a - b lies in [-bound, bound], no borrow crosses a
    field of a + guard - b, whose guard bit is set exactly where a - b is nonnegative."""
    width = bound.bit_length() + 1
    return width, sum(1 << (k * width + width - 1) for k in range(fields))


def pack(values, width: int) -> int:
    return sum(map(operator.lshift, values, itertools.count(0, width)))


def norm2(a: Vector) -> int:
    return sum(map(operator.mul, a, a))


def spread(a: Vector) -> int:
    return max(a) - min(a)


def rho_vector(n: int) -> Vector:
    """The staircase (n-1, n-2, ..., 1, 0), our fixed representative of the
    half-sum of positive roots.  Only differences of its entries are ever
    used, so the additive normalization is immaterial but fixed."""
    return tuple(range(n - 1, -1, -1))


def fundamental_vector(i: int, n: int) -> Vector:
    """Representative (1,...,1,0,...,0) with i ones; i = 0 gives the zero vector."""
    if not 0 <= i <= n - 1:
        raise ValueError("fundamental weight index out of range: %d" % i)
    return (1,) * i + (0,) * (n - i)


def equal_mod_ones(a: Vector, b: Vector) -> bool:
    """Equality in Z^n modulo the all-ones vector."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    d = a[0] - b[0]
    return all(x - y == d for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# permutations, stored as images: p[j] is the image of j+1 (values 1..n)


def perm_sign(p: Permutation) -> int:
    """(-1) to the number of inversions of p."""
    return -1 if sum(itertools.starmap(operator.gt, itertools.combinations(p, 2))) & 1 else 1


def times_reflection(beta: Vector, tau: Permutation, i: int) -> tuple[Vector, Permutation]:
    """(beta', tau') with t_beta' tau' = t_beta tau r_i.  For i != 0, tau'
    swaps the entries i and i+1 of tau.  For i = 0, r_0 is the translation
    by the highest root theta composed with the reflection through it, so
    beta' = beta + tau(theta) and tau' swaps the entries 1 and n."""
    a, b = (0, len(tau) - 1) if i == 0 else (i - 1, i)
    if i == 0:  # tau(theta) = e_tau(1) - e_tau(n)
        beta = list(beta)
        beta[tau[a] - 1] += 1
        beta[tau[b] - 1] -= 1
    swapped = list(tau)
    swapped[a], swapped[b] = tau[b], tau[a]
    return tuple(beta), tuple(swapped)


# ---------------------------------------------------------------------------
# affine weights


class LevelWeight(Record):
    """Affine weight written as (level, finite representative, delta coefficient).

    The finite part is an integer representative of a classical weight; two
    triples with the same level and delta part represent the same weight
    when their finite parts agree modulo the all-ones vector.
    """

    __slots__ = _fields = ("level", "finite", "delta")
    level: int
    finite: Vector
    delta: int

    def __init__(self, level: int, finite: Vector, delta: int = 0):
        if len(finite) < 2:
            raise ValueError("rank must be at least 2")
        super().__init__(level, tuple(finite), delta)

    @property
    def rank(self) -> int:
        return len(self.finite)

    @classmethod
    def vacuum(cls, n: int, level: int) -> "LevelWeight":
        """level * Lambda_0."""
        return cls(level, (0,) * n, 0)

    @classmethod
    def fundamental(cls, i: int, n: int) -> "LevelWeight":
        return cls(1, fundamental_vector(i, n), 0)

    def pairing(self, i: int) -> int:
        """<alpha_i^vee, self> for i in {0, ..., n-1}."""
        f = self.finite
        if i == 0:
            return self.level - (f[0] - f[-1])
        if not 1 <= i <= self.rank - 1:
            raise ValueError("index out of range: %d" % i)
        return f[i - 1] - f[i]

    def is_dominant(self) -> bool:
        return all(self.pairing(i) >= 0 for i in range(self.rank))

    def same_classical_weight(self, other: "LevelWeight") -> bool:
        """Equality disregarding the delta coefficient."""
        return self.level == other.level and equal_mod_ones(self.finite, other.finite)

    def __str__(self):
        return "LevelWeight(level=%d, finite=%s, delta=%d)" % (
            self.level,
            self.finite,
            self.delta,
        )
