"""Exact weight and Weyl-group arithmetic for rank n >= 2.

Finite weights are integer vectors in Z^n.  Weights of the classical
(permutation) action are only meaningful modulo the all-ones vector, and all
comparisons that cross that quotient go through :func:`equal_mod_ones`.
Affine weights are (level, finite part, delta coefficient) triples; the null
direction delta carries the q-grading.  Affine Weyl group elements are pairs
(translation by a sum-zero vector, coordinate permutation) and sign equals
the permutation parity, translations being even.
"""

from __future__ import annotations

import itertools

from .signature import CertificateError, Record

Vector = tuple[int, ...]
Permutation = tuple[int, ...]


# ---------------------------------------------------------------------------
# integer vectors


def dot(a: Vector, b: Vector) -> int:
    if len(a) != len(b):
        raise ValueError("length mismatch: %d vs %d" % (len(a), len(b)))
    return sum(x * y for x, y in zip(a, b))


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c: int, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def norm2(a: Vector) -> int:
    return sum(x * x for x in a)


def spread(a: Vector) -> int:
    return max(a) - min(a)


def rho_vector(n: int) -> Vector:
    """The staircase (n-1, n-2, ..., 1, 0), our fixed representative of the
    half-sum of positive roots.  Only differences of its entries are ever
    used, so the additive normalization is immaterial but fixed."""
    return tuple(range(n - 1, -1, -1))


def theta_vector(n: int) -> Vector:
    """Highest root e_1 - e_n."""
    return (1,) + (0,) * (n - 2) + (-1,)


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


def perm_identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def perm_apply(p: Permutation, v: Vector) -> Vector:
    """Permute coordinates, sending e_j to e_{p(j)}."""
    out = [0] * len(p)
    for j, img in enumerate(p):
        out[img - 1] = v[j]
    return tuple(out)


def perm_compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(j) = p(q(j))."""
    return tuple(p[q[j] - 1] for j in range(len(p)))


def perm_inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for j, img in enumerate(p):
        out[img - 1] = j + 1
    return tuple(out)


def perm_sign(p: Permutation) -> int:
    sign = 1
    for a, b in itertools.combinations(range(len(p)), 2):
        if p[a] > p[b]:
            sign = -sign
    return sign


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
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "finite", tuple(finite))
        object.__setattr__(self, "delta", delta)

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

    def reflect(self, i: int) -> "LevelWeight":
        """Simple reflection r_i; r_0 acts through the highest root and shifts delta."""
        n = self.rank
        if i == 0:
            c = self.pairing(0)
            return LevelWeight(
                self.level,
                vadd(self.finite, vscale(c, theta_vector(n))),
                self.delta - c,
            )
        if not 1 <= i <= n - 1:
            raise ValueError("index out of range: %d" % i)
        f = list(self.finite)
        f[i - 1], f[i] = f[i], f[i - 1]
        return LevelWeight(self.level, tuple(f), self.delta)

    def __str__(self):
        return "LevelWeight(level=%d, finite=%s, delta=%d)" % (
            self.level,
            self.finite,
            self.delta,
        )


# ---------------------------------------------------------------------------
# affine Weyl group elements  w = t_beta . tau


class AffineWeylElement(Record):
    """w = (translation by beta) composed after the permutation tau.

    beta lies in the sum-zero lattice; sign(w) is the parity of tau, the
    translation part being a product of an even number of reflections.
    """

    __slots__ = _fields = ("beta", "tau")
    beta: Vector
    tau: Permutation

    def __init__(self, beta: Vector, tau: Permutation):
        if len(beta) != len(tau):
            raise ValueError("translation and permutation rank mismatch")
        if sum(beta) != 0:
            raise ValueError("translation %s has nonzero coordinate sum" % (beta,))
        if sorted(tau) != list(range(1, len(tau) + 1)):
            raise ValueError("invalid permutation %s" % (tau,))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "tau", tau)

    @classmethod
    def identity(cls, n: int) -> "AffineWeylElement":
        return cls((0,) * n, perm_identity(n))

    @property
    def rank(self) -> int:
        return len(self.tau)

    @property
    def sign(self) -> int:
        return perm_sign(self.tau)

    def act(self, w: LevelWeight) -> LevelWeight:
        """Apply tau, then translate: t_beta(L) = L + level*beta - ((L|beta) + |beta|^2 level / 2) delta."""
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        f = perm_apply(self.tau, w.finite)
        level = w.level
        sq = norm2(self.beta)
        if sq % 2:
            raise CertificateError("sum-zero vectors have even square norm")
        shift = dot(f, self.beta) + level * sq // 2
        return LevelWeight(level, vadd(f, vscale(level, self.beta)), w.delta - shift)

    def compose_reflection(self, i: int) -> "AffineWeylElement":
        """Right-multiply by the simple reflection r_i.

        For i != 0 the permutation absorbs the transposition (i, i+1).  For
        i = 0, since r_0 is the translation by the highest root composed
        with the reflection through it, w r_0 translates by beta + tau(theta)
        and the permutation absorbs the transposition (1, n).
        """
        n = self.rank
        if i == 0:
            beta, a, b = vadd(self.beta, perm_apply(self.tau, theta_vector(n))), 1, n
        elif 1 <= i <= n - 1:
            beta, a, b = self.beta, i, i + 1
        else:
            raise ValueError("reflection index out of range: %d" % i)
        swap = list(range(1, n + 1))
        swap[a - 1], swap[b - 1] = b, a
        return AffineWeylElement(beta, perm_compose(self.tau, tuple(swap)))
