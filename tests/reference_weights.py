"""Affine Weyl group elements as validated records.

The program keeps a grid point t_beta tau of the alternating sums as a
plain (beta, tau) pair and multiplies it by a simple reflection with
weights.times_reflection.  The tests certify that against the element
written out below: it validates its translation and permutation, acts on
affine weights, and composes with r_i through permutation composition.
The permutation and vector helpers it needs, and the simple reflection of
an affine weight, live here too: the program uses none of them.
"""

from crystalpaths.signature import CertificateError, Record
from crystalpaths.weights import LevelWeight, Permutation, Vector, dot, norm2, perm_sign, vadd


def vscale(c: int, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def theta_vector(n: int) -> Vector:
    """Highest root e_1 - e_n."""
    return (1,) + (0,) * (n - 2) + (-1,)


def perm_apply(p: Permutation, v: Vector) -> Vector:
    """Permute coordinates, sending e_j to e_{p(j)}."""
    out = [0] * len(p)
    for j, img in enumerate(p):
        out[img - 1] = v[j]
    return tuple(out)


def perm_inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for j, img in enumerate(p):
        out[img - 1] = j + 1
    return tuple(out)


def reflect_weight(lam: LevelWeight, i: int) -> LevelWeight:
    """Simple reflection r_i; r_0 acts through the highest root and shifts delta."""
    n = lam.rank
    if i == 0:
        c = lam.pairing(0)
        return LevelWeight(lam.level, vadd(lam.finite, vscale(c, theta_vector(n))), lam.delta - c)
    if not 1 <= i <= n - 1:
        raise ValueError("index out of range: %d" % i)
    f = list(lam.finite)
    f[i - 1], f[i] = f[i], f[i - 1]
    return LevelWeight(lam.level, tuple(f), lam.delta)


def perm_identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def perm_compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(j) = p(q(j))."""
    return tuple(p[q[j] - 1] for j in range(len(p)))


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
        super().__init__(beta, tau)

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
