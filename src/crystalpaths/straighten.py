"""Straightening of signed q-weighted Schur symbols at a fixed level.

A symbol (sign, q-power, alpha) stands for sign * q^qpow * s_alpha where
alpha is an arbitrary integer vector.  Two rewrite moves preserve the symbol
class while flipping the sign: for 1 <= i <= n-1 the entries (a_i, a_{i+1})
become (a_{i+1} - 1, a_i + 1), and for i = 0 the vector becomes
(l + 1 + a_n, a_2, ..., a_{n-1}, -1 - l + a_1) while the q-power grows by
l + 1 - a_1 + a_n.  On the staircase-shifted vector mu = alpha + rho these
moves are the adjacent swap and the affine swap-and-translate at level
m = l + n, so a symbol normalizes to zero exactly when two entries of mu
collide modulo m, and otherwise to a unique dominant representative whose
sign is a permutation parity and whose q-power is recovered from the
translation part of the normalizing group element.  normalize computes
that representative in closed form; the tests hold the literal rewrites.

The bridge to the alternating sum (:func:`bosonic_via_straightening`)
re-derives it by normalizing one symbol per dominant content.
"""

from __future__ import annotations

from .bosonic import _dominant_contents
from .kostka import CrystalSpec, scan_plan, schur_product
from .laurent import LaurentPoly
from .signature import CertificateError, Record
from .weights import Vector, dot, equal_mod_ones, norm2, perm_sign, rho_vector, vadd, vsub

NormalForm = tuple[int, int, Vector]  # (sign, q-power, dominant vector)


class SchurSymbol(Record):
    __slots__ = _fields = ("alpha", "level", "sign", "qpow")
    alpha: Vector
    level: int
    sign: int
    qpow: int

    def __init__(self, alpha: Vector, level: int, sign: int = 1, qpow: int = 0):
        alpha = tuple(alpha)
        if len(alpha) < 2:
            raise ValueError("rank must be at least 2")
        if level < 1:
            raise ValueError("level must be at least 1, got %d" % level)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        super().__init__(alpha, level, sign, qpow)

    @property
    def rank(self) -> int:
        return len(self.alpha)


def normalize(sym: SchurSymbol) -> NormalForm | None:
    """Closed-form normal form: None when the symbol vanishes, else the
    (sign, q-power, dominant alpha) of its unique reduced representative.

    The shifted vector mu = alpha + rho is carried to the unique strictly
    decreasing window representative nu with the same coordinate sum and
    residues modulo m = level + n.  Writing nu as a permutation of mu plus m
    times a sum-zero translation beta, the accumulated sign is the
    permutation parity and the q-power is (permuted mu | beta) + m|beta|^2/2.
    """
    n = sym.rank
    m = sym.level + n
    rho = rho_vector(n)
    mu = vadd(sym.alpha, rho)
    residues = [x % m for x in mu]
    if len(set(residues)) < n:
        return None
    ascending = sorted(residues)
    shift_total = sum(mu) - sum(residues)
    blocks, extra = divmod(shift_total // m, n)
    bumped = set(ascending[:extra])
    nu = tuple(
        sorted((r + m * blocks + (m if r in bumped else 0) for r in residues), reverse=True)
    )
    if sum(nu) != sum(mu) or any(nu[i] <= nu[i + 1] for i in range(n - 1)) or nu[0] - nu[-1] >= m:
        raise CertificateError("%s is not the window representative of %s" % (nu, mu))

    by_residue = {x % m: j for j, x in enumerate(mu)}
    perm = [0] * n
    beta = [0] * n
    for i, value in enumerate(nu):
        j = by_residue[value % m]
        perm[j] = i + 1
        beta[i] = (value - mu[j]) // m
    if sum(beta):
        raise CertificateError("translation %s does not sum to zero" % (beta,))
    tau_mu = vsub(nu, tuple(m * b for b in beta))
    qpow = dot(tau_mu, tuple(beta)) + m * norm2(tuple(beta)) // 2
    return (
        sym.sign * perm_sign(tuple(perm)),
        sym.qpow + qpow,
        vsub(nu, rho),
    )


def bosonic_via_straightening(spec: CrystalSpec) -> LaurentPoly:
    """Re-derive the alternating sum by normalizing one Schur symbol per
    dominant content, independently of the residue walk of
    bosonic._fiber_points: the sum of the normal form sign q^qpow of the
    symbol Lambda + c times the classical fibre X_c over the dominant c whose
    normal form's vector is LambdaPrime modulo the all-ones vector."""
    lam_prime = spec.resolved_lam_prime()
    scan = scan_plan(spec.n, spec.shapes, spec.lam, False, spec.b0())
    total = LaurentPoly.zero()
    for content in _dominant_contents(spec.lam, schur_product(spec.n, tuple(sorted(spec.shapes)))):
        image = normalize(SchurSymbol(vadd(spec.lam.finite, content), spec.level))
        if image is None:
            continue
        sign, qpow, beta = image
        if equal_mod_ones(beta, lam_prime.finite):
            total = total + LaurentPoly.q_power(qpow, sign) * scan(content)
    return total
