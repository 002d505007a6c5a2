"""Alternating affine Weyl sums for restricted path generating functions.

The level polynomial of a tensor product has a closed alternating form: sum
over coordinate permutations tau and sum-zero translations beta of
(-1)^tau q^(E(b) + (Lambda' + rho | beta) - |beta|^2 (l + n)/2) over the
paths b whose content is congruent, modulo the all-ones vector, to

    -Lambda - rho + tau^{-1}(Lambda' - (l + n) beta + rho).

A content is read by at most one grid point (:func:`_fiber_points`), none
when the identity point's content (:func:`paths.target_content`) does not
exist, and the contents of one beta form an S_n orbit: the c whose c -
target + Lambda' + rho share their entries.  :func:`read_fibres` is the one
read map.  It groups the contents of kostka.schur_product by orbit in one
pass and reads each orbit at its dominant member, the c with Lambda + c
weakly decreasing (the Brauer-Klimyk form), when that is a product content:
each fibre's grid point, its orbit's count of paths and its members, each
with its tau.  The sum's term of a fibre is sign(tau) q^exponent times the
scan of its dominant content restricted classically against Lambda (one
kostka.scan_plan per sum), and the summand count adds the orbit's count;
the level-zero pairing reads every member.  Every product content lies in
the box of radius :func:`truncation_bound`; the read map checks this on
every content it reads and raises CertificateError where it fails, so one
sum per spec serves the box and every wider one.

The closed evaluations at level one and level zero, with the level-zero
pairing, live in pairing, and the straightening form of the sum in
straighten; ``bosonic.X`` binds each on first use (:func:`__getattr__`), so
that importing this module compiles neither.
"""

from __future__ import annotations

import importlib
import operator

from . import tableaux
from .energy import zero_side_moves
from .kostka import CrystalSpec, scan_plan, schur_product
from .laurent import LaurentPoly
from .signature import CertificateError, Record
from .weights import dot, norm2, perm_sign, rho_vector, spread, vadd

MOVED = {"level_one_identity": "pairing", "level_zero_identity": "pairing",
         "level_zero_pairing": "pairing", "bosonic_via_straightening": "straighten"}


def __getattr__(name: str):
    """A name of MOVED, imported from its module and bound here on first use."""
    if name not in MOVED:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value = getattr(importlib.import_module("." + MOVED[name], __package__), name)
    return value


class AlternatingSumResult(Record):
    __slots__ = _fields = ("polynomial", "summand_count", "truncation_bound")
    polynomial: LaurentPoly
    summand_count: int
    truncation_bound: int


def truncation_bound(n: int, ell: int, lam_finite, lam_prime_finite, shapes) -> int:
    """Box radius outside which every content fiber is empty.

    A content vector of the tensor product has coordinate spread at most the
    number of boxes N, so (l+n) * spread(beta) can exceed N plus the spreads
    of the shifted restriction weights only on empty fibers."""
    rho, boxes = rho_vector(n), sum(s[0] * s[1] for s in shapes)
    reach = boxes + spread(vadd(lam_finite, rho)) + spread(vadd(lam_prime_finite, rho))
    return -(-reach // (ell + n))


def _fiber_points(m: int, lamp_rho, target, bound: int, contents):
    """Yield (tau, sign, beta, content, exponent) for the one grid point of
    the alternating sum at level m - n that reads each given content vector;
    CertificateError for a point outside the box of radius bound, which
    truncation_bound rules out for a product content.  target is the content
    read at the identity point, tau = id and beta = 0.

    The point reads c when v = c - target + lamp_rho has v_i = lamp_rho_tau(i)
    - m beta_tau(i); the entries of lamp_rho are distinct modulo m, so the
    residues of v fix tau and then beta.  exponent is (lamp_rho | beta) -
    m |beta|^2 / 2, integral since a sum-zero vector has even square norm."""
    n, shift = len(lamp_rho), [x - t for t, x in zip(target, lamp_rho)]
    slot = {x % m: j + 1 for j, x in enumerate(lamp_rho)}
    for content in contents:
        v = list(map(operator.add, content, shift))
        tau = tuple(map(slot.get, map(m.__rmod__, v)))
        if None in tau or len(set(tau)) < n:
            continue
        beta = [0] * n
        for x, j in zip(v, tau):
            beta[j - 1] = (lamp_rho[j - 1] - x) // m
        beta = tuple(beta)
        if max(map(abs, beta)) > bound:
            raise CertificateError("content %s is read at beta = %s, outside the box of radius %d"
                                   % (content, beta, bound))
        yield tau, perm_sign(tau), beta, content, dot(lamp_rho, beta) - m * norm2(beta) // 2


def read_fibres(spec: CrystalSpec, bound: int):
    """Yield (tau, sign, beta, content, exponent, paths, members) for each
    fibre that a sum over the spec (maybe of level 0) reads in the
    box of radius bound: the grid point of its dominant content, as
    _fiber_points yields it; the paths of the fibre's S_n orbit, counted by
    the Schur product; and an iterator over (tau, sign, content) of each
    product content of the orbit, labelled when it is reached (_labelled).

    One pass over the product groups its contents by orbit: c lies in the
    orbit keyed by the entries of v = c - base sorted decreasing (base =
    target - lamp_rho), whose dominant member is base + key.  Only a key of
    distinct entries can be read, as tau is then a permutation.  The
    dominant member is itself a product content: each dot-reflection toward
    it stays on an alpha_i-string between a weight of the orbit and its
    reflection."""
    n, target = spec.n, spec.target()
    m, lamp_rho = spec.level + n, vadd(spec.resolved_lam_prime().finite, rho_vector(n))
    if target is None:  # every fiber is empty
        return
    product = schur_product(n, tuple(sorted(spec.shapes)))
    base = [t - x for t, x in zip(target, lamp_rho)]
    orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for c in product:
        orbits.setdefault(tuple(sorted(map(operator.sub, c, base), reverse=True)), []).append(c)
    tops = {tuple(map(operator.add, base, key)): orbit for key, orbit in orbits.items() if len(set(key)) == n}
    for point in _fiber_points(m, lamp_rho, target, bound, tops):
        tau, _, _, top, _ = point
        orbit = tops[top]
        yield *point, sum(map(product.__getitem__, orbit)), _labelled(tau, top, base, orbit)


def _labelled(tau, top, base, orbit):
    """(tau', sign, c) for each c of the orbit of top: the orbit keeps beta
    and exponent, and tau' labels each entry of c - base as tau labels it
    in top - base (base = target - lamp_rho)."""
    label = dict(zip(map(operator.sub, top, base), tau))
    for c in orbit:
        t = tuple(map(label.__getitem__, map(operator.sub, c, base)))
        yield t, perm_sign(t), c


def bosonic_report(spec: CrystalSpec, widen: int = 0) -> AlternatingSumResult:
    """Alternating-sum value of the level polynomial of the spec (maybe of
    level 0), one scan per fibre read in the box of radius truncation_bound
    widened by widen >= 0.  Every product content lies in the unwidened
    box (_fiber_points checks the box it reads), so widening moves only the
    reported radius."""
    if widen < 0:
        raise ValueError("widen must be at least 0, got %d" % widen)
    lam, lam_prime = spec.lam, spec.resolved_lam_prime()
    bound = truncation_bound(spec.n, spec.level, lam.finite, lam_prime.finite, spec.shapes) + widen
    total, count, scan = LaurentPoly.zero(), 0, None
    for _, sign, _, content, exponent, paths, _ in read_fibres(spec, bound):
        scan = scan or scan_plan(spec.n, spec.shapes, lam, False, spec.b0())
        total += LaurentPoly.q_power(exponent, sign) * scan(content)
        count += paths
    return AlternatingSumResult(total, count, bound)


def identity_report(spec: CrystalSpec, rhs: LaurentPoly, widen_check: bool = False) -> dict:
    """Both sides of the identity for the spec (rhs the right one),
    their equality, summand count and box radius; with widen_check also the
    radius widened by 2, where the sum is stable: no fibre read lies outside
    the narrower box (_fiber_points checks it), so a wider one reads the
    same fibres."""
    result = bosonic_report(spec)
    report = {
        "lhs_polynomial": list(result.polynomial.pairs()),
        "rhs_polynomial": list(rhs.pairs()),
        "equal": result.polynomial == rhs,
        "summand_count": result.summand_count,
        "truncation_bound": result.truncation_bound,
    }
    if widen_check:
        report["widen_certificate"] = {"widened_bound": result.truncation_bound + 2, "stable": True}
    return report


def commutation_hypothesis_warnings(spec: CrystalSpec) -> list[str]:
    """Check, factor crystal by factor crystal, that a 0-raising acting on
    the left of b (x) b0 still acts on the left after the local isomorphism
    (energy.zero_side_moves).  Needed only for non-vacuum restriction
    weights; violations are reported, not assumed absent."""
    b0 = spec.b0()
    if b0 is None:
        return []
    b0_shape, z = b0
    shown = tableaux.RectCrystal(spec.n, b0_shape).elements[z]  # b0 as a tableau, for the message only
    warnings = []
    for shape in sorted(set(spec.shapes)):
        elements = tableaux.RectCrystal(spec.n, shape).elements
        warnings += ["0-raising side is not preserved through the local isomorphism at %s (x) %s"
                     % (elements[x], shown) for x in zero_side_moves(spec.n, shape, b0_shape, z)]
    return warnings
