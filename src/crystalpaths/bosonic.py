"""Alternating affine Weyl sums for restricted path generating functions.

The level polynomial of a tensor product has a closed alternating form: sum
over coordinate permutations tau and sum-zero translations beta of
(-1)^tau q^(E(b) + (Lambda' + rho | beta) - |beta|^2 (l + n)/2) over the
paths b whose content is congruent, modulo the all-ones vector, to

    -Lambda - rho + tau^{-1}(Lambda' - (l + n) beta + rho).

A content is read by at most one grid point (:func:`_fiber_points`), none
when the identity point's content (:func:`paths.target_content`) does not
exist, and the contents of one beta form an S_n orbit, which :func:`_orbit`
walks once.  An orbit that meets the product holds its dominant member, the
c with Lambda + c weakly decreasing, so a sum reads only those (the
Brauer-Klimyk form).  :func:`read_fibres` is the one read map: each fibre's
grid point, its orbit's count of paths in kostka.schur_product and its
members, each with its tau.  The sum's term of a fibre is sign(tau)
q^exponent times the scan of its dominant content restricted classically
against Lambda (one kostka.scan_plan per sum), and the summand count adds
the orbit's count; the level-zero pairing reads every member.  One scan per fibre read in the
widest box (:func:`truncation_bound`) serves every radius.

The closed evaluations at level one and level zero, with the level-zero
pairing, live in pairing, and the straightening form of the sum in
straighten; ``bosonic.X`` binds each on first use (:func:`__getattr__`), so
that importing this module compiles neither.
"""

from __future__ import annotations

import importlib
import operator
from collections.abc import Sequence

from . import tableaux
from .energy import zero_side_moves
from .kostka import CrystalSpec, scan_plan, schur_product
from .laurent import LaurentPoly
from .signature import Record
from .weights import LevelWeight, dot, norm2, perm_sign, rho_vector, spread, vadd

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


def truncation_bound(n: int, ell: int, lam_finite, lam_prime_finite, shapes, widen: int = 0) -> int:
    """Box radius outside which every content fiber is empty.

    A content vector of the tensor product has coordinate spread at most the
    number of boxes N, so (l+n) * spread(beta) can exceed N plus the spreads
    of the shifted restriction weights only on empty fibers."""
    rho, boxes = rho_vector(n), sum(s[0] * s[1] for s in shapes)
    reach = boxes + spread(vadd(lam_finite, rho)) + spread(vadd(lam_prime_finite, rho))
    return -(-reach // (ell + n)) + widen


def _fiber_points(m: int, lamp_rho, target, bound: int, contents):
    """Yield (tau, sign, beta, content, exponent) for the one grid point of
    the alternating sum at level m - n that reads each given content vector,
    when it lies in the box of radius bound.  target is the content read at
    the identity point, tau = id and beta = 0.

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
        if max(map(abs, beta)) > bound:
            continue
        beta = tuple(beta)
        yield tau, perm_sign(tau), beta, content, dot(lamp_rho, beta) - m * norm2(beta) // 2


def read_fibres(spec: CrystalSpec, bound: int):
    """Yield (tau, sign, beta, content, exponent, paths, members) for each
    fibre that a sum over the spec (maybe of level 0) reads in the
    box of radius bound: the grid point of its dominant content, as
    _fiber_points yields it; the paths of the fibre's S_n orbit, counted by
    the Schur product; and an iterator over (tau, sign, content) of each
    product content of the orbit, labelled when it is reached (_labelled)."""
    n, lam, target = spec.n, spec.lam, spec.target()
    m, lamp_rho = spec.level + n, vadd(spec.resolved_lam_prime().finite, rho_vector(n))
    if target is None:  # every fiber is empty
        return
    product = schur_product(n, tuple(sorted(spec.shapes)))
    base = [t - x for t, x in zip(target, lamp_rho)]
    for point in _fiber_points(m, lamp_rho, target, bound, _dominant_contents(lam, product)):
        tau, _, _, top, _ = point
        orbit = _orbit(product, target, lamp_rho, top)
        yield *point, sum(map(product.__getitem__, orbit)), _labelled(tau, top, base, orbit)


def _labelled(tau, top, base, orbit):
    """(tau', sign, c) for each c of the orbit of top: the orbit keeps beta
    and exponent, and tau' labels each entry of c - base as tau labels it
    in top - base (base = target - lamp_rho)."""
    label = dict(zip(map(operator.sub, top, base), tau))
    for c in orbit:
        t = tuple(map(label.__getitem__, map(operator.sub, c, base)))
        yield t, perm_sign(t), c


def fibre_sums(spec: CrystalSpec, widens: Sequence[int]) -> tuple[AlternatingSumResult, ...]:
    """The alternating sum of the level polynomial at each truncation
    widening, scanning each fibre read once.  The spec may have level 0."""
    lam, lam_prime = spec.lam, spec.resolved_lam_prime()
    bounds = [truncation_bound(spec.n, spec.level, lam.finite, lam_prime.finite, spec.shapes, w) for w in widens]
    totals, counts, scan = [LaurentPoly.zero()] * len(bounds), [0] * len(bounds), None
    for _, sign, beta, content, exponent, paths, _ in read_fibres(spec, max(bounds)):
        scan = scan or scan_plan(spec.n, spec.shapes, lam, False, spec.b0())
        term = LaurentPoly.q_power(exponent, sign) * scan(content)
        radius = max(map(abs, beta))
        for k, bound in enumerate(bounds):
            if radius <= bound:
                totals[k] += term
                counts[k] += paths
    return tuple(map(AlternatingSumResult, totals, counts, bounds))


def _dominant_contents(lam: LevelWeight, product: dict) -> list[tuple[int, ...]]:
    """The contents c of the product with lam + c weakly decreasing."""
    weights = ((vadd(lam.finite, c), c) for c in product) if any(lam.finite) else zip(product, product)
    return [c for w, c in weights if all(map(operator.ge, w, w[1:]))]


def _orbit(product: dict, target, lamp_rho, content) -> list[tuple[int, ...]]:
    """The product contents target - lamp_rho + w v, w in S_n, of the fibre
    read at content, v = content - target + lamp_rho with distinct entries:
    v's entries are placed one position at a time, cutting every prefix with
    a negative entry.  The fibre holds the dominant member c, v decreasing,
    if it holds any product content d: swapping v_i < v_j at positions i < j
    moves d by (v_j - v_i)(e_i - e_j), less than d_j - d_i = v_j - v_i +
    (Lambda + rho)_i - (Lambda + rho)_j, onto a weight of the product again,
    its weight set being saturated.  As target - lamp_rho is a multiple of
    the all-ones vector minus Lambda + rho, Lambda + c weakly decreases."""
    base = [t - x for t, x in zip(target, lamp_rho)]
    level = [((), frozenset(map(operator.sub, content, base)))]
    for b in base:  # (prefix, the entries of v not yet placed)
        level = [(p + (b + y,), rest - {y}) for p, rest in level for y in rest if b + y >= 0]
    return [p for p, _ in level if p in product]


def identity_report(spec: CrystalSpec, rhs: LaurentPoly, widen_check: bool = False) -> dict:
    """Both sides of the identity for the spec (rhs the right one),
    their equality, summand count and box radius; with widen_check also the
    radius widened by 2 and whether the sum is stable there (same scans)."""
    result, *widened = fibre_sums(spec, (0, 2) if widen_check else (0,))
    report = {
        "lhs_polynomial": list(result.polynomial.pairs()),
        "rhs_polynomial": list(rhs.pairs()),
        "equal": result.polynomial == rhs,
        "summand_count": result.summand_count,
        "truncation_bound": result.truncation_bound,
    }
    if widen_check:
        report["widen_certificate"] = {
            "widened_bound": widened[0].truncation_bound,
            "stable": widened[0].polynomial == result.polynomial,
        }
    return report


def bosonic_report(spec: CrystalSpec, widen: int = 0) -> AlternatingSumResult:
    """Alternating-sum value of the level polynomial of the spec, in the box
    widened by widen >= 0: a narrower box drops fibres that are not empty."""
    if widen < 0:
        raise ValueError("widen must be at least 0, got %d" % widen)
    return fibre_sums(spec, (widen,))[0]


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
