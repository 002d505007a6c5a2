"""Literal alternating sums: the full content table of a tensor product and
the sums that read it.

The program's alternating sums read only the dominant contents c (Lambda + c
weakly decreasing), each through a scan restricted classically against
Lambda, and count the summands with the Schur product.  The tests check
them against the plain forms below: every path is enumerated and graded by
path_energy with the b0 tail into a table keyed by content, the alternating
sum reads that table at every content its fibre walk maps into the box, and
the straightening form normalizes one Schur symbol per content of the table.
"""

from typing import Iterable, Optional

import reference_paths as rp
from reference_energy import path_energy

from crystalpaths import straighten
from crystalpaths.bosonic import AlternatingSumResult, _fiber_points, truncation_bound
from crystalpaths.kostka import CrystalSpec
from crystalpaths.laurent import LaurentPoly
from crystalpaths.paths import Path, target_content
from crystalpaths.weights import LevelWeight, rho_vector, vadd


def literal_content_table(spec: CrystalSpec, stream: Optional[Iterable[Path]] = None) -> dict:
    """content -> sum of q^path_energy(p (x) b0 tail) over a stream of paths
    of the spec's product, every path when stream is None."""
    if stream is None:
        stream = rp.enumerate_paths(spec.n, spec.shapes)
    table = {}
    for p in stream:
        exp = path_energy(Path(spec.n, p.factors + spec.b0_tail()))
        table[p.weight()] = table.get(p.weight(), LaurentPoly.zero()) + LaurentPoly.q_power(exp)
    return table


def weight_energy_table(spec: CrystalSpec) -> dict:
    """The full content table, or {} when the spec has a restriction weight
    and no content produces LambdaPrime, so that no sum reads it."""
    if spec.lam is not None and target_content(
        spec.lam, spec.resolved_lam_prime(), spec.total_boxes()
    ) is None:
        return {}
    return literal_content_table(spec)


def alternating_sum(
    n: int, shapes, ell: int, lam: LevelWeight, lam_prime: LevelWeight, table: dict, widen: int = 0
) -> AlternatingSumResult:
    """The alternating Weyl sum over a full content table: every content of
    the table that the fibre walk maps into the box, with its whole fibre."""
    m = ell + n
    lamp_rho = vadd(lam_prime.finite, rho_vector(n))
    if len({x % m for x in lamp_rho}) < n:
        raise ValueError("LambdaPrime + rho = %s has entries congruent mod %d" % (lamp_rho, m))
    bound = truncation_bound(n, ell, lam.finite, lam_prime.finite, shapes, widen)
    target = target_content(lam, lam_prime, sum(s[0] * s[1] for s in shapes))
    if target is None:  # every fiber is empty
        return AlternatingSumResult(LaurentPoly.zero(), 0, bound)
    total = LaurentPoly.zero()
    count = 0
    for _, sign, _, content, exponent in _fiber_points(m, lamp_rho, target, bound, table):
        fiber = table[content]
        total = total + LaurentPoly.q_power(exponent, sign) * fiber
        count += fiber(1)
    return AlternatingSumResult(total, count, bound)


def bosonic_report(spec: CrystalSpec, widen: int = 0) -> AlternatingSumResult:
    """The alternating sum of the spec over its full content table."""
    return alternating_sum(spec.n, spec.shapes, spec.level, spec.lam, spec.resolved_lam_prime(),
                           weight_energy_table(spec), widen)


def bosonic_via_straightening(spec: CrystalSpec) -> LaurentPoly:
    """The straightening form over the full content table: one Schur symbol
    Lambda + c per content c, kept when it normalizes to LambdaPrime."""
    lam_prime = spec.resolved_lam_prime()
    total = LaurentPoly.zero()
    for content, fiber in weight_energy_table(spec).items():
        image = straighten.pi_on_character(spec.level, vadd(spec.lam.finite, content))
        if image is None:
            continue
        sign, qpow, produced = image
        if produced.same_classical_weight(lam_prime):
            total = total + LaurentPoly.q_power(qpow, sign) * fiber
    return total
