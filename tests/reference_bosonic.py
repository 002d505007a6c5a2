"""Literal alternating sums: the full content table of a tensor product and
the sums that read it.

The program's alternating sums read only the dominant contents c (Lambda + c
weakly decreasing), each through a scan restricted classically against
Lambda, and count the summands with the Schur product.  The tests check
them against the plain forms below: every path is enumerated and graded by
path_energy with the b0 tail into a table keyed by content, the alternating
sum reads that table at every content its fibre walk maps into the box, and
the straightening form normalizes one Schur symbol per content of the table.

The level-zero pairing walks the summands depth first and checks each pair
at its plus summand.  Its reference is the pairing as first written: every
path grouped by content, every summand held in a dict with its exponent,
and each pair checked from whichever summand comes first, with the move
s_i e_i as a raising followed by the literal reflection and the grid
point's r_i through the validated reference_weights.AffineWeylElement.  It
grades with energy.grade, as the program does; the Tableau-path pairing of
test_bosonic checks every exponent against path_energy instead.

The program walks the S_n orbit of each dominant fibre once, placing one
entry at a time: the summand count of the sums adds the Schur product over
it, and the pairing takes its grid points from it.  The references are the
literal forms: the n! permutations of the fibre, the count added over every
content the fibre walk reads, and the residue pass over every content of
the product.
"""

import functools
import itertools

from typing import Iterable, Optional

import reference_crystal as rc
import reference_paths as rp
from reference_energy import b0_tail, path_energy
from reference_weights import AffineWeylElement

from crystalpaths import straighten, tableaux
from crystalpaths.bosonic import (
    AlternatingSumResult,
    _fiber_points,
    truncation_bound,
)
from crystalpaths.energy import carry_plan, grade
from crystalpaths.kostka import CrystalSpec, schur_product
from crystalpaths.laurent import LaurentPoly
from crystalpaths.paths import Path, target_content
from crystalpaths.signature import CertificateError
from crystalpaths.weights import LevelWeight, equal_mod_ones, perm_sign, rho_vector, vadd


def choice_index(crystal, x: int) -> int:
    """Least operator index raising element x: the pairing's choice for a
    path whose rightmost factor is x."""
    for i in range(crystal.n):
        if crystal.eps[i][x] > 0:
            return i
    raise CertificateError("finite affine crystals admit some raising operator")


def literal_content_table(spec: CrystalSpec, stream: Optional[Iterable[Path]] = None) -> dict:
    """content -> sum of q^path_energy(p (x) b0 tail) over a stream of paths
    of the spec's product, every path when stream is None."""
    if stream is None:
        stream = rp.enumerate_paths(spec.n, spec.shapes)
    table = {}
    for p in stream:
        exp = path_energy(Path(spec.n, p.factors + b0_tail(spec.n, spec.b0())))
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
        image = straighten.normalize(straighten.SchurSymbol(vadd(spec.lam.finite, content), spec.level))
        if image is None:
            continue
        sign, qpow, beta = image
        if equal_mod_ones(beta, lam_prime.finite):
            total = total + LaurentPoly.q_power(qpow, sign) * fiber
    return total


def one_pass_counts(spec: CrystalSpec, widens) -> list[int]:
    """The summand count of the sums at each widening, in one pass: the
    Schur product added over every product content, dominant or not, that
    the fibre walk maps into the box."""
    n, lam, lam_prime = spec.n, spec.lam, spec.resolved_lam_prime()
    lamp_rho = vadd(lam_prime.finite, rho_vector(n))
    bounds = [truncation_bound(n, spec.level, lam.finite, lam_prime.finite, spec.shapes, w) for w in widens]
    counts = [0] * len(bounds)
    target = target_content(lam, lam_prime, spec.total_boxes())
    if target is None:
        return counts
    product = schur_product(n, tuple(sorted(spec.shapes)))
    for _, _, beta, content, _ in _fiber_points(spec.level + n, lamp_rho, target, max(bounds), product):
        for k, bound in enumerate(bounds):
            if max(map(abs, beta)) <= bound:
                counts[k] += product[content]
    return counts


def literal_orbit(product: dict, target, lamp_rho, content) -> set[tuple[int, ...]]:
    """The product contents target - lamp_rho + w v over the n! permutations
    w of v = content - target + lamp_rho."""
    v = [c - t + x for c, t, x in zip(content, target, lamp_rho)]
    orbit = {tuple(t - x + y for t, x, y in zip(target, lamp_rho, w)) for w in itertools.permutations(v)}
    return orbit & product.keys()


def permutation_count(product: dict, target, lamp_rho, content) -> int:
    """The summand count of the fibre read at content, added over all n!
    permutations of v = content - target + lamp_rho."""
    v = [c - t + x for c, t, x in zip(content, target, lamp_rho)]
    return sum(product.get(tuple(t - x + y for t, x, y in zip(target, lamp_rho, w)), 0)
               for w in itertools.permutations(v))


def full_residue_read(spec: CrystalSpec) -> dict:
    """content -> (tau, sign, beta, exponent) of the level-zero grid point
    reading it, by the residue pass over every content of the product."""
    n, zero = spec.n, spec.lam.finite
    bound = truncation_bound(n, 0, zero, zero, spec.shapes)
    target = target_content(spec.lam, spec.lam, spec.total_boxes())
    if target is None:
        return {}
    product = schur_product(n, tuple(sorted(spec.shapes)))
    return {c: (tau, sign, beta, exponent)
            for tau, sign, beta, c, exponent in _fiber_points(n, rho_vector(n), target, bound, product)}


def paths_by_content(crystals) -> dict[tuple, list[tuple[int, ...]]]:
    """content -> every path of element indices of that content, one
    index per factor crystal, leftmost first."""
    by_content: dict[tuple, list[tuple[int, ...]]] = {(0,) * crystals[0].n: [()]}
    for crystal in crystals:
        grown: dict[tuple, list[tuple[int, ...]]] = {}
        for content, paths in by_content.items():
            for x, add in enumerate(crystal.content):
                grown.setdefault(vadd(content, add), []).extend(p + (x,) for p in paths)
        by_content = grown
    return by_content


def level_zero_certificate(spec: CrystalSpec):
    """(summands, pairs) of the level-zero pairing: every summand (beta, tau,
    path) of element indices mapped to its q-exponent, and each certified
    pair (summand, image) once.  Raises CertificateError where a check
    fails."""
    n, shapes = spec.n, spec.shapes
    zero = spec.lam.finite
    bound = truncation_bound(n, 0, zero, zero, shapes, 0)
    target = target_content(spec.lam, spec.lam, spec.total_boxes())
    crystals = [tableaux.RectCrystal(n, s) for s in shapes]

    summands: dict[tuple, int] = {}
    if target is not None:
        by_content = paths_by_content(crystals)
        kinds, plan = carry_plan(n, shapes)
        for tau, _, beta, content, exponent in _fiber_points(n, rho_vector(n), target, bound, by_content):
            for path in by_content[content]:
                energy, carried = exponent, (-1,) * kinds
                for x, step in zip(path, plan):
                    gain, carried = grade(step, x, carried)
                    energy += gain
                summands[beta, tau, path] = energy

    @functools.cache
    def times_r(beta, tau, i):
        w = AffineWeylElement(beta, tau).compose_reflection(i)
        return w.beta, w.tau

    pairs = []
    seen = set()
    for s, exponent in summands.items():
        if s in seen:
            continue
        beta, tau, path = s
        i = choice_index(crystals[-1], path[-1])
        image_path = rc.raise_and_reflect(crystals, path, i)
        if image_path is None:
            raise CertificateError("tensor statistics dominate the rightmost factor at %s" % (s,))
        image = (*times_r(beta, tau, i), image_path)
        if image not in summands:
            raise CertificateError("pairing image of %s violates the weight condition" % (s,))
        if summands[image] != exponent:
            raise CertificateError("pairing does not preserve the q-exponent at %s" % (s,))
        if image == s:
            raise CertificateError("pairing has a fixed point at %s" % (s,))
        if perm_sign(image[1]) != -perm_sign(tau):
            raise CertificateError("pairing does not reverse the sign at %s" % (s,))
        if choice_index(crystals[-1], image_path[-1]) != i:
            raise CertificateError("choice index is not constant on the pair at %s" % (s,))
        if (*times_r(*image[:2], i), rc.raise_and_reflect(crystals, image_path, i)) != s:
            raise CertificateError("pairing is not an involution at %s" % (s,))
        seen.add(s)
        seen.add(image)
        pairs.append((s, image))

    total = LaurentPoly([(exponent, perm_sign(tau)) for (_, tau, _), exponent in summands.items()])
    if total != LaurentPoly.zero():
        raise CertificateError("paired summands must cancel exactly")
    return summands, pairs
