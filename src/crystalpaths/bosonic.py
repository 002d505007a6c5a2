"""Alternating affine Weyl sums for restricted path generating functions.

The level polynomial of a tensor product has a closed alternating form: sum
over coordinate permutations tau and sum-zero translations beta of
(-1)^tau q^(E(b) + (Lambda' + rho | beta) - |beta|^2 (l + n)/2) over the
paths b whose content is congruent, modulo the all-ones vector, to

    -Lambda - rho + tau^{-1}(Lambda' - (l + n) beta + rho).

Every alternating sum here walks the content fibers that occur, through
:func:`_fiber_points`, instead of the n! times box-sized (tau, beta) grid.
A grid point reads at most one content vector, and a content vector is read
by at most one grid point: the entries of Lambda' + rho strictly decrease
and span less than l + n, so they are pairwise distinct modulo l + n, and
the residues of the target fix tau and then beta.  Since beta sums to zero,
either every grid point lifts to a content vector of the tensor product's
box count or none does.  They do exactly when the identity point's content
exists, the content c at which the level polynomial is read
(:func:`paths.target_content`), and that test is made before any path is
scanned.  A sum reads the content table of the tensor product
(:func:`kostka.weight_energy_table`), so one table serves every truncation
radius.  The beta sum is truncated to a box certified a priori: outside it
the content fiber is provably empty because the translation summand spreads
the target weight further than any content vector can reach.  Degenerate
levels give closed evaluations: at level one with column factors the sum
collapses to the single restricted path's monomial, and the formal
level-zero sum vanishes unless the tensor product is empty, which is
witnessed by an explicit sign-reversing pairing of the summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import straighten, tableaux
from .energy import get_local_table, path_energy
from .kostka import CrystalSpec, weight_energy_table
from .laurent import LaurentPoly
from .paths import Path, enumerate_paths, level_restricted_paths, target_content
from .signature import raising_index
from .tableaux import RectShape
from .weights import (
    AffineWeylElement,
    LevelWeight,
    dot,
    norm2,
    perm_sign,
    rho_vector,
    spread,
    vadd,
)


@dataclass(frozen=True)
class AlternatingSumResult:
    polynomial: LaurentPoly
    summand_count: int
    truncation_bound: int


def truncation_bound(
    n: int, ell: int, lam_finite, lam_prime_finite, shapes, widen: int = 0
) -> int:
    """Box radius outside which every content fiber is empty.

    A content vector of the tensor product has coordinate spread at most the
    number of boxes N, so (l+n) * spread(beta) can exceed N plus the spreads
    of the shifted restriction weights only on empty fibers."""
    m = ell + n
    rho = rho_vector(n)
    boxes = sum(s[0] * s[1] for s in shapes)
    reach = boxes + spread(vadd(lam_finite, rho)) + spread(vadd(lam_prime_finite, rho))
    return -(-reach // m) + widen


def _fiber_points(m: int, lamp_rho, target, bound: int, contents):
    """Yield (tau, sign, beta, content, exponent) for the one grid point of
    the alternating sum at level m - n that reads each given content vector,
    when it lies in the box of radius bound.  target is the content read at
    the identity point, tau = id and beta = 0.

    The point reads c when v = c - target + lamp_rho has v_i = lamp_rho_tau(i)
    - m beta_tau(i); the entries of lamp_rho are distinct modulo m, so the
    residues of v fix tau and then beta.  exponent is (lamp_rho | beta) -
    m |beta|^2 / 2, integral since a sum-zero vector has even square norm."""
    n = len(lamp_rho)
    slot = {x % m: j + 1 for j, x in enumerate(lamp_rho)}
    for content in contents:
        v = [c - t + x for c, t, x in zip(content, target, lamp_rho)]
        tau = tuple(slot.get(x % m, 0) for x in v)
        if 0 in tau or len(set(tau)) < n:
            continue
        beta = [0] * n
        for x, j in zip(v, tau):
            beta[j - 1] = (lamp_rho[j - 1] - x) // m
        if max(map(abs, beta)) > bound:
            continue
        beta = tuple(beta)
        yield tau, perm_sign(tau), beta, content, dot(lamp_rho, beta) - m * norm2(beta) // 2


def alternating_sum(
    n: int,
    shapes: Sequence[RectShape],
    ell: int,
    lam: LevelWeight,
    lam_prime: LevelWeight,
    table: dict[tuple, LaurentPoly],
    widen: int = 0,
) -> AlternatingSumResult:
    """Evaluate the alternating Weyl sum over a content table of the tensor
    product (see :func:`kostka.weight_energy_table`)."""
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


def bosonic_report(
    spec: CrystalSpec,
    widen: int = 0,
    cache_dir: Optional[str] = None,
    jobs: int = 1,
) -> AlternatingSumResult:
    """Alternating-sum value of the level polynomial of the spec."""
    spec.validate()
    if spec.lam is None:
        raise ValueError("alternating sum needs a restriction weight Lambda")
    return alternating_sum(
        spec.n,
        spec.shapes,
        spec.level,
        spec.lam,
        spec.resolved_lam_prime(),
        weight_energy_table(spec, cache_dir, jobs),
        widen,
    )


# ---------------------------------------------------------------------------
# closed evaluations at level one and level zero


def level_one_identity(
    spec: CrystalSpec, cache_dir: Optional[str] = None, jobs: int = 1
) -> dict:
    """At level one with column factors the restricted path set has at most
    one element; the alternating sum must equal its single monomial."""
    spec.validate()
    if spec.level != 1:
        raise ValueError("level-one identity needs level 1, got %s" % spec.level)
    if any(s.cols != 1 for s in spec.shapes):
        raise ValueError("level-one identity needs column factors")
    if spec.lam is None:
        raise ValueError("level-one identity needs a restriction weight Lambda")
    lam_prime = spec.resolved_lam_prime()
    restricted = list(level_restricted_paths(spec.n, spec.shapes, spec.lam, lam_prime))
    if len(restricted) > 1:
        raise AssertionError(
            "level-one restricted path set has %d elements" % len(restricted)
        )
    rhs = (
        LaurentPoly.q_power(
            path_energy(Path(spec.n, restricted[0].factors + spec.b0_tail()), cache_dir)
        )
        if restricted
        else LaurentPoly.zero()
    )
    table = weight_energy_table(spec, cache_dir, jobs)
    result = alternating_sum(spec.n, spec.shapes, 1, spec.lam, lam_prime, table)
    return {
        "path_exists": bool(restricted),
        "path": str(restricted[0]) if restricted else None,
        "lhs_polynomial": list(result.polynomial.pairs()),
        "rhs_polynomial": list(rhs.pairs()),
        "equal": result.polynomial == rhs,
        "single_monomial": result.polynomial.is_monomial() if restricted else not result.polynomial,
        "summand_count": result.summand_count,
        "truncation_bound": result.truncation_bound,
    }


def _level_zero_spec(n: int, shapes: Sequence[RectShape]) -> CrystalSpec:
    """The tensor product of column factors with Lambda = LambdaPrime = 0 at
    the formal level 0, which :meth:`CrystalSpec.validate` refuses."""
    shapes = tuple(RectShape(*s) for s in shapes)
    for s in shapes:
        if not 1 <= s.rows <= n - 1:
            raise ValueError("factor height %d must be below the rank %d" % (s.rows, n))
        if s.cols != 1:
            raise ValueError("level-zero identity needs column factors")
    return CrystalSpec(n, shapes, level=0, lam=LevelWeight.vacuum(n, 0))


def level_zero_identity(
    n: int, shapes: Sequence[RectShape], cache_dir: Optional[str] = None, jobs: int = 1
) -> dict:
    """Formal level-zero alternating sum; 1 on the empty tensor product and
    0 otherwise."""
    spec = _level_zero_spec(n, shapes)
    table = weight_energy_table(spec, cache_dir, jobs)
    result = alternating_sum(n, spec.shapes, 0, spec.lam, spec.lam, table)
    expected = LaurentPoly.one() if not spec.shapes else LaurentPoly.zero()
    return {
        "lhs_polynomial": list(result.polynomial.pairs()),
        "rhs_polynomial": list(expected.pairs()),
        "equal": result.polynomial == expected,
        "summand_count": result.summand_count,
        "truncation_bound": result.truncation_bound,
    }


@dataclass(frozen=True)
class Summand:
    """One term of the alternating sum: group element (beta, tau) and path."""

    beta: tuple[int, ...]
    tau: tuple[int, ...]
    path: Path

    def sign(self) -> int:
        return perm_sign(self.tau)


def _min_raisable_index(p: Path) -> int:
    """Least operator index applicable to the rightmost factor."""
    rightmost = p.factors[-1]
    for i in range(p.n):
        if tableaux.eps(rightmost, i) > 0:
            return i
    raise AssertionError("finite affine crystals admit some raising operator")


def level_zero_pairing(
    n: int, shapes: Sequence[RectShape], cache_dir: Optional[str] = None
) -> dict:
    """Certify the vanishing of the level-zero sum by an explicit involution.

    Every summand (t_beta tau, b) maps to (t_beta tau r_i, s_i e_i b) where i
    is the least index raising the rightmost factor of b.  The certificate
    checks that the image is again a summand, that the pairing is a
    fixed-point-free involution matching opposite signs and equal exponents,
    and that the choice index is constant on each pair."""
    spec = _level_zero_spec(n, shapes)
    if not spec.shapes:
        raise ValueError("pairing needs a nonempty tensor product")
    zero = spec.lam.finite
    bound = truncation_bound(n, 0, zero, zero, spec.shapes, 0)
    target = target_content(spec.lam, spec.lam, spec.total_boxes())

    # with no target content every fiber is empty and the certificate holds vacuously
    by_content: dict[tuple, list[tuple[Path, int]]] = {}
    if target is not None:
        for p in enumerate_paths(n, spec.shapes):
            by_content.setdefault(p.weight(), []).append((p, path_energy(p, cache_dir)))

    summands: dict[Summand, int] = {}
    points = _fiber_points(n, rho_vector(n), target, bound, by_content)
    for tau, _, beta, content, exponent in points:
        for p, energy in by_content[content]:
            summands[Summand(beta, tau, p)] = energy + exponent

    pairs = []
    seen = set()
    for s, exponent in summands.items():
        if s in seen:
            continue
        i = _min_raisable_index(s.path)
        raised = s.path.e(i)
        if raised is None:
            raise AssertionError("tensor statistics dominate the rightmost factor at %s" % (s,))
        image_path = raised.reflect(i)
        w = AffineWeylElement(s.beta, s.tau).compose_reflection(i)
        image = Summand(w.beta, w.tau, image_path)
        if image not in summands:
            raise AssertionError(
                "pairing image violates the weight condition: %s -> %s" % (s, image)
            )
        if summands[image] != exponent:
            raise AssertionError("pairing does not preserve the q-exponent")
        if image == s:
            raise AssertionError("pairing has a fixed point at %s" % (s,))
        if image.sign() != -s.sign():
            raise AssertionError("pairing does not reverse the sign")
        if _min_raisable_index(image.path) != i:
            raise AssertionError("choice index is not constant on the pair")
        w_back = AffineWeylElement(image.beta, image.tau).compose_reflection(i)
        back = Summand(w_back.beta, w_back.tau, image_path.e(i).reflect(i))
        if back != s:
            raise AssertionError("pairing is not an involution at %s" % (s,))
        seen.add(s)
        seen.add(image)
        pairs.append((s, image))

    total = LaurentPoly(
        [(exponent, s.sign()) for s, exponent in summands.items()]
    )
    if total != LaurentPoly.zero():
        raise AssertionError("paired summands must cancel exactly")
    return {
        "summand_count": len(summands),
        "pairing_size": len(pairs),
        "truncation_bound": bound,
        "cancels": True,
    }


# ---------------------------------------------------------------------------
# straightening bridge and the extra commutation hypothesis


def bosonic_via_straightening(
    spec: CrystalSpec, cache_dir: Optional[str] = None, jobs: int = 1
) -> LaurentPoly:
    """Re-derive the alternating sum by normalizing one Schur symbol per
    content fiber, independently of the residue walk of :func:`_fiber_points`."""
    spec.validate()
    if spec.lam is None:
        raise ValueError("straightening bridge needs a restriction weight Lambda")
    lam_prime = spec.resolved_lam_prime()
    table = weight_energy_table(spec, cache_dir, jobs)
    total = LaurentPoly.zero()
    for content, fiber in table.items():
        image = straighten.pi_on_character(spec.level, vadd(spec.lam.finite, content))
        if image is None:
            continue
        sign, qpow, produced = image
        if produced.same_classical_weight(lam_prime):
            total = total + LaurentPoly.q_power(qpow, sign) * fiber
    return total


def commutation_hypothesis_warnings(
    spec: CrystalSpec, cache_dir: Optional[str] = None
) -> list[str]:
    """Check, factor crystal by factor crystal, that a 0-raising acting on
    the left of b (x) b0 still acts on the left after the local isomorphism.
    Needed only for non-vacuum restriction weights; violations are reported,
    not assumed absent."""
    spec.validate()
    tail = spec.b0_tail()
    if not tail:
        return []
    (b0,) = tail
    b0_shape = spec.resolved_b0_shape()
    warnings = []
    for shape in sorted(set(spec.shapes)):
        table = get_local_table(spec.n, shape, b0_shape, cache_dir)
        for b in tableaux.enumerate_tableaux(shape, spec.n):
            stats = [
                (tableaux.eps(b, 0), tableaux.phi(b, 0)),
                (tableaux.eps(b0, 0), tableaux.phi(b0, 0)),
            ]
            if raising_index(stats) != 0:
                continue
            image = table.apply(b, b0)
            image_stats = [
                (tableaux.eps(image[0], 0), tableaux.phi(image[0], 0)),
                (tableaux.eps(image[1], 0), tableaux.phi(image[1], 0)),
            ]
            if raising_index(image_stats) != 0:
                warnings.append(
                    "0-raising side is not preserved through the local isomorphism "
                    "at %s (x) %s" % (b, b0)
                )
    return warnings
