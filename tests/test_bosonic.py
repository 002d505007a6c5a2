import ast
import collections
import functools
import itertools
import sys
import tracemalloc
from dataclasses import dataclass

import pytest
import reference_bosonic as rb
import reference_crystal as rc
import reference_paths as rp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_energy import path_energy
from reference_paths import enumerate_paths, reflect_path
from reference_weights import AffineWeylElement, perm_apply, perm_inverse, vscale
from test_acceptance import criterion_one_grid

from crystalpaths import bosonic, energy, kostka, pairing, straighten, tableaux
from crystalpaths.bosonic import (
    _dominant_contents,
    _fiber_points,
    _orbit,
    bosonic_report,
    commutation_hypothesis_warnings,
    fibre_sums,
    truncation_bound,
)
from crystalpaths.cli import main
from crystalpaths.kostka import CrystalSpec, kostka_level, scan_paths, schur_expand, schur_monomials, schur_product
from crystalpaths.laurent import LaurentPoly
from crystalpaths.pairing import PAIRING_LIMIT, level_one_identity, level_zero_identity, level_zero_pairing
from crystalpaths.paths import Path, target_content
from crystalpaths.signature import CertificateError
from crystalpaths.straighten import bosonic_via_straightening
from crystalpaths.tableaux import RectShape
from crystalpaths.weights import (
    LevelWeight,
    dot,
    guard_code,
    norm2,
    perm_sign,
    rho_vector,
    vadd,
    vsub,
)

S11 = RectShape(1, 1)


def vacuum_spec(n, shapes, ell):
    return CrystalSpec(n, shapes, level=ell, lam=LevelWeight.vacuum(n, ell))


def test_empty_tensor_product_gives_one():
    spec = vacuum_spec(2, (), 1)
    assert bosonic_report(spec).polynomial == 1
    # a dominant non-vacuum weight with Lambda' = Lambda also gives one
    spec3 = CrystalSpec(3, (), level=2, lam=LevelWeight(2, (1, 1, 0), 0))
    assert bosonic_report(spec3).polynomial == 1


def test_alternating_sum_matches_direct_count_small():
    spec = vacuum_spec(2, (S11, S11), 1)
    lhs = bosonic_report(spec).polynomial
    assert lhs == kostka_level(spec) == LaurentPoly.q_power(-1)
    spec2 = vacuum_spec(2, (S11,) * 4, 2)
    assert bosonic_report(spec2).polynomial == kostka_level(spec2)


def test_alternating_sum_nonvacuum_weight():
    lam = LevelWeight.fundamental(1, 2)
    spec = CrystalSpec(2, (S11,) * 3, level=1, lam=lam, lam_prime=LevelWeight.vacuum(2, 1))
    assert bosonic_report(spec).polynomial == kostka_level(spec)
    spec_b = CrystalSpec(2, (S11,) * 3, level=1, lam=LevelWeight.vacuum(2, 1), lam_prime=lam)
    assert bosonic_report(spec_b).polynomial == kostka_level(spec_b)


def test_bosonic_report_refuses_a_negative_widening():
    """A box narrower than the truncation bound drops fibres that are not
    empty (widen=-3 here once summed 11 terms for the 9 of the level
    polynomial), so a negative widening is refused."""
    spec = CrystalSpec(3, (S11,) * 6, level=2, lam=LevelWeight(2, (1, 0, 0), 0))
    assert len(bosonic_report(spec).polynomial.pairs()) == len(kostka_level(spec).pairs()) == 9
    with pytest.raises(ValueError, match="widen must be at least 0, got -3"):
        bosonic_report(spec, widen=-3)


def test_widening_certificate():
    for spec in (
        vacuum_spec(2, (S11,) * 4, 1),
        vacuum_spec(3, (S11,) * 3, 2),
        CrystalSpec(3, ((2, 1), S11), level=1, lam=LevelWeight.vacuum(3, 1)),
    ):
        base = bosonic_report(spec)
        widened = bosonic_report(spec, widen=2)
        assert widened.truncation_bound == base.truncation_bound + 2
        assert widened.polynomial == base.polynomial


def test_straightening_bridge_agreement():
    specs = [
        vacuum_spec(2, (S11, S11), 1),
        vacuum_spec(2, (S11,) * 4, 2),
        vacuum_spec(3, (S11,) * 3, 1),
        CrystalSpec(3, ((2, 1), S11), level=2, lam=LevelWeight.vacuum(3, 2)),
        CrystalSpec(2, (S11,) * 3, level=1, lam=LevelWeight.fundamental(1, 2),
                    lam_prime=LevelWeight.vacuum(2, 1)),
    ]
    for spec in specs:
        assert bosonic_via_straightening(spec) == bosonic_report(spec).polynomial


def test_level_one_identity_reports():
    lam0 = LevelWeight.vacuum(2, 1)
    lam1 = LevelWeight.fundamental(1, 2)
    report = level_one_identity(CrystalSpec(2, (S11, S11), level=1, lam=lam0, lam_prime=lam0))
    assert report["path_exists"] and report["equal"] and report["single_monomial"]
    # weight bookkeeping forbids this combination, both sides vanish
    report2 = level_one_identity(CrystalSpec(2, (S11, S11), level=1, lam=lam0, lam_prime=lam1))
    assert not report2["path_exists"] and report2["equal"]
    # a mixed-height product at rank three
    report3 = level_one_identity(
        CrystalSpec(
            3,
            (S11, RectShape(2, 1)),
            level=1,
            lam=LevelWeight.vacuum(3, 1),
            lam_prime=LevelWeight.vacuum(3, 1),
        )
    )
    assert report3["equal"]


def test_level_one_certificates_raise(monkeypatch):
    """The walk needs exactly one element with eps equal to phi of the
    suffix, and kostka_level must count exactly the walk's path; a break in
    either raises CertificateError, also under python -O."""
    spec = CrystalSpec(3, (S11, RectShape(2, 1)), level=1, lam=LevelWeight.vacuum(3, 1))
    assert level_one_identity(spec)["path_exists"]
    monkeypatch.setattr(pairing, "kostka_level", lambda spec: LaurentPoly.zero())
    with pytest.raises(CertificateError, match="counts 0 restricted paths"):
        level_one_identity(spec)
    monkeypatch.undo()
    crystal = tableaux.RectCrystal(3, S11)
    monkeypatch.setattr(crystal, "eps", [(0, 0, 0)] * 3)  # no element has eps = phi of the suffix
    with pytest.raises(CertificateError, match="0 elements of B"):
        level_one_identity(spec)


def test_level_one_identity_validation():
    with pytest.raises(ValueError):
        level_one_identity(vacuum_spec(2, (S11,), 2))
    with pytest.raises(ValueError):
        level_one_identity(
            CrystalSpec(3, ((1, 2),), level=2, lam=LevelWeight.vacuum(3, 2))
        )


def test_level_one_identity_refuses_wide_factors():
    """A factor wider than one column is refused by the spec's own level
    check, when the spec is made, so no level-one walk can start."""
    for shape in (RectShape(1, 2), RectShape(2, 2)):
        with pytest.raises(ValueError, match="factor %s has level 2 exceeding the spec level 1" % (shape,)):
            CrystalSpec(3, (S11, shape), level=1, lam=LevelWeight.vacuum(3, 1))


def test_level_zero_identity_values():
    assert level_zero_identity(2, ())["equal"]
    assert level_zero_identity(2, ())["lhs_polynomial"] == [(0, 1)]
    for n in (2, 3):
        for length in (1, 2, 3):
            report = level_zero_identity(n, ((1, 1),) * length)
            assert report["equal"] and report["lhs_polynomial"] == []


def test_level_zero_spec_sums_like_the_level_zero_identity():
    """The formal level 0 is a level of the spec for column products: there
    kostka_level and the alternating sum both equal level_zero_identity's
    value, 1 on the empty product and 0 on any other."""
    for n, shapes in ((2, ()), (3, ()), (2, (S11,) * 3), (3, (S11, RectShape(2, 1))),
                      (4, (RectShape(2, 1),) * 2), (3, (S11,) * 4)):
        spec = CrystalSpec(n, shapes, level=0, lam=LevelWeight.vacuum(n, 0))
        value = level_zero_identity(n, shapes)["rhs_polynomial"]
        assert value == ([(0, 1)] if not shapes else [])
        assert list(kostka_level(spec).pairs()) == list(bosonic_report(spec).polynomial.pairs()) == value


def test_level_zero_pairing_certificate():
    report = level_zero_pairing(2, ((1, 1),))
    assert report["cancels"]
    assert report["summand_count"] == 2 * report["pairing_size"]
    report2 = level_zero_pairing(3, ((1, 1), (2, 1)))
    assert report2["cancels"] and report2["summand_count"] % 2 == 0
    with pytest.raises(ValueError):
        level_zero_pairing(2, ())
    with pytest.raises(ValueError):
        level_zero_pairing(2, ((1, 2),))


def test_commutation_hypothesis_warnings():
    # vacuum restriction needs no side condition at all
    assert commutation_hypothesis_warnings(vacuum_spec(2, (S11, S11), 1)) == []
    # non-vacuum level-one restriction with the row grading crystal
    spec = CrystalSpec(2, (S11, S11), level=1, lam=LevelWeight.fundamental(1, 2))
    assert isinstance(commutation_hypothesis_warnings(spec), list)
    mixed = CrystalSpec(3, (S11, (2, 1)), level=1, lam=LevelWeight.fundamental(2, 3))
    assert isinstance(commutation_hypothesis_warnings(mixed), list)


def test_summand_count_reported():
    report = bosonic_report(vacuum_spec(2, (S11, S11), 1))
    assert report.summand_count >= report.polynomial(1)
    assert report.truncation_bound >= 1


@functools.lru_cache(maxsize=None)
def lattice_box(n, bound):
    """Sum-zero integer vectors with every coordinate in [-bound, bound]."""
    out = []
    for head in itertools.product(range(-bound, bound + 1), repeat=n - 1):
        last = -sum(head)
        if -bound <= last <= bound:
            out.append(head + (last,))
    return tuple(out)


def weyl_grid(n, m, lam_rho, lamp_rho, boxes, bound):
    """Reference: yield (tau, sign, beta, content, exponent) for every point
    of the literal (tau, beta) grid of the alternating sum at level m - n,
    beta in the box of radius bound, or nothing when n does not divide the
    box count shift."""
    shift, rest = divmod(boxes - sum(lamp_rho) + sum(lam_rho), n)
    if rest:
        return
    lam_shifted = tuple(x - shift for x in lam_rho)
    perms = [(tau, perm_sign(tau), perm_inverse(tau))
             for tau in itertools.permutations(range(1, n + 1))]
    for beta in lattice_box(n, bound):
        nu = vsub(lamp_rho, vscale(m, beta))
        exponent = dot(lamp_rho, beta) - m * norm2(beta) // 2
        for tau, sign, tau_inv in perms:
            yield tau, sign, beta, vsub(perm_apply(tau_inv, nu), lam_shifted), exponent


def dominant_weights(n, ell):
    """Every dominant level-ell weight, with finite part normalized to end in 0."""
    for head in itertools.product(range(ell + 1), repeat=n - 1):
        finite = head + (0,)
        if all(finite[i] >= finite[i + 1] for i in range(n - 1)):
            yield LevelWeight(ell, finite, 0)


def assert_walk_matches_grid(n, ell, lam, lam_prime, shapes, widen, contents):
    """The fiber walk over the contents present yields exactly the grid
    points that read them; over every content the grid one step wider
    reads, it yields exactly the grid points inside the radius."""
    m = ell + n
    rho = rho_vector(n)
    lam_rho, lamp_rho = vadd(lam.finite, rho), vadd(lam_prime.finite, rho)
    boxes = sum(s[0] * s[1] for s in shapes)
    bound = truncation_bound(n, ell, lam.finite, lam_prime.finite, shapes, widen)
    grid = list(weyl_grid(n, m, lam_rho, lamp_rho, boxes, bound))
    target = target_content(lam, lam_prime, boxes)
    if target is None:
        assert grid == []
        return 0
    wider = {point[3] for point in weyl_grid(n, m, lam_rho, lamp_rho, boxes, bound + 1)}

    def walk(contents):
        return collections.Counter(_fiber_points(m, lamp_rho, target, bound, contents))

    case = (n, ell, lam, lam_prime, shapes, widen)
    assert walk(contents) == collections.Counter(p for p in grid if p[3] in contents), case
    assert walk(wider) == collections.Counter(grid), case
    return sum(1 for p in grid if p[3] in contents)


def test_fiber_walk_matches_grid():
    read = 0
    for spec in criterion_one_grid():
        n, ell, shapes = spec.n, spec.level, spec.shapes
        contents = {p.weight() for p in enumerate_paths(n, shapes)}
        for lam, lam_prime in itertools.product(dominant_weights(n, ell), repeat=2):
            for widen in (0, 2):
                read += assert_walk_matches_grid(n, ell, lam, lam_prime, shapes, widen, contents)
    for n in (2, 3):
        zero = LevelWeight.vacuum(n, 0)
        for length in range(1, 5):
            for heights in itertools.product(range(1, n), repeat=length):
                shapes = tuple(RectShape(k, 1) for k in heights)
                contents = {p.weight() for p in enumerate_paths(n, shapes)}
                read += assert_walk_matches_grid(n, 0, zero, zero, shapes, 0, contents)
    assert read > 0


def test_alternating_sum_rejects_congruent_lambda_prime():
    """No sum is made over a LambdaPrime whose LambdaPrime + rho has entries
    congruent mod l + n: the spec refuses it as not dominant when it is
    made, and a dominant one, at every level from the formal 0 up, has
    entries distinct mod l + n, as _fiber_points needs."""
    # (0, 1) + rho = (1, 1) at rank two
    lam = LevelWeight.vacuum(2, 1)
    with pytest.raises(ValueError, match="LambdaPrime is not dominant"):
        CrystalSpec(2, (S11, S11), level=1, lam=lam, lam_prime=LevelWeight(1, (0, 1), 0))
    # at rank three and level one, (0, 0, 2) + rho = (2, 1, 2)
    lam3 = LevelWeight.vacuum(3, 1)
    with pytest.raises(ValueError, match="LambdaPrime is not dominant"):
        CrystalSpec(3, (S11,) * 3, level=1, lam=lam3, lam_prime=LevelWeight(1, (0, 0, 2), 0))
    for n in (2, 3, 4):
        for ell in range(4):
            for w in dominant_weights(n, ell):
                assert len({x % (ell + n) for x in vadd(w.finite, rho_vector(n))}) == n, (n, w)


def test_level_zero_sum_skips_scan_when_n_does_not_divide(monkeypatch):
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kostka, "scan_plan", counting(kostka.scan_plan))
    monkeypatch.setattr(bosonic, "scan_plan", counting(bosonic.scan_plan))
    # both read the Schur product through bosonic.read_fibres; the pairing's walk
    # starts from the carry plan and grades each step
    monkeypatch.setattr(bosonic, "schur_product", counting(bosonic.schur_product))
    monkeypatch.setattr(pairing, "carry_plan", counting(pairing.carry_plan))
    monkeypatch.setattr(pairing, "grade", counting(pairing.grade))
    shapes = (S11, S11)
    report = level_zero_identity(3, shapes)
    assert report["equal"] and report["summand_count"] == 0
    cert = level_zero_pairing(3, shapes)
    assert cert["cancels"] and cert["summand_count"] == 0
    assert report["truncation_bound"] == cert["truncation_bound"] > 0
    assert calls == []
    level_zero_pairing(3, (S11,) * 3)  # the spies see a walk that runs
    assert {"schur_product", "carry_plan", "grade"} <= set(calls), calls


def count_scans(monkeypatch) -> list:
    """Spy on kostka.scan_plan wherever it is called: the list it returns
    receives (n, shapes, target, lam, affine, b0) per target scanned
    through a plan, scan_paths included."""
    calls, plan = [], kostka.scan_plan

    def counting_plan(n, shapes, lam, affine, b0=None):
        scan = plan(n, shapes, lam, affine, b0)

        def counting_scan(target):
            calls.append((n, shapes, target, lam, affine, b0))
            return scan(target)
        return counting_scan

    for module in (kostka, bosonic, straighten):
        monkeypatch.setattr(module, "scan_plan", counting_plan)
    return calls


def vacuum_coordinate_sum(spec, widen=0):
    """Reference: the vacuum alternating sum over the literal (tau, beta)
    grid, with the exponent written in coordinates,
    -(sum_i (l+n) beta_i^2 / 2 + i beta_i), and the divisibility test made
    at every point."""
    n, ell = spec.n, spec.level
    m = ell + n
    rho = rho_vector(n)
    table = rb.weight_energy_table(spec)
    boxes = spec.total_boxes()
    zero = (0,) * n
    bound = truncation_bound(n, ell, zero, zero, spec.shapes, widen)
    total = LaurentPoly.zero()
    for tau in itertools.permutations(range(1, n + 1)):
        sign = perm_sign(tau)
        tau_inv = perm_inverse(tau)
        for beta in lattice_box(n, bound):
            nu = vsub(rho, vscale(m, beta))
            mu = vsub(perm_apply(tau_inv, nu), rho)
            shift = boxes - sum(mu)
            if shift % n:
                continue
            content = tuple(x + shift // n for x in mu)
            fiber = table.get(content)
            if fiber is None:
                continue
            # each summand m*b_i^2/2 may be half-integral; only the total is
            # integral, since a sum-zero vector has even square norm
            exponent = -(m * norm2(beta) // 2) - sum(
                (i + 1) * b for i, b in enumerate(beta)
            )
            total = total + LaurentPoly.q_power(exponent, sign) * fiber
    return total


def test_vacuum_coordinate_form_matches_grid():
    vacuum = [spec for spec in criterion_one_grid() if spec.is_vacuum()]
    assert vacuum
    for spec in vacuum:
        for widen in (0, 2):
            assert vacuum_coordinate_sum(spec, widen) == bosonic_report(spec, widen).polynomial, (spec, widen)


def test_vacuum_report_scans_once(monkeypatch):
    """The alternating sum scans each content it reads once, classically
    against Lambda: exactly the dominant contents c (Lambda + c weakly
    decreasing) that the fibre walk maps into the box."""
    calls = count_scans(monkeypatch)
    spec = vacuum_spec(3, (S11,) * 6, 1)
    report = bosonic_report(spec)
    targets = [args[2] for args in calls]
    assert len(targets) == len(set(targets)) > 1
    for n, shapes, target, lam, affine, *_ in calls:
        assert (n, shapes, lam, affine) == (3, spec.shapes, spec.lam, False)
    partitions = [c for c in itertools.product(range(7), repeat=3)
                  if sum(c) == 6 and c[0] >= c[1] >= c[2]]
    points = _fiber_points(4, rho_vector(3), (2, 2, 2), report.truncation_bound, partitions)
    assert sorted(targets) == sorted(p[3] for p in points)
    assert report.polynomial == kostka_level(spec) == rb.bosonic_report(spec).polynomial


@dataclass(frozen=True)
class Summand:
    """One term of the alternating sum: group element (beta, tau) and path."""

    beta: tuple[int, ...]
    tau: tuple[int, ...]
    path: Path

    def sign(self) -> int:
        return perm_sign(self.tau)


def _min_raisable_index(p):
    """Least operator index applicable to the rightmost factor."""
    rightmost = p.factors[-1]
    for i in range(p.n):
        if rc.eps(rightmost, i) > 0:
            return i
    raise AssertionError("finite affine crystals admit some raising operator")


def reference_pairing(n, shapes):
    """Reference: the level-zero pairing on Tableau paths, graded with
    path_energy and moved with Path.e and the stepwise reflect_path; returns
    (summand -> exponent, list of (summand, image) pairs)."""
    spec = pairing._level_zero_spec(n, shapes)
    zero = spec.lam.finite
    bound = truncation_bound(n, 0, zero, zero, spec.shapes, 0)
    target = target_content(spec.lam, spec.lam, spec.total_boxes())

    by_content = {}
    if target is not None:
        for p in enumerate_paths(n, spec.shapes):
            by_content.setdefault(p.weight(), []).append((p, path_energy(p)))

    summands = {}
    points = _fiber_points(n, rho_vector(n), target, bound, by_content) if target is not None else ()
    for tau, _, beta, content, exponent in points:
        for p, energy_ in by_content[content]:
            summands[Summand(beta, tau, p)] = energy_ + exponent

    pairs = []
    seen = set()
    for s, exponent in summands.items():
        if s in seen:
            continue
        i = _min_raisable_index(s.path)
        raised = rp.e(s.path, i)
        if raised is None:
            raise AssertionError("tensor statistics dominate the rightmost factor at %s" % (s,))
        image_path = reflect_path(raised, i)
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
        back = Summand(w_back.beta, w_back.tau, reflect_path(rp.e(image_path, i), i))
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
    return summands, pairs


# criterion 3's grid, and every variant of the level_zero strata of bench/pools.json
PAIRING_GRID = [
    (n, tuple(RectShape(k, 1) for k in heights))
    for n in (2, 3, 4)
    for length in range(1, 5)
    for heights in itertools.product(range(1, n), repeat=length)
] + [
    (n, tuple(RectShape(k, 1) for k in heights))
    for n, heights in (
        (5, (2, 3)), (5, (3, 2)),
        (5, (3, 1, 1)), (5, (1, 3, 1)), (5, (1, 1, 3)),
        (4, (3, 3, 2)), (4, (3, 2, 3)), (4, (2, 3, 3)),
        (4, (2, 2, 2, 2)),
    )
]


def walked_pairing(n, shapes):
    """(summand -> exponent, list of (summand, image)) as the pairing's walk
    meets them, and its (truncation bound, summands, pairs)."""
    summands, pairs = {}, []

    def collect(summand, exponent, image):
        assert summand not in summands
        summands[summand] = exponent
        if image is not None:
            pairs.append((summand, image))

    counts = pairing._level_zero_certificate(pairing._level_zero_spec(n, shapes), collect=collect)
    return summands, pairs, counts


def test_pairing_matches_reference():
    """The walk meets the summands of the dict-based reference certificate,
    with their exponents, and checks its pairs at their plus summands; both
    agree with the pairing on Tableau paths."""
    for n, shapes in PAIRING_GRID:
        summands, pairs, (bound, count, size) = walked_pairing(n, shapes)
        spec = pairing._level_zero_spec(n, shapes)
        want_summands, want_pairs = rb.level_zero_certificate(spec)
        assert summands == want_summands, (n, shapes)
        assert {frozenset(pair) for pair in pairs} == {frozenset(pair) for pair in want_pairs}, (n, shapes)
        assert all(s[1] != image[1] and perm_sign(s[1]) == 1 for s, image in pairs)
        assert (count, size) == (len(want_summands), len(want_pairs)) == (2 * len(pairs), len(pairs))
        assert bound == level_zero_pairing(n, shapes)["truncation_bound"]

        crystals = [tableaux.RectCrystal(n, s) for s in spec.shapes]

        def as_tableaux(summand):
            beta, tau, path = summand
            return Summand(beta, tau, Path(n, tuple(c.elements[x] for c, x in zip(crystals, path))))

        tableau_summands, tableau_pairs = reference_pairing(n, shapes)
        assert {as_tableaux(s): e for s, e in summands.items()} == tableau_summands, (n, shapes)
        assert {frozenset(map(as_tableaux, pair)) for pair in pairs} == {
            frozenset(pair) for pair in tableau_pairs}, (n, shapes)


def test_sums_and_pairing_read_one_read_map_per_call(monkeypatch):
    """fibre_sums (for every report and identity) and the level-zero
    certificate take their fibres, orbits and Schur counts from one
    bosonic.read_fibres call each per call."""
    calls = []

    def counting(fn):
        def wrapper(spec, bound):
            calls.append((spec, bound))
            return fn(spec, bound)
        return wrapper

    monkeypatch.setattr(bosonic, "read_fibres", counting(bosonic.read_fibres))
    monkeypatch.setattr(pairing, "read_fibres", counting(pairing.read_fibres))
    spec = vacuum_spec(3, (S11, RectShape(2, 1), S11), 2)
    fibre_sums(spec, (0, 2))
    assert calls == [(spec, truncation_bound(3, 2, (0,) * 3, (0,) * 3, spec.shapes, 2))]
    shapes = (S11, RectShape(2, 1), S11, RectShape(2, 1))
    for run in (level_zero_identity, level_zero_pairing):
        calls.clear()
        assert run(3, shapes)["summand_count"] > 0
        assert len(calls) == 1 and calls[0][0].shapes == shapes, (run, calls)


def test_pairing_imports_no_private_name_of_bosonic():
    """pairing reads the sums' read map through bosonic.read_fibres alone:
    it imports no _-prefixed name of bosonic, reads none as an attribute,
    and never names schur_product."""
    tree = ast.parse(open(pairing.__file__, encoding="utf-8").read())
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert ("bosonic", "read_fibres") in imported
    assert not [name for module, name in imported if module == "bosonic" and name.startswith("_")]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attributes = {(node.value.id, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    assert not [a for owner, a in attributes if owner == "bosonic" and a.startswith("_")]
    assert "schur_product" not in names | {a for _, a in attributes} | {name for _, name in imported}


def test_pairing_certificate_refuses_unequal_plus_and_minus_counts(monkeypatch):
    """A minus summand outside every pair breaks the count check: the plus
    summands all pass their own checks, but no longer map onto the minus
    summands, and the certificate raises also under python -O."""
    n, shapes = 3, (S11, S11, S11)
    spec = pairing._level_zero_spec(n, shapes)
    product = schur_product(n, spec.shapes)
    bound = truncation_bound(n, 0, (0,) * n, (0,) * n, spec.shapes)
    points = list(_fiber_points(n, rho_vector(n), (1, 1, 1), bound, product))
    unread = next(c for c in product if c not in {p[3] for p in points})
    # the unread content, a fibre of its own at a grid point of odd permutation that no pair reaches
    tau, beta = (2, 1, 3), (9, 0, -9)
    extra = (tau, -1, beta, unread, 0, product[unread], [(tau, -1, unread)])
    read_fibres = bosonic.read_fibres

    def with_extra(*args):
        yield from read_fibres(*args)
        yield extra

    assert level_zero_pairing(n, shapes)["cancels"]
    monkeypatch.setattr(pairing, "read_fibres", with_extra)
    with pytest.raises(CertificateError, match="plus summands into"):
        level_zero_pairing(n, shapes)


def test_certificate_refuses_a_walk_short_of_the_schur_count(monkeypatch):
    """A Schur product that counts one path more than the crystals hold
    leaves the walk one summand short of the oracle: every pair checks out,
    and the completeness check raises CertificateError, also under
    python -O."""
    n, shapes = 3, (S11, S11, S11)
    product = schur_product(n, shapes)
    inflated = {**product, (1, 1, 1): product[(1, 1, 1)] + 1}
    summands = level_zero_pairing(n, shapes)["summand_count"]
    monkeypatch.setattr(bosonic, "schur_product", lambda *args: inflated)
    with pytest.raises(CertificateError, match="walk met %d summands, the Schur product %d"
                       % (summands, summands + 1)):
        level_zero_pairing(n, shapes)


def plus_keys(n, shapes):
    """(content, choice index) of each plus summand, in the order the walk
    checks them: the pairing's per-key checks depend on these alone."""
    crystals = [tableaux.RectCrystal(n, s) for s in shapes]
    keys = []

    def collect(summand, exponent, image):
        if image is not None:
            path = summand[2]
            content = functools.reduce(vadd, (c.content[x] for c, x in zip(crystals, path)))
            keys.append((content, rb.choice_index(crystals[-1], path[-1])))

    pairing._level_zero_certificate(pairing._level_zero_spec(n, shapes), collect=collect)
    return keys


def test_certificate_checks_a_late_back_move(monkeypatch):
    """The back move is checked at every plus summand, not once per key: a
    column move that returns a wrong path only at the back move of a late
    plus summand, whose key's checks passed at an earlier summand, makes the
    certificate raise CertificateError, also under python -O."""
    n, shapes = 3, (S11,) * 6
    keys = plus_keys(n, shapes)
    late = max(p for p, key in enumerate(keys) if key in keys[:p])
    assert late > len(set(keys)), (late, len(set(keys)))
    calls, real = itertools.count(), pairing._column_move

    def wrong_late_back_move(*args):
        found = real(*args)
        if next(calls) == 2 * late + 1:  # the forward and the back move of each plus summand
            return list(args[-2]), found[1]  # the path it started from, not the one it moves to
        return found

    monkeypatch.setattr(pairing, "_column_move", wrong_late_back_move)
    with pytest.raises(CertificateError, match="pairing is not an involution"):
        level_zero_pairing(n, shapes)


def certificate_locals(spec) -> dict:
    """The local variables of pairing._level_zero_certificate(spec) as it
    returns, read by a profile hook."""
    seen, previous = {}, sys.getprofile()

    def hook(frame, event, arg):
        if event == "return" and frame.f_code is pairing._level_zero_certificate.__code__:
            seen.update(frame.f_locals)

    sys.setprofile(hook)
    try:
        pairing._level_zero_certificate(spec)
    finally:
        sys.setprofile(previous)
    return seen


def test_pairing_walk_lists_children_of_reached_prefixes_only():
    """The walk lists the children of a prefix when it first reaches it: on
    n=4, 3x1,3x1,2x1 it lists 4 and 10 prefixes at depths 1 and 2, of the
    20 and 32 that some suffix completes (all of which an eager table
    lists), and each list is the eager one."""
    shapes = (RectShape(3, 1), RectShape(3, 1), RectShape(2, 1))
    seen = certificate_locals(pairing._level_zero_spec(4, shapes))
    kids, ends, codes = seen["kids"], seen["ends"], seen["codes"]
    assert [len(k) for k in kids] == [1, 4, 10]
    assert [len(e) for e in ends[:2]] == [20, 32]
    for j, (reached, before) in enumerate(zip(kids, [{seen["guard"]}] + ends)):
        assert set(reached) <= before
        for p, children in reached.items():
            assert children == [(x, p + d) for x, d in enumerate(codes[j]) if p + d in ends[j]]
    assert level_zero_pairing(4, shapes)["summand_count"] == 40


@pytest.mark.parametrize("n, shapes", [(2, ("1x2",)), (3, ("1x1", "1x2"))])
def test_certificate_column_check_raises_again_on_a_second_call(n, shapes):
    """A failed column check is never kept as a table: a row factor makes
    the certificate raise CertificateError on every call, also under python
    -O, while the table of a column factor is built once and kept."""
    shapes = tuple(RectShape.parse(s) for s in shapes)
    with pytest.raises(ValueError, match="level-zero identity needs column factors"):
        CrystalSpec(n, shapes, level=0, lam=LevelWeight.vacuum(n, 0))
    width = guard_code(n, sum(s.rows * s.cols for s in shapes))[0]
    for _ in range(2):
        with pytest.raises(CertificateError, match="not a column crystal"):
            pairing._column_table(n, RectShape(1, 2), width)
    column = pairing._column_table(n, S11, width)
    assert pairing._column_table(n, S11, width) is column


def test_certificate_checks_the_image_of_a_late_key(monkeypatch):
    """The image point is checked once per key, and for every key: a
    times_reflection that returns the point itself, not t_beta tau r_i, only
    at the image of the last key the walk meets makes the certificate raise
    CertificateError, also under python -O."""
    n, shapes = 3, (S11,) * 6
    keys = plus_keys(n, shapes)
    calls, real = [], pairing.times_reflection

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pairing, "times_reflection", counting)
    level_zero_pairing(n, shapes)
    # each key reflects its point to the image and the image back, once
    assert len(calls) == 2 * len(set(keys)) < 2 * len(keys), (len(calls), len(keys))
    late, seen = len(calls) - 2, itertools.count()

    def wrong_late_image(beta, tau, i):
        return (beta, tau) if next(seen) == late else real(beta, tau, i)

    monkeypatch.setattr(pairing, "times_reflection", wrong_late_image)
    with pytest.raises(CertificateError, match="pairing image violates the weight condition"):
        level_zero_pairing(n, shapes)


def schur_summands(n, shapes):
    """The summands of the level-zero pairing by the Schur count over the
    residue pass of every product content, without a walk."""
    spec = pairing._level_zero_spec(n, shapes)
    product = schur_product(n, tuple(sorted(spec.shapes)))
    return sum(product[c] for c in rb.full_residue_read(spec))


def test_pairing_refuses_an_oversized_product_before_the_walk(monkeypatch, capsys):
    """n=3 on 18 `1x1` factors has more than PAIRING_LIMIT summands:
    level_zero_pairing raises ValueError naming the estimate before it
    reaches the walk's grading plan, and verify-zero exits 2 with it."""
    shapes = (S11,) * 18
    total = schur_summands(3, shapes)
    assert total > PAIRING_LIMIT

    def never(*args):
        raise AssertionError("the pairing reached its walk")

    monkeypatch.setattr(pairing, "carry_plan", never)
    with pytest.raises(AssertionError, match="reached its walk"):  # the guard sees a walk that starts
        level_zero_pairing(3, (S11,) * 3)
    with pytest.raises(ValueError, match="would walk %d summands" % total):
        level_zero_pairing(3, shapes)
    assert main(["verify-zero", "--n", "3", "--shapes", ",".join(["1x1"] * 18)]) == 2
    assert "would walk %d summands" % total in capsys.readouterr().err


def test_pairing_limit_admits_the_twelve_factor_case():
    """The 12-factor case that CI runs to the end stays under the limit."""
    assert schur_summands(3, (S11,) * 12) == 354294 <= PAIRING_LIMIT


def test_pairing_memory_stays_small():
    """The walk holds one path and its prefix states, not the summands:
    the traced peak of a pairing over 13122 summands stays under 1 MB."""
    shapes = (S11,) * 9
    level_zero_pairing(3, shapes)  # tables and the Schur product are built and cached here
    tracemalloc.start()
    try:
        report = level_zero_pairing(3, shapes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["summand_count"] == 13122
    assert peak < 1 << 20, peak


def test_identity_and_pairing_count_the_same_summands():
    """The identity counts the summands from the Schur product, the pairing
    by walking them: the counts agree on every column product of the grid."""
    for n, shapes in PAIRING_GRID:
        assert level_zero_identity(n, shapes)["summand_count"] == level_zero_pairing(n, shapes)["summand_count"]


def test_pairing_calls_no_per_path_reference(monkeypatch):
    """level_zero_pairing grades and moves index paths itself: it calls
    neither path_energy nor Path.e."""
    shapes = (S11, RectShape(2, 1), S11, RectShape(2, 1))
    want = level_zero_pairing(3, shapes)

    def forbidden(*args, **kwargs):
        raise AssertionError("the pairing called a per-path reference")

    for module in (bosonic, energy, pairing):
        monkeypatch.setattr(module, "path_energy", forbidden, raising=False)
    monkeypatch.setattr(Path, "e", forbidden, raising=False)
    got = level_zero_pairing(3, shapes)
    monkeypatch.undo()
    assert got == want and got["summand_count"] > 0


def test_corrupted_crystal_fails_the_certificate(monkeypatch, capsys):
    """A wrong operator array makes the pairing raise CertificateError, also
    under python -O, and verify-zero exit 1 with a message."""
    level_zero_pairing(2, (S11, S11))  # the local tables are built from the true arrays
    crystal = tableaux.RectCrystal(2, S11)
    monkeypatch.setattr(crystal, "e", [(-1, -1), (-1, -1)])  # no element can be raised
    with pytest.raises(CertificateError):
        level_zero_pairing(2, (S11, S11))
    assert main(["verify-zero", "--n", "2", "--shapes", "1x1,1x1"]) == 1
    assert "certificate failed: " in capsys.readouterr().err


@st.composite
def tailed_specs(draw, tail, max_n=4):
    """A random spec with n <= max_n, level <= 3, one to five factors of
    mixed shapes up to 2 columns (cut off once the product would exceed 1000
    paths), a random dominant LambdaPrime, and a vacuum Lambda (no b0 tail)
    or a non-vacuum one with a b0 crystal of random height."""
    n, ell = draw(st.integers(2, max_n)), draw(st.integers(1, 3))
    kinds = [RectShape(r, c) for r in range(1, n) for c in range(1, min(ell, 2) + 1)]
    shapes, size = [], 1
    for shape in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        size *= len(tableaux.RectCrystal(n, shape).elements)
        if size > 1000:
            break
        shapes.append(shape)
    weights = list(dominant_weights(n, ell))
    vacuum = LevelWeight.vacuum(n, ell)
    lam = draw(st.sampled_from([w for w in weights if (w == vacuum) != tail]))
    b0 = RectShape(draw(st.integers(1, n - 1)), ell) if tail else None
    spec = CrystalSpec(n, tuple(shapes), level=ell, lam=lam,
                       lam_prime=draw(st.sampled_from(weights)), b0_shape=b0)
    assert (spec.b0() is not None) == tail
    return spec


@pytest.mark.parametrize("tail", [False, True], ids=["vacuum", "b0_tail"])
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_differential_sums_against_full_table_reference(tail, data):
    """The sums over the classically restricted dominant fibres equal the
    full-table reference at widen 0 and 2, polynomial, summand count and
    truncation bound alike, read from one scan per fibre; the straightening
    form equals its full-table reference too."""
    spec = data.draw(tailed_specs(tail))
    table = rb.weight_energy_table(spec)
    lam_prime = spec.resolved_lam_prime()
    got = fibre_sums(spec, (0, 2))
    for widen, result in zip((0, 2), got):
        want = rb.alternating_sum(spec.n, spec.shapes, spec.level, spec.lam, lam_prime, table, widen)
        assert result == want, (spec, widen)
        assert bosonic_report(spec, widen) == want, (spec, widen)
    assert bosonic_via_straightening(spec) == rb.bosonic_via_straightening(spec), spec


@pytest.mark.parametrize("tail", [False, True], ids=["vacuum", "b0_tail"])
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_differential_summand_count_against_one_pass_count(tail, data):
    """The summand count over the S_n orbit of each dominant fibre equals
    the count added over every read product content, at widen 0 and 2."""
    spec = data.draw(tailed_specs(tail))
    got = [result.summand_count for result in fibre_sums(spec, (0, 2))]
    assert got == rb.one_pass_counts(spec, (0, 2)), spec


@pytest.mark.parametrize("tail", [False, True], ids=["vacuum", "b0_tail"])
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_differential_orbit_against_permutations(tail, data):
    """On every dominant fibre that the sums read at widen 2, for random
    specs with n <= 5, the orbit walk meets each product content among the
    fibre's n! permutations once, and adds the Schur product over them to
    the literal permutation count."""
    spec = data.draw(tailed_specs(tail, max_n=5))
    n, lam, lam_prime = spec.n, spec.lam, spec.resolved_lam_prime()
    lamp_rho = vadd(lam_prime.finite, rho_vector(n))
    target = target_content(lam, lam_prime, spec.total_boxes())
    if target is None:
        return
    product = schur_product(n, tuple(sorted(spec.shapes)))
    bound = truncation_bound(n, spec.level, lam.finite, lam_prime.finite, spec.shapes, 2)
    dominant = _dominant_contents(lam, product)
    for *_, content, _ in _fiber_points(spec.level + n, lamp_rho, target, bound, dominant):
        orbit = _orbit(product, target, lamp_rho, content)
        assert content in orbit and len(set(orbit)) == len(orbit), (spec, content)
        assert set(orbit) == rb.literal_orbit(product, target, lamp_rho, content), (spec, content)
        assert sum(product[c] for c in orbit) == rb.permutation_count(product, target, lamp_rho, content)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_factor_order_leaves_both_sides_unchanged(data):
    """Permuting the factors leaves the level polynomial, the alternating
    sum and its summand count unchanged, for n in {3, 4}, levels 2 and 3,
    three to five factors of height <= 2 and width <= min(level, 2), and
    dominant Lambda and LambdaPrime with a target content under the default
    b0 (with a taller b0 the identity itself fails on some specs: ROADMAP
    item 3)."""
    n, ell = data.draw(st.sampled_from((3, 4))), data.draw(st.sampled_from((2, 3)))
    kinds = [RectShape(r, c) for r in (1, 2) for c in range(1, min(ell, 2) + 1)]
    shapes = tuple(data.draw(st.lists(st.sampled_from(kinds), min_size=3, max_size=5)))
    boxes = sum(r * c for r, c in shapes)
    weights = list(dominant_weights(n, ell))
    lam, lam_prime = data.draw(st.sampled_from(
        [(a, b) for a in weights for b in weights if target_content(a, b, boxes) is not None]))
    sides = []
    for order in (shapes, tuple(data.draw(st.permutations(shapes)))):
        spec = CrystalSpec(n, order, level=ell, lam=lam, lam_prime=lam_prime)
        report = bosonic_report(spec)
        sides.append((kostka_level(spec), report.polynomial, report.summand_count))
    assert sides[0] == sides[1], (n, ell, lam, lam_prime, shapes)


def test_dominant_contents_with_and_without_a_finite_weight():
    """The dominant contents are those c with Lambda + c weakly decreasing,
    for a zero and a nonzero finite part of Lambda."""
    product = schur_product(3, (S11, RectShape(2, 1), S11))
    for lam in dominant_weights(3, 2):
        want = [c for c in product if all(a >= b for a, b in itertools.pairwise(vadd(lam.finite, c)))]
        assert _dominant_contents(lam, product) == want, lam
    assert any(c[0] < c[1] for c in _dominant_contents(LevelWeight(2, (2, 0, 0)), product))


def pairing_grid(monkeypatch, n, shapes):
    """content -> (tau, sign, beta, exponent) of the points from which the
    pairing builds its read map (the orbit members of bosonic.read_fibres:
    the dominant members' from the residue pass, the others' derived from
    them), and the (content -> (beta, tau)) of the summands its walk meets."""
    calls, met = [], {}
    read_fibres = bosonic.read_fibres

    def recording(*args):
        calls.append(points := [])
        for *point, paths, members in read_fibres(*args):
            members = list(members)
            points.extend((tau, sign, point[2], c, point[4]) for tau, sign, c in members)
            yield (*point, paths, members)

    def collect(summand, exponent, image):
        beta, tau, path = summand
        met[functools.reduce(vadd, (c.content[x] for c, x in zip(crystals, path)))] = (beta, tau)

    crystals = [tableaux.RectCrystal(n, s) for s in shapes]
    monkeypatch.setattr(pairing, "read_fibres", recording)
    try:
        pairing._level_zero_certificate(pairing._level_zero_spec(n, shapes), collect=collect)
    finally:
        monkeypatch.undo()
    points = calls[-1] if calls else []
    grid = {c: (tau, sign, beta, exponent) for tau, sign, beta, c, exponent in points}
    assert len(grid) == len(points)
    return grid, met


def assert_pairing_grid_is_full(monkeypatch, n, shapes):
    spec = pairing._level_zero_spec(n, shapes)
    grid, met = pairing_grid(monkeypatch, n, shapes)
    want = rb.full_residue_read(spec)
    assert grid == want, (n, shapes)
    assert met == {c: (beta, tau) for c, (tau, _, beta, _) in want.items()}, (n, shapes)


def test_pairing_grid_from_orbits_matches_full_residue_pass(monkeypatch):
    """On every column product of the grid, the pairing's read map, taken
    from the orbits of the dominant read contents, equals the residue pass
    over every content of the product point for point (tau, sign, beta,
    exponent), and the walk meets each of them."""
    for n, shapes in PAIRING_GRID:
        assert_pairing_grid_is_full(monkeypatch, n, shapes)


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), min_size=1, max_size=4))))
def test_differential_pairing_grid_against_full_residue_pass(monkeypatch, case):
    """The same on random column products with n <= 5."""
    n, heights = case
    assert_pairing_grid_is_full(monkeypatch, n, tuple(RectShape(k, 1) for k in heights))


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(3, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=4))))
def test_differential_level_zero_against_full_table_reference(case):
    """The formal level-zero sum over the dominant fibres equals the
    full-table reference on random column products."""
    n, heights = case
    shapes = tuple(RectShape(k, 1) for k in heights)
    spec = pairing._level_zero_spec(n, shapes)
    want = rb.alternating_sum(n, spec.shapes, 0, spec.lam, spec.lam, rb.weight_energy_table(spec))
    report = level_zero_identity(n, shapes)
    got = (LaurentPoly(report["lhs_polynomial"]), report["summand_count"], report["truncation_bound"])
    assert got == (want.polynomial, want.summand_count, want.truncation_bound), case


def test_fibre_at_q1_is_tensor_multiplicity():
    """The classical fibre X_c of content c against Lambda counts, at q = 1,
    the copies of V_(Lambda + c) in V_Lambda (x) B: the Schur expansion of
    the product with Lambda's finite part as one more factor."""
    checked = 0
    for n, ell, shapes in (
        (2, 3, (S11, RectShape(1, 2), S11, RectShape(1, 3))),
        (3, 2, (S11, RectShape(2, 1), RectShape(1, 2), S11)),
        (3, 3, (RectShape(2, 2), S11, RectShape(1, 3))),
        (4, 2, (RectShape(2, 1), RectShape(3, 1), RectShape(1, 2), S11)),
        (4, 1, (RectShape(2, 1), S11, RectShape(3, 1), S11, S11)),
        (5, 2, (RectShape(2, 1), RectShape(1, 2), RectShape(3, 1))),
    ):
        product = schur_product(n, tuple(sorted(shapes)))
        for lam in dominant_weights(n, ell):
            spec = CrystalSpec(n, shapes, level=ell, lam=lam)
            with_lam = {}
            for key, count in schur_monomials(lam.finite, n):
                for content, paths in product.items():
                    mono = vadd(key, content)
                    with_lam[mono] = with_lam.get(mono, 0) + count * paths
            multiplicity = schur_expand(with_lam, n)
            for content in product:
                weight = vadd(lam.finite, content)
                if any(a < b for a, b in zip(weight, weight[1:])):
                    continue
                fibre = scan_paths(n, shapes, content, lam, False, spec.b0())
                assert fibre(1) == multiplicity.get(weight, 0), (n, shapes, lam, content)
                checked += bool(fibre)
    assert checked > 100
