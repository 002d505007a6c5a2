"""End-to-end acceptance checks.

Each test evaluates one numbered criterion by exact equality (the engine is
exact integer arithmetic throughout; there are no tolerances) and prints one
pass line on success.  A failed assertion is the fail line.
"""

import itertools

import reference_crystal as rc
import reference_paths as rp
from reference_crystal import combine, promotion, reflect
from reference_energy import as_dicts, b0_tail, local_iso, path_energy
from reference_paths import enumerate_paths, level_restricted_paths
from reference_straighten import normalize_by_steps
from reference_weights import theta_vector

from crystalpaths.bosonic import bosonic_report
from crystalpaths.energy import LocalIsoTable
from crystalpaths.kostka import (
    CrystalSpec,
    kostka_classical,
    kostka_level,
    multiplicity_oracle,
)
from crystalpaths.laurent import LaurentPoly
from crystalpaths.pairing import level_one_identity, level_zero_identity, level_zero_pairing
from crystalpaths.paths import Path, parse_path
from crystalpaths.straighten import SchurSymbol, bosonic_via_straightening, normalize
from crystalpaths.tableaux import RectShape, enumerate_tableaux
from crystalpaths.weights import LevelWeight, vadd, vsub

S11 = RectShape(1, 1)


def criterion_one_grid():
    grid = []
    for ell in (1, 2):
        for length in range(1, 7):
            grid.append(CrystalSpec(2, (S11,) * length, level=ell,
                                    lam=LevelWeight.vacuum(2, ell)))
        for length in range(1, 5):
            grid.append(CrystalSpec(3, (S11,) * length, level=ell,
                                    lam=LevelWeight.vacuum(3, ell)))
    grid.append(CrystalSpec(3, (RectShape(1, 2), S11), level=2,
                            lam=LevelWeight.vacuum(3, 2)))
    grid.append(CrystalSpec(3, (RectShape(2, 1), S11), level=1,
                            lam=LevelWeight.vacuum(3, 1)))
    grid.append(CrystalSpec(3, (RectShape(2, 1), S11), level=2,
                            lam=LevelWeight.vacuum(3, 2)))
    return grid


def test_criterion_1_alternating_sum_equals_path_count():
    grid = criterion_one_grid()
    for spec in grid:
        # the vacuum coordinate exponent form is checked against bosonic_report
        # in test_bosonic
        assert bosonic_report(spec).polynomial == kostka_level(spec), spec
    print("criterion 1 PASS: alternating sum = restricted generating "
          "polynomial on %d specs" % len(grid))


def literal_level_restricted(n, shapes, weights):
    """Lambda -> the paths p of the product, in enumerate_paths order, with
    p (x) u_Lambda highest, in one pass for all the weights.  The statistics
    of the factors are folded left to right as fold_stats folds them, each
    prefix once, and then with (0, <h_i, Lambda>) as the rightmost factor,
    as is_level_restricted folds them."""
    pools = [[(t, [(rc.eps(t, i), rc.phi(t, i)) for i in range(n)]) for t in enumerate_tableaux(s, n)]
             for s in shapes]
    highest = [(lam, [(0, lam.pairing(i)) for i in range(n)]) for lam in weights]
    found = {lam: [] for lam in weights}

    def extend(depth, factors, folded):
        if depth == len(pools):
            for lam, u in highest:
                if all(combine(a, b)[0] == 0 for a, b in zip(folded, u)):
                    found[lam].append(Path(n, factors))
            return
        for t, stats in pools[depth]:
            extend(depth + 1, factors + (t,), [combine(a, b) for a, b in zip(folded, stats)])

    extend(0, (), [(0, 0)] * n)
    return found


def assert_level_one_matches_literal(spec, report, restricted):
    """The report of level_one_identity against the literal reference: the
    path of restricted (at most one), graded by path_energy with the b0
    tail; the alternating sum is compared with that monomial."""
    assert len(restricted) <= 1, (spec, restricted)
    rhs = LaurentPoly.zero()
    if restricted:
        rhs = LaurentPoly.q_power(path_energy(Path(spec.n, restricted[0].factors + b0_tail(spec.n, spec.b0()))))
    lhs = LaurentPoly(report["lhs_polynomial"])
    want = {
        "path_exists": bool(restricted),
        "path": str(restricted[0]) if restricted else None,
        "rhs_polynomial": list(rhs.pairs()),
        "equal": lhs == rhs,
        "single_monomial": len(lhs.pairs()) == 1 if restricted else not lhs,
    }
    assert {key: report[key] for key in want} == want, (spec, report, want)
    assert report["equal"] and report["single_monomial"], (spec, report)


def test_criterion_2_level_one_single_monomial():
    checked = nonempty = 0
    for n in (2, 3, 4):
        fundamentals = [LevelWeight.vacuum(n, 1)] + [
            LevelWeight.fundamental(i, n) for i in range(1, n)
        ]
        for length in range(1, 6):
            for heights in itertools.product(range(1, n), repeat=length):
                shapes = tuple(RectShape(k, 1) for k in heights)
                literal = literal_level_restricted(n, shapes, fundamentals)
                for lam, lam_prime in itertools.product(fundamentals, repeat=2):
                    spec = CrystalSpec(n, shapes, level=1, lam=lam, lam_prime=lam_prime)
                    restricted = [p for p in literal[lam]
                                  if rp.weight_out(p, lam).same_classical_weight(lam_prime)]
                    if n < 4 and length < 5:  # the one-pass fold against the literal stream
                        assert restricted == list(level_restricted_paths(n, shapes, lam, lam_prime))
                    report = level_one_identity(spec)
                    assert_level_one_matches_literal(spec, report, restricted)
                    checked += 1
                    nonempty += report["path_exists"]
    assert nonempty > 0
    # 3^24 paths, out of reach of the literal stream: check the one path it reports
    lam = LevelWeight.vacuum(3, 1)
    spec = CrystalSpec(3, (S11,) * 24, level=1, lam=lam)
    report = level_one_identity(spec)
    path = parse_path(report["path"], 3)
    assert rp.is_level_restricted(path, lam) and rp.weight_out(path, lam).same_classical_weight(lam)
    assert report["path"] == "|".join(["3|2|1"] * 8)
    assert_level_one_matches_literal(spec, report, [path])
    print("criterion 2 PASS: level-one identity on %d weight choices "
          "(%d with a restricted path), and on 3^24 paths" % (checked, nonempty))


def test_criterion_3_level_zero_identity_and_pairing():
    report = level_zero_identity(2, ())
    assert report["equal"] and report["lhs_polynomial"] == [(0, 1)]
    specs = pairs = 0
    for n in (2, 3, 4):
        for length in range(1, 5):
            for heights in itertools.product(range(1, n), repeat=length):
                shapes = tuple((k, 1) for k in heights)
                report = level_zero_identity(n, shapes)
                assert report["equal"] and report["lhs_polynomial"] == [], (n, shapes)
                cert = level_zero_pairing(n, shapes)
                assert cert["cancels"]
                assert cert["summand_count"] == 2 * cert["pairing_size"]
                specs += 1
                pairs += cert["pairing_size"]
    print("criterion 3 PASS: level-zero identity on %d specs, "
          "%d cancelling pairs certified" % (specs, pairs))


def test_criterion_4_crystal_axiom_suite():
    checked = 0
    for n in (2, 3, 4):
        for k in range(1, n):
            for l in range(1, 7):
                if k * l > 6:
                    continue
                for b in enumerate_tableaux(RectShape(k, l), n):
                    c = b.content()
                    for i in range(n):
                        down = rc.f(b, i)
                        if down is not None:
                            # weight drops by the (classical image of the) root
                            diff = vsub(down.content(), c)
                            if i == 0:
                                assert diff == theta_vector(n)
                            else:
                                expect = [0] * n
                                expect[i - 1], expect[i] = -1, 1
                                assert diff == tuple(expect)
                            assert rc.e(down, i) == b
                        up = rc.e(b, i)
                        if up is not None:
                            assert rc.f(up, i) == b
                        pairing = c[-1] - c[0] if i == 0 else c[i - 1] - c[i]
                        assert rc.phi(b, i) - rc.eps(b, i) == pairing
                        walk, count = b, 0
                        while (walk := rc.e(walk, i)) is not None:
                            count += 1
                        assert count == rc.eps(b, i)
                        walk, count = b, 0
                        while (walk := rc.f(walk, i)) is not None:
                            count += 1
                        assert count == rc.phi(b, i)
                        mirror = reflect(b, i)
                        assert reflect(mirror, i) == b
                        if i == 0:
                            gap = c[-1] - c[0]
                            expect_wt = vadd(c, tuple(gap * x for x in theta_vector(n)))
                        else:
                            expect_wt = list(c)
                            expect_wt[i - 1], expect_wt[i] = c[i], c[i - 1]
                            expect_wt = tuple(expect_wt)
                        assert mirror.content() == expect_wt
                        conj = promotion(down) if down is not None else None
                        assert conj == rc.f(promotion(b), (i + 1) % n)
                        checked += 1
    print("criterion 4 PASS: crystal axioms verified on %d (element, index) "
          "pairs" % checked)


def _acceptance_shapes(n):
    return [s for s in (S11, RectShape(1, 2), RectShape(2, 1)) if s.rows < n]


def test_criterion_5_local_isomorphism_suite():
    pairs_checked = triples_checked = 0
    for n in (2, 3):
        shapes = _acceptance_shapes(n)
        for s2, s1 in itertools.product(shapes, repeat=2):
            iso, _ = as_dicts(LocalIsoTable(n, s2, s1))
            reverse, _ = as_dicts(LocalIsoTable(n, s1, s2))
            for key, value in iso.items():
                assert reverse[value] == key
                src, img = Path(n, key), Path(n, value)
                for i in range(n):
                    up_s, up_i = rp.e(src, i), rp.e(img, i)
                    assert (up_s is None) == (up_i is None)
                    if up_s is not None:
                        assert iso[up_s.factors] == up_i.factors
                    dn_s, dn_i = rp.f(src, i), rp.f(img, i)
                    assert (dn_s is None) == (dn_i is None)
                    if dn_s is not None:
                        assert iso[dn_s.factors] == dn_i.factors
                pairs_checked += 1
        for sh in itertools.product(shapes, repeat=3):
            pools = [enumerate_tableaux(s, n) for s in sh]
            for triple in itertools.product(*pools):
                def swap(tup, pos):
                    left, right = local_iso(tup[pos], tup[pos + 1])
                    out = list(tup)
                    out[pos], out[pos + 1] = left, right
                    return tuple(out)

                front = swap(swap(swap(triple, 0), 1), 0)
                back = swap(swap(swap(triple, 1), 0), 1)
                assert front == back
                triples_checked += 1
    print("criterion 5 PASS: local isomorphism commutation, involutivity and "
          "triple compatibility on %d pairs, %d triples" % (pairs_checked, triples_checked))


def test_criterion_6_energy_suite():
    invariant_edges = drop_edges = 0
    shape_lists = []
    for n in (2, 3):
        for length in range(2, 5):
            shape_lists.append((n, (S11,) * length))
        shape_lists.append((n, (RectShape(1, 2), S11)))
        shape_lists.append((n, (S11, RectShape(1, 2), S11)))
    shape_lists.append((3, (RectShape(2, 1), S11, RectShape(2, 1))))
    for n, shapes in shape_lists:
        for p in enumerate_paths(n, shapes):
            base = path_energy(p)
            for i in range(1, n):
                up = rp.e(p, i)
                if up is not None:
                    assert path_energy(up) == base, (p, i)
                    invariant_edges += 1
            ell = max(s.cols for s in shapes)
            if rp.eps(p, 0) > ell:
                up = rp.e(p, 0)
                assert path_energy(up) == base - 1, p
                drop_edges += 1
    assert drop_edges > 0
    print("criterion 6 PASS: energy constant on %d classical edges, "
          "drops by one on %d applicable affine edges" % (invariant_edges, drop_edges))


def test_criterion_7_q1_oracle():
    checked = 0
    for spec in criterion_one_grid():
        plain = CrystalSpec(spec.n, spec.shapes)
        boxes = plain.total_boxes()
        for lam in itertools.product(range(boxes + 1), repeat=spec.n):
            if sum(lam) != boxes:
                continue
            if any(lam[i] < lam[i + 1] for i in range(spec.n - 1)):
                continue
            assert kostka_classical(plain, lam)(1) == multiplicity_oracle(plain, lam)
            checked += 1
    print("criterion 7 PASS: q=1 specialization matches the Schur expansion "
          "oracle on %d (spec, weight) pairs" % checked)


def test_criterion_8_straightening_soundness():
    window_checked = 0
    for n in (2, 3):
        for ell in (1, 2):
            width = ell + n
            for alpha in itertools.product(range(-width, width + 1), repeat=n):
                sym = SchurSymbol(alpha, ell)
                assert normalize(sym) == normalize_by_steps(sym), (n, ell, alpha)
                window_checked += 1
    bridged = 0
    for spec in criterion_one_grid():
        assert bosonic_via_straightening(spec) == bosonic_report(spec).polynomial, spec
        bridged += 1
    print("criterion 8 PASS: closed normal form agrees with rewriting on "
          "%d symbols; straightening bridge matches on %d specs"
          % (window_checked, bridged))


def test_criterion_9_truncation_certificate():
    for spec in criterion_one_grid():
        base = bosonic_report(spec)
        widened = bosonic_report(spec, widen=2)
        assert widened.polynomial == base.polynomial, spec
        assert widened.truncation_bound == base.truncation_bound + 2
    print("criterion 9 PASS: widening the lattice box by 2 fixes every "
          "alternating sum on the criterion-1 grid")
