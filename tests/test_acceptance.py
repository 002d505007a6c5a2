"""End-to-end acceptance checks.

Each test evaluates one numbered criterion by exact equality (the engine is
exact integer arithmetic throughout; there are no tolerances) and prints one
pass line on success.  A failed assertion is the fail line.
"""

import itertools

from reference_crystal import promotion, reflect
from reference_energy import as_dicts, local_iso

from crystalpaths import tableaux as tx
from crystalpaths.bosonic import (
    bosonic_report,
    bosonic_via_straightening,
    level_one_identity,
    level_zero_identity,
    level_zero_pairing,
)
from crystalpaths.energy import get_local_table, path_energy
from crystalpaths.kostka import (
    CrystalSpec,
    kostka_classical,
    kostka_level,
    multiplicity_oracle,
)
from crystalpaths.paths import Path, enumerate_paths
from crystalpaths.straighten import SchurSymbol, normalize, normalize_by_steps
from crystalpaths.tableaux import RectShape, enumerate_tableaux
from crystalpaths.weights import LevelWeight, theta_vector, vadd, vsub

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


def test_criterion_2_level_one_single_monomial():
    checked = nonempty = 0
    for n in (2, 3):
        fundamentals = [LevelWeight.vacuum(n, 1)] + [
            LevelWeight.fundamental(i, n) for i in range(1, n)
        ]
        for length in range(1, 5):
            for heights in itertools.product(range(1, n), repeat=length):
                shapes = tuple(RectShape(k, 1) for k in heights)
                for lam, lam_prime in itertools.product(fundamentals, repeat=2):
                    report = level_one_identity(
                        CrystalSpec(n, shapes, level=1, lam=lam, lam_prime=lam_prime)
                    )
                    assert report["equal"], (n, shapes, lam, lam_prime, report)
                    checked += 1
                    if report["path_exists"]:
                        nonempty += 1
                        assert report["single_monomial"], (n, shapes, lam, lam_prime)
    assert nonempty > 0
    print("criterion 2 PASS: level-one identity on %d weight choices "
          "(%d with a restricted path)" % (checked, nonempty))


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
                        down = tx.f(b, i)
                        if down is not None:
                            # weight drops by the (classical image of the) root
                            diff = vsub(down.content(), c)
                            if i == 0:
                                assert diff == theta_vector(n)
                            else:
                                expect = [0] * n
                                expect[i - 1], expect[i] = -1, 1
                                assert diff == tuple(expect)
                            assert tx.e(down, i) == b
                        up = tx.e(b, i)
                        if up is not None:
                            assert tx.f(up, i) == b
                        pairing = c[-1] - c[0] if i == 0 else c[i - 1] - c[i]
                        assert tx.phi(b, i) - tx.eps(b, i) == pairing
                        walk, count = b, 0
                        while (walk := tx.e(walk, i)) is not None:
                            count += 1
                        assert count == tx.eps(b, i)
                        walk, count = b, 0
                        while (walk := tx.f(walk, i)) is not None:
                            count += 1
                        assert count == tx.phi(b, i)
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
                        assert conj == tx.f(promotion(b), (i + 1) % n)
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
            iso, _ = as_dicts(get_local_table(n, s2, s1))
            reverse, _ = as_dicts(get_local_table(n, s1, s2))
            for key, value in iso.items():
                assert reverse[value] == key
                src, img = Path(n, key), Path(n, value)
                for i in range(n):
                    up_s, up_i = src.e(i), img.e(i)
                    assert (up_s is None) == (up_i is None)
                    if up_s is not None:
                        assert iso[up_s.factors] == up_i.factors
                    dn_s, dn_i = src.f(i), img.f(i)
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
                up = p.e(i)
                if up is not None:
                    assert path_energy(up) == base, (p, i)
                    invariant_edges += 1
            ell = max(s.cols for s in shapes)
            if p.eps(0) > ell:
                up = p.e(0)
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
