import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import reference_paths as rp
from reference_energy import augmented_energy, b0_tail, path_energy
from reference_bosonic import literal_content_table
from reference_paths import (
    classical_dimension,
    classically_restricted_paths,
    enumerate_paths,
    level_restricted_paths,
)
from test_acceptance import criterion_one_grid
from test_bosonic import dominant_weights as dominant_level_weights

from crystalpaths import energy, kostka, pairing, paths, tableaux
from crystalpaths.bosonic import bosonic_report, commutation_hypothesis_warnings
from crystalpaths.cli import main
from crystalpaths.kostka import (
    FACTOR_LIMIT,
    TABLE_LIMIT,
    CrystalSpec,
    check_tables,
    factor_size,
    kostka_classical,
    kostka_level,
    multiplicity_oracle,
    schur_expand,
    schur_monomials,
)
from crystalpaths.laurent import LaurentPoly
from crystalpaths.tableaux import RectShape
from crystalpaths.weights import LevelWeight

S11 = RectShape(1, 1)


def vacuum_spec(n, shapes, ell):
    return CrystalSpec(n, shapes, level=ell, lam=LevelWeight.vacuum(n, ell))


def dominant_weights(n, boxes):
    for lam in itertools.product(range(boxes + 1), repeat=n):
        if sum(lam) == boxes and all(lam[i] >= lam[i + 1] for i in range(n - 1)):
            yield lam


def test_classical_examples():
    spec = CrystalSpec(2, (S11, S11))
    assert len(kostka_classical(spec, (2, 0)).pairs()) == 1
    assert len(kostka_classical(spec, (1, 1)).pairs()) == 1
    three = CrystalSpec(2, (S11,) * 3)
    poly = kostka_classical(three, (2, 1))
    assert poly(1) == 2
    exps = [e for e, _ in poly.pairs()]
    assert len(exps) == 2 and exps[1] - exps[0] == 1
    assert kostka_classical(three, (3, 1)) == 0
    assert kostka_classical(three, (1, 2)) == 0


def test_level_examples():
    spec = vacuum_spec(2, (S11, S11), 1)
    poly = kostka_level(spec)
    assert len(poly.pairs()) == 1 and poly(1) == 1
    empty_target = CrystalSpec(
        2, (S11,), level=1, lam=LevelWeight.vacuum(2, 1), lam_prime=LevelWeight.vacuum(2, 1)
    )
    assert kostka_level(empty_target) == 0


def test_level_coefficients_are_counts():
    for n in (2, 3):
        for ell in (1, 2):
            for length in range(1, 5):
                poly = kostka_level(vacuum_spec(n, (S11,) * length, ell))
                assert all(c > 0 for _, c in poly.pairs())


def test_large_level_reduces_to_classical():
    # once the level exceeds the box count the affine constraint cannot bind
    for n in (2, 3):
        for length in range(1, 4):
            shapes = (S11,) * length
            ell = length + 1
            for lam in dominant_weights(n, length):
                lam_prime = LevelWeight(ell, lam, 0)
                if not lam_prime.is_dominant():
                    continue
                spec = CrystalSpec(
                    n, shapes, level=ell, lam=LevelWeight.vacuum(n, ell), lam_prime=lam_prime
                )
                assert kostka_level(spec) == kostka_classical(CrystalSpec(n, shapes), lam)


def test_monotone_in_level():
    for n in (2, 3):
        for length in range(1, 5):
            shapes = (S11,) * length
            low = dict(kostka_level(vacuum_spec(n, shapes, 1)).pairs())
            high = dict(kostka_level(vacuum_spec(n, shapes, 2)).pairs())
            for exp, coeff in low.items():
                assert high.get(exp, 0) >= coeff


def test_multiplicity_oracle_examples():
    assert multiplicity_oracle(CrystalSpec(3, (RectShape(2, 2),)), (2, 2, 0)) == 1
    assert multiplicity_oracle(CrystalSpec(2, (S11, S11)), (1, 1)) == 1
    assert multiplicity_oracle(CrystalSpec(2, (S11, S11)), (3, 0)) == 0


def test_oracle_matches_q1_on_grid():
    shape_sets = [
        (2, (S11, S11)),
        (2, (S11,) * 4),
        (2, (RectShape(1, 2), S11)),
        (3, (S11,) * 3),
        (3, (RectShape(1, 2), S11)),
        (3, (RectShape(2, 1), S11, S11)),
    ]
    for n, shapes in shape_sets:
        spec = CrystalSpec(n, shapes)
        boxes = spec.total_boxes()
        for lam in dominant_weights(n, boxes):
            assert kostka_classical(spec, lam)(1) == multiplicity_oracle(spec, lam)


def test_schur_expansion_internals():
    mono = dict(schur_monomials((2, 1), 3))
    assert sum(mono.values()) == classical_dimension((2, 1), 3) == 8
    product = {}
    for ka, va in schur_monomials((1,), 2):
        for kb, vb in schur_monomials((1,), 2):
            key = tuple(x + y for x, y in zip(ka, kb))
            product[key] = product.get(key, 0) + va * vb
    assert schur_expand(product, 2) == {(2, 0): 1, (1, 1): 1}
    assert schur_monomials((1, 1, 1), 2) == ()


def test_validation_errors():
    with pytest.raises(ValueError):
        CrystalSpec(3, (RectShape(3, 1),))
    with pytest.raises(ValueError):
        CrystalSpec(2, (RectShape(1, 2),), level=1, lam=LevelWeight.vacuum(2, 1))
    with pytest.raises(ValueError):
        CrystalSpec(2, (S11,), level=2, lam=LevelWeight.vacuum(2, 1))
    with pytest.raises(ValueError):
        CrystalSpec(2, (S11,), level=1, lam=LevelWeight(1, (0, 2), 0))
    with pytest.raises(ValueError):
        CrystalSpec(2, (S11,), level=2, lam=LevelWeight.vacuum(2, 2), b0_shape=RectShape(1, 1))
    with pytest.raises(ValueError, match="Lambda, the restriction weight, is required"):
        kostka_level(CrystalSpec(2, (S11,)))


def test_factor_size_counts_the_enumeration():
    """The hook-content count of |B(shape)| at rank n is the number of
    tableaux the crystal enumerates and the sum of the coefficients of the
    rectangle's Schur polynomial, at every rank n <= 6 and width up to 4
    (wider ones pass FACTOR_LIMIT at rank 6)."""
    assert [factor_size(n, RectShape(*s)) for n, s in ((2, (1, 1)), (3, (2, 1)), (3, (2, 2)), (6, (2, 3)))] \
        == [2, 3, 6, 490]
    for n in range(2, 7):
        for shape in (RectShape(rows, cols) for rows in range(1, n) for cols in range(1, 5)):
            size = factor_size(n, shape)
            assert size == len(tableaux.enumerate_tableaux(shape, n))
            assert size == sum(c for _, c in schur_monomials((shape.cols,) * shape.rows, n))


def refuse_building(monkeypatch):
    """Make building a factor crystal or a Schur polynomial raise."""
    def unreachable(*args):
        raise AssertionError("a crystal or Schur polynomial was built for %s" % (args,))
    monkeypatch.setattr(tableaux, "fillings", unreachable)
    monkeypatch.setattr(tableaux, "enumerate_tableaux", unreachable)
    monkeypatch.setattr(kostka, "schur_monomials", unreachable)


def test_oversized_factor_refused_before_building(monkeypatch):
    """A factor over FACTOR_LIMIT elements (B(10x1) at rank 20 has 184756)
    is refused when a spec of it is made, so before any entry point runs
    and any crystal or Schur polynomial is built, and so is the level-zero
    spec of both level-zero entry points; far-off sizes are refused by the
    lower bounds n and rows * cols + 1 without the product, and a rank over
    FACTOR_LIMIT for any product, the empty one too."""
    refuse_building(monkeypatch)
    big = RectShape(10, 1)
    calls = [lambda: CrystalSpec(20, (big,)),
             lambda: CrystalSpec(20, (big,), level=1, lam=LevelWeight.vacuum(20, 1),
                                 lam_prime=LevelWeight.fundamental(10, 20)),
             lambda: pairing.level_zero_identity(20, (big,)), lambda: pairing.level_zero_pairing(20, (big,))]
    for call in calls:
        with pytest.raises(ValueError, match="10x1 at rank 20 has at least 184756 elements, over FACTOR_LIMIT"):
            call()
    for n, shape, least in ((FACTOR_LIMIT + 1, S11, FACTOR_LIMIT + 1), (3, RectShape(1, 10 ** 8), 10 ** 8 + 1),
                            (FACTOR_LIMIT, RectShape(50, 99), 10 ** 18)):
        with pytest.raises(ValueError, match="has at least %d elements" % least):
            factor_size(n, shape)
    assert factor_size(14, RectShape(7, 1)) == 3432 <= FACTOR_LIMIT
    for shapes in ((), (S11,)):  # a rank over the limit, the empty product included
        with pytest.raises(ValueError, match="rank %d is over FACTOR_LIMIT = %d" % (FACTOR_LIMIT + 1, FACTOR_LIMIT)):
            check_tables(FACTOR_LIMIT + 1, shapes)
    check_tables(FACTOR_LIMIT, ())



def test_oversized_table_refused_before_building(monkeypatch):
    """Two factors under FACTOR_LIMIT whose local table would hold over
    TABLE_LIMIT pairs (B(6x1) (x) B(7x1) at rank 14, 3003 * 3432) are refused
    when a spec of them is made and by the CLI with exit 2, before any
    crystal or Schur polynomial is built, also apart or with a b0 tail of
    that size, and so is a b0 crystal over FACTOR_LIMIT; one such factor
    alone, and the largest product the tests run, pass."""
    refuse_building(monkeypatch)
    shapes = (RectShape(6, 1), RectShape(7, 1))
    calls = [lambda: CrystalSpec(14, shapes), lambda: CrystalSpec(14, shapes, level=1, lam=LevelWeight.vacuum(14, 1)),
             lambda: CrystalSpec(14, shapes[1:], level=1, lam=LevelWeight.fundamental(3, 14), b0_shape=shapes[0]),
             lambda: pairing.level_zero_identity(14, shapes),
             lambda: pairing.level_zero_pairing(14, (shapes[1], RectShape(1, 1), shapes[0]))]
    for call in calls:
        with pytest.raises(ValueError, match="would hold 10306296 pairs, over TABLE_LIMIT = %d" % TABLE_LIMIT):
            call()
    for argv in (["verify", "--level", "1", "--Lambda", "L0"], ["verify-zero"]):
        assert main([*argv, "--n", "14", "--shapes", "6x1,7x1"]) == 2
    # the b0 crystal is a factor too: B(1x6) at rank 12 has 12376 elements
    with pytest.raises(ValueError, match="1x6 at rank 12 has at least 12376 elements, over FACTOR_LIMIT"):
        CrystalSpec(12, (RectShape(1, 1),), level=6, lam=LevelWeight(6, (1,) + (0,) * 11, 0))
    CrystalSpec(14, shapes[1:], level=1, lam=LevelWeight.vacuum(14, 1), b0_shape=shapes[0])
    check_tables(6, (RectShape(2, 3),) * 2)
    assert factor_size(6, RectShape(2, 3)) ** 2 == 240100 <= TABLE_LIMIT

def test_grading_selection():
    vac = vacuum_spec(2, (S11,), 1)
    assert vac.b0() is None
    assert CrystalSpec(2, (S11,)).b0() is None
    other = CrystalSpec(2, (S11,), level=1, lam=LevelWeight.fundamental(1, 2))
    shape, x = other.b0()
    assert shape == RectShape(1, 1)
    crystal = tableaux.RectCrystal(2, shape)
    assert [crystal.phi[i][x] for i in range(2)] == [0, 1] == [other.lam.pairing(i) for i in range(2)]
    assert str(crystal.elements[x]) == "1"


def test_scan_reads_each_table_once_per_pair():
    """Every table is made once per pair of shapes a path meets, an earlier
    factor's shape against a later one's and each against b0, and a later
    scan reuses it."""
    s21, s12 = RectShape(2, 1), RectShape(1, 2)
    spec = CrystalSpec(3, (s21, S11, s12, S11), level=2, lam=LevelWeight(2, (1, 0, 0), 0))
    # left of right, then each factor against b0 (1x2)
    pairs = {(s21, S11), (s21, s12), (S11, s12), (S11, S11), (s12, S11)}
    pairs |= {(s, s12) for s in spec.shapes}
    energy.LocalIsoTable.cache_clear()
    for _ in ("make", "reuse"):
        kostka_level(spec)
        assert energy.LocalIsoTable.cache_info().misses == len(pairs)
    for pair in pairs:  # the tables built are those of these pairs
        energy.LocalIsoTable(3, *pair)
    assert energy.LocalIsoTable.cache_info().misses == len(pairs)


def test_polynomial_type():
    assert isinstance(kostka_classical(CrystalSpec(2, (S11,)), (1, 0)), LaurentPoly)


def test_level_scan_resolves_b0_once(monkeypatch):
    """The spec finds b0 once, when it is made: the scans, the alternating
    sum and the commutation check read it from the spec."""
    calls, crystal = [], tableaux.RectCrystal.__wrapped__  # the class that the cache wraps
    monkeypatch.setattr(crystal, "unique", counting(crystal.unique, calls))
    lam = LevelWeight(2, (1, 0, 0), 0)
    spec = CrystalSpec(3, (S11,) * 3, level=2, lam=lam)
    assert not spec.is_vacuum()
    assert len(calls) == 1
    assert kostka_level(spec)(1) > 1
    assert bosonic_report(spec).polynomial
    assert commutation_hypothesis_warnings(spec) == []
    assert spec.b0() == spec.b0() is not None
    assert len(calls) == 1
    # a vacuum spec has no b0 and looks none up
    calls.clear()
    assert vacuum_spec(3, (S11,) * 3, 2).b0() is None and calls == []


def test_oversized_b0_is_refused_before_any_crystal_is_built(monkeypatch):
    """The spec looks b0 up only after every check: a b0 crystal over
    FACTOR_LIMIT is refused without building a crystal."""
    def built(*args):
        raise AssertionError("a crystal was built for %s" % (args,))

    monkeypatch.setattr(tableaux, "RectCrystal", built)
    with pytest.raises(ValueError, match="1x6 at rank 12 has at least 12376 elements, over FACTOR_LIMIT"):
        CrystalSpec(12, (S11,), level=6, lam=LevelWeight(6, (1,) + (0,) * 11, 0))


def test_verify_looks_b0_up_once(monkeypatch, capsys):
    """crystalpaths verify makes one b0 lookup for its spec, with the
    widened box and the commutation warnings too."""
    calls, crystal = [], tableaux.RectCrystal.__wrapped__
    monkeypatch.setattr(crystal, "unique", counting(crystal.unique, calls))
    assert main(["verify", "--n", "3", "--level", "2", "--shapes", "1x1,2x1,1x2,1x1",
                 "--Lambda", "L0+L1", "--b0", "2x2", "--widen-check"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def counting(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


def test_level_scan_skipped_when_n_does_not_divide(monkeypatch):
    calls = []
    monkeypatch.setattr(kostka, "scan_paths", counting(kostka.scan_paths, calls))
    # 2 boxes at rank 3: no content c has Lambda + c = Lambda modulo (1, 1, 1)
    assert kostka_level(vacuum_spec(3, (S11, S11), 2)) == 0
    lam = LevelWeight(2, (1, 0, 0), 0)
    assert kostka_level(CrystalSpec(3, (S11,) * 4, level=2, lam=lam)) == 0
    assert calls == []


def test_walk_leaves_are_the_literal_restricted_paths(monkeypatch):
    """The affine scan at every content of the product gives the paths
    that is_level_restricted accepts, and at the target content the ones of
    level_restricted_paths; the scan itself calls neither the restriction
    test nor path_energy, and every scan needs its target content."""
    lam = LevelWeight(2, (1, 0, 0), 0)  # L0 + L1
    spec = CrystalSpec(3, (S11,) * 6, level=2, lam=lam)
    literal = {}
    for p in enumerate_paths(3, spec.shapes):
        graded = graded_stream([p], spec) if rp.is_level_restricted(p, lam) else 0
        literal[p.weight()] = literal.get(p.weight(), LaurentPoly.zero()) + graded
    target = list(level_restricted_paths(3, spec.shapes, lam, lam))

    def forbidden(*args, **kwargs):
        raise AssertionError("the scan called a per-path reference")

    for module in (paths, energy, kostka):
        monkeypatch.setattr(module, "is_level_restricted", forbidden, raising=False)
        monkeypatch.setattr(module, "path_energy", forbidden, raising=False)
    scanned = {c: kostka.scan_paths(3, spec.shapes, c, lam, True, spec.b0()) for c in literal}
    poly = kostka_level(spec)
    monkeypatch.undo()
    assert scanned == literal
    assert sum(map(bool, literal.values())) > 1
    assert poly == graded_stream(target, spec) == literal[(2, 2, 2)]
    with pytest.raises(TypeError):
        kostka.scan_paths(3, spec.shapes, None, lam, True, spec.b0())


def graded_stream(stream, spec):
    """The literal sum of q^(energy) over a stream of paths, grading each
    with the public per-path energy functions."""
    total = LaurentPoly.zero()
    for p in stream:
        if spec.lam is None or spec.is_vacuum():
            exp = path_energy(p)
        else:
            exp = augmented_energy(p, spec.lam, spec.resolved_b0_shape())
        total = total + LaurentPoly.q_power(exp)
    return total


def test_scan_matches_literal_streams():
    """kostka_level and kostka_classical equal the literal restricted path
    streams on the criterion-1 products, at every pair of dominant level
    weights (vacuum and not) and at every dominant content."""
    nonzero = 0
    for base in criterion_one_grid():
        n, ell, shapes = base.n, base.level, base.shapes
        classical = CrystalSpec(n, shapes)
        for lam in dominant_weights(n, classical.total_boxes()):
            want = graded_stream(classically_restricted_paths(n, shapes, lam), classical)
            assert kostka_classical(classical, lam) == want, (n, shapes, lam)
        weights = list(dominant_level_weights(n, ell))
        for lam, lam_prime in itertools.product(weights, repeat=2):
            spec = CrystalSpec(n, shapes, level=ell, lam=lam, lam_prime=lam_prime)
            want = graded_stream(level_restricted_paths(n, shapes, lam, lam_prime), spec)
            assert kostka_level(spec) == want, spec
            nonzero += bool(want)
    assert nonzero > 0


def unrestricting_weight(n, boxes):
    """A weight with every classical pairing 2 * boxes, so that a classical
    scan against it admits every path of that box count: a factor's eps_i
    is at most its box count, and the suffix lowers phi_i by at most boxes."""
    return LevelWeight(0, tuple(2 * boxes * (n - 1 - i) for i in range(n)), 0)


def assert_classical_fibres_match_literal(spec):
    """The classical scan against Lambda, with the b0 tail, at every content
    of the product equals the literal table of the paths p with p (x)
    u_Lambda classically highest, and the classical scan against a weight
    that restricts nothing equals the literal table of every path."""
    n, shapes, b0 = spec.n, spec.shapes, spec.b0()
    literal = literal_content_table(
        spec, (p for p in enumerate_paths(n, shapes) if rp.is_classically_restricted(p, spec.lam)))
    full = literal_content_table(spec)
    wide = unrestricting_weight(n, spec.total_boxes())
    for c in kostka.schur_product(n, tuple(sorted(shapes))):
        assert kostka.scan_paths(n, shapes, c, spec.lam, False, b0) == literal.get(c, 0), (spec, c)
        assert kostka.scan_paths(n, shapes, c, wide, False, b0) == full[c], (spec, c)
    assert literal


def test_walk_carry_matches_literal_grading():
    """On products of three or more unequal factors the scan carries each
    earlier factor past every later one by the local isomorphism; compare
    with the literal grading in several orders, vacuum and not, of the
    classical scans against Lambda at every content and of the level
    polynomial."""
    s21, s12 = RectShape(2, 1), RectShape(1, 2)
    products = [
        (3, 2, (s21, S11, s12, S11)),
        (3, 2, (s12, S11, S11, s21)),
        (3, 2, (S11, s21, s12)),
        (4, 2, (s21, S11, S11, s21, S11)),
        (4, 2, (S11, s21, S11, s21)),
    ]
    seen = set()
    for n, ell, shapes in products:
        weights = list(dominant_level_weights(n, ell))
        boxes = sum(s.rows * s.cols for s in shapes)
        for lam in weights[:3]:  # the vacuum weight first
            lam_primes = [w for w in weights if paths.target_content(lam, w, boxes)]
            for k, lam_prime in enumerate(lam_primes[:2]):
                spec = CrystalSpec(n, shapes, level=ell, lam=lam, lam_prime=lam_prime)
                if k == 0:  # the classical fibres do not depend on LambdaPrime
                    assert_classical_fibres_match_literal(spec)
                want = sum(literal_content_table(
                    spec, level_restricted_paths(n, shapes, lam, lam_prime)).values(), LaurentPoly.zero())
                assert kostka_level(spec) == want, spec
                seen.add((n, spec.is_vacuum(), bool(want)))
    assert {(3, True, True), (3, False, True), (4, True, True), (4, False, True)} <= seen


@st.composite
def small_specs(draw):
    """A random spec with n <= 4, level <= 3, one to five factors of mixed
    shapes up to 2 columns, and random dominant Lambda and LambdaPrime; the
    factors are cut off once the product would exceed 1000 paths."""
    n, ell = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    kinds = [RectShape(r, c) for r in range(1, n) for c in range(1, min(ell, 2) + 1)]
    shapes, size = [], 1
    for shape in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        size *= len(tableaux.RectCrystal(n, shape).elements)
        if size > 1000:
            break
        shapes.append(shape)
    weights = list(dominant_level_weights(n, ell))
    lam, lam_prime = draw(st.sampled_from(weights)), draw(st.sampled_from(weights))
    return CrystalSpec(n, tuple(shapes), level=ell, lam=lam, lam_prime=lam_prime)


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_specs())
def test_scan_matches_literal_reference_on_random_specs(spec):
    """At every content, the affine scan against Lambda, the classical scans
    against Lambda and against a weight that restricts nothing (all with the
    b0 tail) and the classical scan against the zero weight, and
    kostka_level, equal the literal reference:
    enumerate_paths, path_energy of the path followed by the b0 tail, and
    the literal restriction tests and streams."""
    n, shapes, b0 = spec.n, spec.shapes, spec.b0()
    tail = b0_tail(n, b0)
    zero_weight, wide = LevelWeight.vacuum(n, 0), unrestricting_weight(n, spec.total_boxes())
    full, level, fibre, classical = {}, {}, {}, {}
    for p in enumerate_paths(n, shapes):
        c, zero = p.weight(), LaurentPoly.zero()
        graded = LaurentPoly.q_power(path_energy(paths.Path(n, p.factors + tail)))
        full[c] = full.get(c, zero) + graded
        level[c] = level.get(c, zero) + (graded if rp.is_level_restricted(p, spec.lam) else 0)
        fibre[c] = fibre.get(c, zero) + (graded if rp.is_classically_restricted(p, spec.lam) else 0)
        classical[c] = classical.get(c, zero) + (
            LaurentPoly.q_power(path_energy(p)) if rp.is_classically_restricted(p) else 0)
    for c in level:
        assert kostka.scan_paths(n, shapes, c, spec.lam, True, b0) == level[c]
        assert kostka.scan_paths(n, shapes, c, spec.lam, False, b0) == fibre[c]
        assert kostka.scan_paths(n, shapes, c, wide, False, b0) == full[c]
        assert kostka.scan_paths(n, shapes, c, zero_weight, False) == classical[c]
    want = graded_stream(level_restricted_paths(n, shapes, spec.lam, spec.resolved_lam_prime()), spec)
    assert kostka_level(spec) == want


@st.composite
def width_edge_scans(draw):
    """A scan at the edges of the packed state's field width: n <= 4, a
    level up to 6 with Lambda = l Lambda_k on one node k (or, classically,
    a weight that restricts nothing, whose pairings are 2 * boxes), affine
    or classical, with or without the b0 tail, at most 200 paths."""
    n, ell = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    kinds = [RectShape(r, c) for r in range(1, n) for c in range(1, min(ell, 3) + 1)]
    shapes, size = [], 1
    for shape in draw(st.lists(st.sampled_from(kinds), max_size=5)):
        size *= len(tableaux.RectCrystal(n, shape).elements)
        if size > 200:
            break
        shapes.append(shape)
    k = draw(st.integers(0, n - 1))
    spec = CrystalSpec(n, tuple(shapes), level=ell, lam=LevelWeight(ell, (ell,) * k + (0,) * (n - k), 0))
    wide = draw(st.booleans())
    affine = not wide and draw(st.booleans())
    b0 = spec.b0() if draw(st.booleans()) else None
    return spec, wide, affine, b0


def literal_scan(spec, wide, affine, b0):
    """(restriction weight, content -> the literal sum of q^energy over the
    restricted paths of that content, every path tensored with b0 if given)
    for a scan drawn by width_edge_scans."""
    n, boxes, tail = spec.n, spec.total_boxes(), b0_tail(spec.n, b0)
    lam = unrestricting_weight(n, boxes) if wide else spec.lam
    literal, zero = {}, LaurentPoly.zero()
    for p in enumerate_paths(n, spec.shapes):
        kept = wide or (rp.is_level_restricted(p, lam) if affine else rp.is_classically_restricted(p, lam))
        graded = LaurentPoly.q_power(path_energy(paths.Path(n, p.factors + tail))) if kept else zero
        literal[p.weight()] = literal.get(p.weight(), zero) + graded
    return lam, literal


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(width_edge_scans())
def test_scan_matches_literal_at_width_edges(scan):
    """scan_paths equals the literal enumeration at every content of the
    product, at a content with all boxes on one entry (often outside the
    product, and the first state's most negative difference field), and
    is zero at a content with a negative entry or a wrong box count."""
    spec, wide, affine, b0 = scan
    n, shapes, boxes = spec.n, spec.shapes, spec.total_boxes()
    lam, literal = literal_scan(spec, wide, affine, b0)
    ends = [tuple(boxes if j == i else 0 for j in range(n)) for i in range(n)]
    for c in [*literal, *ends]:
        assert kostka.scan_paths(n, shapes, c, lam, affine, b0) == literal.get(c, 0), (spec, wide, c)
    for c in ((boxes + 1,) + (0,) * (n - 1), (boxes + 1, -1) + (0,) * (n - 2), (1,) * n):
        if sum(c) != boxes or min(c) < 0:
            assert kostka.scan_paths(n, shapes, c, lam, affine, b0) == 0, (spec, wide, c)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(width_edge_scans(), st.randoms(use_true_random=False))
def test_one_scan_plan_matches_literal_at_every_target(scan, random):
    """One scan plan, set up once and applied to many targets in a random
    order, equals the literal enumeration at each of them: every content of
    the product, each all-boxes-on-one-entry content, and (zero there) the
    zero content, contents with a negative entry and wrong box counts; the
    guard code, element tables and carry plan it shares hold no target."""
    spec, wide, affine, b0 = scan
    n, boxes = spec.n, spec.total_boxes()
    lam, literal = literal_scan(spec, wide, affine, b0)
    plan = kostka.scan_plan(n, spec.shapes, lam, affine, b0)
    ends = [tuple(boxes if j == i else 0 for j in range(n)) for i in range(n)]
    off = [(0,) * n, (boxes + 1,) + (0,) * (n - 1), (boxes + 1, -1) + (0,) * (n - 2),
           (-1,) + (0,) * (n - 2) + (boxes + 1,), (1,) * n]
    targets = [*literal, *ends, *off] * 2
    random.shuffle(targets)
    for c in targets:
        assert plan(c) == literal.get(c, 0), (spec, wide, affine, c)


def test_scan_grades_only_pairs_the_literal_rule_keeps(monkeypatch):
    """The scan grades exactly the (state, element) pairs that pass the
    signature rule at the moment the element is placed, so its grade calls
    stay at the counts below; a looser test that admits pairs which die at
    a later factor grades more pairs for the same polynomial."""
    calls = []
    monkeypatch.setattr(kostka, "grade", counting(kostka.grade, calls))
    s21, s12 = RectShape(2, 1), RectShape(1, 2)
    cases = [  # spec, fibre content, grade calls of kostka_level and of the fibre scan
        (CrystalSpec(3, (s21, S11, s12, S11), level=2, lam=LevelWeight(2, (1, 0, 0), 0)), (3, 2, 1), 14, 30),
        (vacuum_spec(4, (S11, s21, S11, S11, s21, S11), 2), (3, 2, 2, 1), 21, 59),
    ]
    for spec, content, level_calls, fibre_calls in cases:
        calls.clear()
        assert kostka_level(spec)
        assert len(calls) == level_calls, spec
        calls.clear()
        assert kostka.scan_paths(spec.n, spec.shapes, content, spec.lam, False, spec.b0())
        assert len(calls) == fibre_calls, spec
