import itertools

import pytest

from crystalpaths import energy, kostka
from crystalpaths.kostka import (
    CrystalSpec,
    classical_dimension,
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
    assert kostka_classical(spec, (2, 0)).is_monomial()
    assert kostka_classical(spec, (1, 1)).is_monomial()
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
    assert poly.is_monomial() and poly(1) == 1
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
        CrystalSpec(3, (RectShape(3, 1),)).validate()
    with pytest.raises(ValueError):
        CrystalSpec(2, (RectShape(1, 2),), level=1, lam=LevelWeight.vacuum(2, 1)).validate()
    with pytest.raises(ValueError):
        CrystalSpec(2, (S11,), level=2, lam=LevelWeight.vacuum(2, 1)).validate()
    with pytest.raises(ValueError):
        CrystalSpec(2, (S11,), level=1, lam=LevelWeight(1, (0, 2), 0)).validate()
    with pytest.raises(ValueError):
        CrystalSpec(
            2, (S11,), level=2, lam=LevelWeight.vacuum(2, 2), b0_shape=RectShape(1, 1)
        ).validate()
    with pytest.raises(ValueError):
        kostka_level(CrystalSpec(2, (S11,)))


def test_grading_selection():
    vac = vacuum_spec(2, (S11,), 1)
    assert vac.grading() == ("plain", None)
    other = CrystalSpec(2, (S11,), level=1, lam=LevelWeight.fundamental(1, 2))
    kind, args = other.grading()
    assert kind == "augmented" and args[1] == RectShape(1, 1)


def test_parallel_scan_matches_serial():
    spec = vacuum_spec(2, (S11,) * 4, 2)
    assert kostka_level(spec, jobs=2) == kostka_level(spec)
    classical = CrystalSpec(3, (S11,) * 3)
    assert kostka_classical(classical, (2, 1, 0), jobs=2) == kostka_classical(
        classical, (2, 1, 0)
    )


def test_polynomial_type():
    assert isinstance(kostka_classical(CrystalSpec(2, (S11,)), (1, 0)), LaurentPoly)


def test_level_scan_resolves_b0_once(monkeypatch):
    calls = []
    resolve = energy.phi_matching_element

    def counting_resolve(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(energy, "phi_matching_element", counting_resolve)
    monkeypatch.setattr(kostka, "phi_matching_element", counting_resolve)
    lam = LevelWeight(2, (1, 0, 0), 0)
    spec = CrystalSpec(3, (S11,) * 3, level=2, lam=lam)
    assert spec.grading()[0] == "augmented"
    poly = kostka_level(spec)
    # one chunk, so one resolution for all of its restricted paths
    assert poly(1) > 1
    assert len(calls) == 1
