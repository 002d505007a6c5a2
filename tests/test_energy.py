import itertools
import json
import random

import pytest
import reference_paths as rp
from reference_energy import (
    as_dicts,
    augmented_energy,
    literal_local_table,
    local_energy,
    local_iso,
    path_energy,
)
from reference_paths import enumerate_paths

from crystalpaths.cli import main
from crystalpaths.energy import LocalIsoTable, carry_plan, zero_side_moves
from crystalpaths.kostka import scan_paths
from crystalpaths.pairing import level_zero_pairing
from crystalpaths.paths import Path, parse_path
from crystalpaths.tableaux import RectShape, Tableau, enumerate_tableaux, highest_weight_tableau
from crystalpaths.weights import LevelWeight

S11 = RectShape(1, 1)
S12 = RectShape(1, 2)
S21 = RectShape(2, 1)


def shapes_for(n):
    return [s for s in (S11, S12, S21) if s.rows < n]


def test_equal_shapes_give_identity():
    for n in (2, 3):
        for shape in shapes_for(n):
            iso, _ = as_dicts(LocalIsoTable(n, shape, shape))
            for key, value in iso.items():
                assert key == value


def test_mixed_shape_bijection_n2():
    iso, _ = as_dicts(LocalIsoTable(2, S12, S11))
    expected = {
        ("1,1", "1"): ("1", "1,1"),
        ("1,1", "2"): ("1", "1,2"),
        ("1,2", "1"): ("2", "1,1"),
        ("1,2", "2"): ("1", "2,2"),
        ("2,2", "1"): ("2", "1,2"),
        ("2,2", "2"): ("2", "2,2"),
    }
    got = {
        (str(k[0]), str(k[1])): (str(v[0]), str(v[1])) for k, v in iso.items()
    }
    assert got == expected


def test_iso_commutes_with_all_operators():
    for n in (2, 3):
        for s2, s1 in itertools.product(shapes_for(n), repeat=2):
            iso, _ = as_dicts(LocalIsoTable(n, s2, s1))
            for (a, b), (c, d) in iso.items():
                src = Path(n, (a, b))
                img = Path(n, (c, d))
                for i in range(n):
                    up_src = rp.e(src, i)
                    up_img = rp.e(img, i)
                    assert (up_src is None) == (up_img is None)
                    if up_src is not None:
                        assert iso[up_src.factors] == up_img.factors
                    down_src = rp.f(src, i)
                    down_img = rp.f(img, i)
                    assert (down_src is None) == (down_img is None)
                    if down_src is not None:
                        assert iso[down_src.factors] == down_img.factors


def test_iso_reverse_is_identity():
    for n in (2, 3):
        for s2, s1 in itertools.product(shapes_for(n), repeat=2):
            forward, _ = as_dicts(LocalIsoTable(n, s2, s1))
            backward, _ = as_dicts(LocalIsoTable(n, s1, s2))
            for key, value in forward.items():
                assert backward[value] == key


def _swap_at(n, triple, pos):
    left, right = triple[pos], triple[pos + 1]
    new_left, new_right = local_iso(left, right)
    out = list(triple)
    out[pos], out[pos + 1] = new_left, new_right
    return tuple(out)


def test_yang_baxter():
    for n in (2, 3):
        pool_shapes = shapes_for(n)
        for sh in itertools.product(pool_shapes, repeat=3):
            pools = [enumerate_tableaux(s, n) for s in sh]
            for triple in itertools.product(*pools):
                a = _swap_at(n, _swap_at(n, _swap_at(n, triple, 0), 1), 0)
                b = _swap_at(n, _swap_at(n, _swap_at(n, triple, 1), 0), 1)
                assert a == b


def test_local_energy_normalization_and_values():
    for n in (2, 3):
        for s2, s1 in itertools.product(shapes_for(n), repeat=2):
            _, energy = as_dicts(LocalIsoTable(n, s2, s1))
            u = (highest_weight_tableau(s2, n), highest_weight_tableau(s1, n))
            assert energy[u] == 0
    # two-value example: H is 0 on the highest component and -1 on the other
    _, energy = as_dicts(LocalIsoTable(2, S11, S11))
    values = {(str(k[0]), str(k[1])): v for k, v in energy.items()}
    assert values == {("1", "1"): 0, ("1", "2"): 0, ("2", "2"): 0, ("2", "1"): -1}
    assert set(values.values()) == {0, -1}


def test_local_energy_constant_along_classical_strings():
    for n in (2, 3):
        for s2, s1 in itertools.product(shapes_for(n), repeat=2):
            _, energy = as_dicts(LocalIsoTable(n, s2, s1))
            for (a, b), h in energy.items():
                src = Path(n, (a, b))
                for i in range(1, n):
                    up = rp.e(src, i)
                    if up is not None:
                        assert energy[up.factors] == h


def test_zero_string_steps_change_energy_by_one():
    _, energy = as_dicts(LocalIsoTable(2, S11, S11))
    x = (Tableau(2, ((2,),)), Tableau(2, ((1,),)))
    up = rp.e(Path(2, x), 0)
    assert up is not None
    assert abs(energy[up.factors] - energy[x]) == 1


def test_path_energy_examples():
    assert path_energy(Path(2, (Tableau(2, ((1,),)),))) == 0
    assert path_energy(Path(2, ())) == 0
    values = {str(p): path_energy(p) for p in enumerate_paths(2, (S11, S11))}
    assert values == {"1|1": 0, "1|2": 0, "2|1": -1, "2|2": 0}
    assert path_energy(parse_path("2|1|1", 2)) == -1
    assert path_energy(parse_path("1|2|1", 2)) == -2


def test_homogeneous_energy_closed_form():
    # for equal factors the sweep reduces to sum (L - i) H(b_{i+1}, b_i)
    for n in (2, 3):
        for length in (2, 3, 4):
            _, energy = as_dicts(LocalIsoTable(n, S11, S11))
            for p in enumerate_paths(n, (S11,) * length):
                fs = p.factors
                expected = 0
                for idx in range(length - 1):
                    expected += (idx + 1) * energy[(fs[idx], fs[idx + 1])]
                assert path_energy(p) == expected


def _energy_pairwise(p):
    # evaluate the defining sum pair by pair, transporting from scratch
    fs = p.factors
    length = len(fs)
    total = 0
    for j in range(2, length + 1):
        for i in range(1, j):
            x = fs[length - j]
            for k in range(j - 1, i, -1):
                x = local_iso(x, fs[length - k])[1]
            total += local_energy(x, fs[length - i])
    return total


def test_path_energy_transport_order_immaterial():
    rng = random.Random(77)
    for n in (2, 3):
        pool_shapes = shapes_for(n)
        for _ in range(40):
            sh = [rng.choice(pool_shapes) for _ in range(3)]
            pools = [enumerate_tableaux(s, n) for s in sh]
            p = Path(n, tuple(rng.choice(pool) for pool in pools))
            assert path_energy(p) == _energy_pairwise(p)


def test_energy_invariant_under_classical_raising():
    rng = random.Random(78)
    hits = 0
    while hits < 500:
        n = rng.choice([2, 3])
        length = rng.randint(2, 4)
        pools = [enumerate_tableaux(S11, n) for _ in range(length)]
        p = Path(n, tuple(rng.choice(pool) for pool in pools))
        i = rng.randint(1, n - 1)
        up = rp.e(p, i)
        if up is None:
            continue
        assert path_energy(up) == path_energy(p)
        hits += 1


def test_zero_raising_drops_energy_for_vacuum_applicable_edges():
    # when the raising passes the formal vacuum factor untouched the energy
    # drops by exactly one
    for n in (2, 3):
        ell = 1
        for length in (2, 3):
            for p in enumerate_paths(n, (S11,) * length):
                if rp.eps(p, 0) > ell:
                    up = rp.e(p, 0)
                    assert path_energy(up) == path_energy(p) - 1


def test_augmented_energy_constant_shift_for_vacuum():
    for n in (2, 3):
        for ell in (1, 2):
            lam = LevelWeight.vacuum(n, ell)
            for length in (1, 2, 3):
                shifts = {
                    augmented_energy(p, lam, RectShape(1, ell)) - path_energy(p)
                    for p in enumerate_paths(n, (S11,) * length)
                }
                assert len(shifts) == 1


def test_augmented_energy_empty_path():
    lam = LevelWeight.vacuum(2, 1)
    assert augmented_energy(Path(2, ()), lam, S11) == 0


def test_local_table_matches_literal_builder():
    """The flat tables, filled entry by entry, equal the literal Tableau/Path
    construction in H and both image components, on every shape pair of
    height below n <= 4 and width at most 2."""
    for n in (2, 3, 4):
        shapes = [RectShape(k, l) for k in range(1, n) for l in (1, 2)]
        for s2, s1 in itertools.product(shapes, repeat=2):
            assert as_dicts(LocalIsoTable(n, s2, s1)) == literal_local_table(n, s2, s1), (n, s2, s1)


def test_on_demand_rh_matches_literal_builder_on_rectangle_pairs():
    """R and H computed pair by pair from the classically highest element
    equal the literal whole-table construction on every entry of the 97
    ordered pairs of 1x1, 2x1, 1x2, 2x2, 1x3, 3x1 with height below n,
    n = 3, 4, 5 (20505 entries)."""
    entries = 0
    for n in (3, 4, 5):
        shapes = [RectShape(*s) for s in ((1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 1)) if s[0] < n]
        for s2, s1 in itertools.product(shapes, repeat=2):
            table = LocalIsoTable(n, s2, s1)
            assert as_dicts(table) == literal_local_table(n, s2, s1), (n, s2, s1)
            entries += len(table.energy)
    assert entries == 20505


def test_on_demand_fills_under_one_percent_of_a_wide_product(capsys):
    """verify on n=6, 2x3,2x3,1x3,1x3, level 3 computes R and H for fewer
    than 1% of the 270676 pairs of the three tables its scans meet."""
    LocalIsoTable.cache_clear()
    assert main(["verify", "--n", "6", "--level", "3", "--shapes", "2x3,2x3,1x3,1x3", "--Lambda", "3L0"]) == 0
    assert json.loads(capsys.readouterr().out)["equal"]
    s23, s13 = RectShape(2, 3), RectShape(1, 3)
    tables = [LocalIsoTable(6, s23, s23), LocalIsoTable(6, s23, s13), LocalIsoTable(6, s13, s13)]
    assert LocalIsoTable.cache_info().currsize == 3  # no table but these three was made
    assert sum(len(t.energy) for t in tables) == 270676
    filled = sum(h is not None for t in tables for h in t.energy)
    assert 0 < filled < 2706


def test_one_local_table_per_pair():
    """LocalIsoTable keeps one table per (n, shape2, shape1) in the process:
    a carry plan holds it, and the scan, the level-zero pairing and
    zero_side_moves all fill that instance and build no other."""
    LocalIsoTable.cache_clear()
    table = LocalIsoTable(3, S21, S11)
    assert LocalIsoTable(3, S21, S11) is table and LocalIsoTable(3, S11, S21) is not table
    _, plan = carry_plan(3, (S21, S11, S21))
    assert [held for _, meets in plan for _, _, held in meets] == [
        table, LocalIsoTable(3, S21, S21), LocalIsoTable(3, S11, S21)]
    LocalIsoTable.cache_clear()
    table = LocalIsoTable(3, S21, S11)
    filled = [sum(h is not None for h in table.energy)]
    for use in (lambda: scan_paths(3, (S21, S11), (1, 1, 1), LevelWeight.vacuum(3, 1), False),
                lambda: level_zero_pairing(3, (S21, S11)),
                lambda: [zero_side_moves(3, S21, S11, z) for z in range(3)]):
        use()
        filled.append(sum(h is not None for h in table.energy))
        assert LocalIsoTable.cache_info().misses == 1  # each use found the one table
    assert filled[0] < filled[1] < filled[2] < filled[3], filled
    with pytest.raises(ValueError):
        LocalIsoTable(3, RectShape(3, 1), S11)  # no 3-row rectangle at rank 3
