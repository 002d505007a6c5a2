"""Literal references for the local tables.

energy.LocalIsoTable fills R and H one pair at a time, over flat integer
lists indexed by the elements of tableaux.RectCrystal.  This module keeps
the literal whole-table construction it is checked against, which applies
the crystal operators to two-factor Path objects and keys its dicts by
Tableau pairs, together with Tableau-keyed views of the flat tables for
tests that state properties in tableaux.  It also keeps the energy of a
Path summed pair by pair (path_energy); the program grades paths only
through energy.grade, factor by factor.
"""

from typing import Optional

import reference_crystal as rc
import reference_paths as rp

from crystalpaths import tableaux
from crystalpaths.energy import LocalIsoTable
from crystalpaths.paths import Path
from crystalpaths.signature import CertificateError
from crystalpaths.tableaux import RectCrystal, RectShape, Tableau
from crystalpaths.weights import LevelWeight

Pair = tuple[Tableau, Tableau]


def _pair_move(n: int, pair: Pair, i: int, lower: bool) -> Optional[Pair]:
    path = Path(n, pair)
    moved = rp.f(path, i) if lower else rp.e(path, i)
    return None if moved is None else moved.factors


def _classical_highest_pairs(n: int, shape2: RectShape, shape1: RectShape) -> dict:
    """content -> the unique classically highest pair of B2 (x) B1."""
    found: dict[tuple[int, ...], Pair] = {}
    for t2 in tableaux.enumerate_tableaux(shape2, n):
        for t1 in tableaux.enumerate_tableaux(shape1, n):
            p = Path(n, (t2, t1))
            if rp.is_classically_restricted(p):
                if p.weight() in found:
                    raise ValueError("component matching ambiguous for %s, %s" % (shape2, shape1))
                found[p.weight()] = (t2, t1)
    return found


def _zero_side(pair: Pair) -> Optional[int]:
    """The factor e_0 acts on: 0 left, 1 right, None when undefined."""
    return rc.raising_index([(rc.eps(t, 0), rc.phi(t, 0)) for t in pair])


def literal_local_table(n: int, shape2: RectShape, shape1: RectShape) -> tuple[dict, dict]:
    """(iso, energy) keyed by the pairs (b2, b1) of B2 (x) B1: iso maps to
    the image pair (b1', b2'), energy to H.  Components are matched by the
    content of their classically highest pairs and transported along f_i;
    H starts at 0 on the highest pair and steps along every edge."""
    shape2, shape1 = RectShape(*shape2), RectShape(*shape1)
    size = len(tableaux.enumerate_tableaux(shape2, n)) * len(tableaux.enumerate_tableaux(shape1, n))
    source_hw = _classical_highest_pairs(n, shape2, shape1)
    target_hw = _classical_highest_pairs(n, shape1, shape2)
    if set(source_hw) != set(target_hw):
        raise ValueError("classical decompositions disagree")
    iso: dict[Pair, Pair] = {}
    for w, u in source_hw.items():
        iso[u] = target_hw[w]
        stack = [u]
        while stack:
            x = stack.pop()
            for i in range(1, n):
                fx, fy = _pair_move(n, x, i, True), _pair_move(n, iso[x], i, True)
                if (fx is None) != (fy is None):
                    raise CertificateError("components of equal weight disagree")
                if fx is not None and fx not in iso:
                    iso[fx] = fy
                    stack.append(fx)
    if len(iso) != size or len(set(iso.values())) != size:
        raise CertificateError("transport is not a bijection of the tensor product")

    def zero_step(x: Pair) -> int:
        side_src, side_img = _zero_side(x), _zero_side(iso[x])
        if side_src is None:
            raise CertificateError("a 0-edge raises %s, which e_0 kills" % (x,))
        return {(0, 0): -1, (1, 1): 1}.get((side_src, side_img), 0)

    start = (tableaux.highest_weight_tableau(shape2, n), tableaux.highest_weight_tableau(shape1, n))
    energy: dict[Pair, int] = {start: 0}
    queue = [start]
    while queue:
        x = queue.pop()
        for i in range(n):
            up, down = _pair_move(n, x, i, False), _pair_move(n, x, i, True)
            steps = []
            if up is not None:
                steps.append((up, energy[x] + (zero_step(x) if i == 0 else 0)))
            if down is not None:
                steps.append((down, energy[x] - (zero_step(down) if i == 0 else 0)))
            for y, value in steps:
                if y not in energy:
                    energy[y] = value
                    queue.append(y)
                elif energy[y] != value:
                    raise CertificateError("local energy recursion is inconsistent")
    if len(energy) != size:
        raise ValueError("tensor product is not connected")
    return iso, energy


def as_dicts(table: LocalIsoTable) -> tuple[dict, dict]:
    """The flat table, with every entry filled, as (iso, energy) keyed by
    Tableau pairs, in the form of literal_local_table."""
    for at in range(len(table.energy)):
        table.fill(at)
    left, right = RectCrystal(table.n, table.shape2), RectCrystal(table.n, table.shape1)
    pairs = [(a, b) for a in left.elements for b in right.elements]
    iso = {p: (right.elements[v1], left.elements[v2])
           for p, v1, v2 in zip(pairs, table.image1, table.image2)}
    return iso, dict(zip(pairs, table.energy))


def _entry(b2: Tableau, b1: Tableau) -> tuple[LocalIsoTable, int]:
    """The registered table of b2 (x) b1 and the flat index of the pair,
    filled."""
    table = LocalIsoTable(b2.n, b2.shape, b1.shape)
    k = RectCrystal(b2.n, b2.shape).index[b2] * table.width + RectCrystal(b1.n, b1.shape).index[b1]
    table.fill(k)
    return table, k


def local_iso(b2: Tableau, b1: Tableau) -> Pair:
    """R(b2 (x) b1) = (b1', b2') read from the registered table."""
    table, k = _entry(b2, b1)
    return (RectCrystal(b1.n, b1.shape).elements[table.image1[k]],
            RectCrystal(b2.n, b2.shape).elements[table.image2[k]])


def local_energy(b2: Tableau, b1: Tableau) -> int:
    """H(b2 (x) b1) read from the registered table."""
    table, k = _entry(b2, b1)
    return table.energy[k]


def path_energy(p: Path) -> int:
    """Sum of local energies over all factor pairs.

    For each pair of positions the left factor is swept rightward through
    the factors between them: evaluate H against the neighbor, then swap
    past it with the local isomorphism and continue.  Positions count from
    the right, so ``fs[len-j]`` is the j-th factor.
    """
    fs = p.factors
    xs = [RectCrystal(p.n, t.shape).index[t] for t in fs]
    length = len(fs)
    total = 0
    for j in range(2, length + 1):
        x = xs[length - j]
        for i in range(j - 1, 0, -1):
            table = LocalIsoTable(p.n, fs[length - j].shape, fs[length - i].shape)
            k = x * table.width + xs[length - i]
            total += table.fill(k)
            x = table.image2[k]
    return total


def b0_tail(n: int, b0) -> tuple[Tableau, ...]:
    """A b0 as CrystalSpec.b0 gives it, (shape, element index) or None, as
    the factors a literal Path appends: the one tableau, or none."""
    return () if b0 is None else (RectCrystal(n, b0[0]).elements[b0[1]],)


def augmented_energy(p: Path, lam: LevelWeight, b0_shape: RectShape) -> int:
    """Energy of the path extended on the right by the element b0 with
    phi(b0) = lam."""
    crystal = RectCrystal(p.n, b0_shape)
    b0 = crystal.elements[crystal.unique(crystal.phi, map(lam.pairing, range(p.n)))]
    return path_energy(Path(p.n, p.factors + (b0,)))
