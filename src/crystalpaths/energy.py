"""Local isomorphisms between tensor factors, and local energy, on demand.

For two rectangle crystals B2 and B1 over the same rank, the tensor product
B2 (x) B1 is connected and there is a unique isomorphism R onto B1 (x) B2
that commutes with every crystal operator, index 0 included.  The local
energy H on B2 (x) B1 is the integer function that steps by -1 along a
0-edge acting on the left factor both before and after R, by +1 along a
0-edge acting on the right factor on both sides, and is constant otherwise;
it is normalized by H = 0 on the pair of classical highest weight tableaux.

Both are read off the classical component of a pair, one pair at a time
(:meth:`LocalIsoTable.fill`).  Raise b2 (x) b1 by the classical e_i to its
highest element, of content nu, a partition.  H is constant on classical
components, and on rectangles it is minus the number of cells of nu below
row max(r2, r1) (Nakayashiki and Yamada, "Kostka polynomials and energy
functions in solvable lattice models", 1997; Shimozono, "Affine type A
crystal structure on tensor products of rectangles, Demazure characters,
and nilpotent varieties", 2002).  The classical decomposition of a product
of two rectangles is multiplicity-free, so R maps that highest element to
the one highest element y (x) u of B1 (x) B2 of content nu, u the highest
weight element of B2, and R(b2 (x) b1) is y (x) u lowered by the recorded
e_i in reverse, as f_i.  Nothing builds a whole table, and nothing is kept
on disk.

The energy of a longer path accumulates H over all factor pairs, carrying
the left member of each pair rightward through the intermediate factors by
local isomorphisms before it meets the right member.  It is graded as the
path grows, leftmost factor first (:func:`grade`, one step per factor of
:func:`carry_plan`): R is the identity on B_s (x) B_s, so the k_s factors
of shape s placed so far reach the next factor z as one carried element
c_s; appending z adds sum_s k_s H(c_s (x) z), then carries each c_s past z
by R.  The path scan (kostka) and the level-zero pairing (pairing) grade
this way, and no module but this one reads a table's lists.
"""

from __future__ import annotations

import functools

from .signature import CertificateError, lowering_side, raising_side
from .tableaux import RectCrystal, RectShape, highest_weight_tableau
from .weights import vadd


@functools.cache
class LocalIsoTable:
    """R: B2 (x) B1 -> B1 (x) B2 and H as flat lists over the pairs met so
    far, elements indexed as in tableaux.RectCrystal; one table per
    (n, shape2, shape1) in this process, whose entries every caller fills
    and reuses.

    Entry a*width + b, with width = |B1|, describes a (x) b: ``energy``
    holds H(a (x) b), and R(a (x) b) = b1' (x) b2' with b1' = ``image1``
    in B1 and b2' = ``image2`` in B2; all three are None until
    :meth:`fill` computes the entry.
    """

    __slots__ = ("n", "shape2", "shape1", "width", "energy", "image1", "image2",
                 "_crystals", "_top", "_highest")

    def __init__(self, n: int, shape2: RectShape, shape1: RectShape):
        self.n, self.shape2, self.shape1 = n, RectShape(*shape2), RectShape(*shape1)
        b2, b1 = self._crystals = RectCrystal(n, self.shape2), RectCrystal(n, self.shape1)
        self.width = len(b1.elements)
        size = len(b2.elements) * self.width
        self.energy, self.image1, self.image2 = [None] * size, [None] * size, [None] * size
        self._top = top = b2.index[highest_weight_tableau(self.shape2, n)]
        self._highest = highest = {}  # content -> y with y (x) top classically highest in B1 (x) B2
        for y, content in enumerate(b1.content):
            if all(b1.eps[i][y] <= b2.phi[i][top] for i in range(1, n)):
                nu = vadd(content, b2.content[top])
                if nu in highest:
                    raise ValueError("component matching ambiguous for shapes %s, %s"
                                     % (self.shape1, self.shape2))
                highest[nu] = y

    def fill(self, at: int) -> int:
        """H at entry ``at``, computing it and R there on first use."""
        if self.energy[at] is not None:
            return self.energy[at]
        b2, b1 = self._crystals
        a, b = divmod(at, self.width)
        ups, raised = [], True  # the e_i that raise a (x) b to its classically highest element
        while raised:
            raised = False
            for i in range(1, self.n):
                while (side := raising_side((b2.eps[i][a], b2.phi[i][a]),
                                            (b1.eps[i][b], b1.phi[i][b]))) is not None:
                    a, b = (b2.move(a, i, -1), b) if side == 0 else (a, b1.move(b, i, -1))
                    ups.append(i)
                    raised = True
        nu = vadd(b2.content[a], b1.content[b])
        if nu not in self._highest:
            raise CertificateError("%s (x) %s has no classically highest element of content %s"
                                   % (self.shape1, self.shape2, nu))
        y, v = self._highest[nu], self._top
        for i in reversed(ups):
            side = lowering_side((b1.eps[i][y], b1.phi[i][y]), (b2.eps[i][v], b2.phi[i][v]))
            if side is None:
                raise CertificateError("the components of content %s disagree at f_%d" % (nu, i))
            y, v = (b1.move(y, i, 1), v) if side == 0 else (y, b2.move(v, i, 1))
        h = -sum(nu[max(self.shape2.rows, self.shape1.rows):])
        self.energy[at], self.image1[at], self.image2[at] = h, y, v
        return h


def carry_plan(n: int, shapes) -> tuple[int, list]:
    """The number of kinds (shapes, in order of first appearance) and, per
    factor x, its grading step: its kind and [(kind of s, k_s, table of
    s (x) x)] over the shapes s left of x, k_s of them."""
    kinds = list(dict.fromkeys(shapes))
    return len(kinds), [
        (kinds.index(x), [(kinds.index(s), shapes[:j].count(s), LocalIsoTable(n, s, x))
                          for s in dict.fromkeys(shapes[:j])])
        for j, x in enumerate(shapes)]


def grade(step, x: int, carried: tuple) -> tuple[int, tuple]:
    """(energy gained, carried elements) on appending element x at a step of
    carry_plan to a prefix with those carried elements, one per kind, -1
    for a kind not yet placed."""
    kind, meets = step
    moved, gain = list(carried), 0
    for s, k, table in meets:
        at = carried[s] * table.width + x
        h = table.energy[at]
        if h is None:
            h = table.fill(at)
        gain += k * h
        moved[s] = table.image2[at]
    moved[kind] = x
    return gain, tuple(moved)


def zero_side_moves(n: int, shape: RectShape, tail_shape: RectShape, z: int) -> list[int]:
    """The elements x of B(shape) such that e_0 acts on the left of x (x) z,
    z an element of B(tail_shape), and on the right of R(x (x) z)."""
    table = LocalIsoTable(n, shape, tail_shape)
    left, right = RectCrystal(n, shape), RectCrystal(n, tail_shape)
    moved = []
    for x in range(len(left.elements)):
        if raising_side((left.eps[0][x], left.phi[0][x]), (right.eps[0][z], right.phi[0][z])) == 0:
            k = x * table.width + z
            table.fill(k)
            y1, y2 = table.image1[k], table.image2[k]
            if raising_side((right.eps[0][y1], right.phi[0][y1]), (left.eps[0][y2], left.phi[0][y2])) != 0:
                moved.append(x)
    return moved
