"""Tableau- and Path-level views of the crystal maps that the program keeps
only as index arrays.

tableaux.RectCrystal holds promotion, its inverse and the string moves as
arrays over element indices, and the level-zero pairing reflects index paths
in one signature pass.  The tests state properties of these maps on Tableau
and Path objects through the plain functions below, and weight changes
through simple_root.
"""

from crystalpaths.paths import Path
from crystalpaths.tableaux import RectCrystal, Tableau


def _element(t: Tableau) -> tuple[RectCrystal, int]:
    crystal = RectCrystal(t.n, t.shape)
    return crystal, crystal.index[t]


def promotion(t: Tableau) -> Tableau:
    """Cyclic shift of the crystal: content rotates one step and
    promotion o f_i = f_{i+1 mod n} o promotion."""
    crystal, x = _element(t)
    return crystal.elements[crystal.promotion[x]]


def promotion_inverse(t: Tableau) -> Tableau:
    """Inverse cyclic shift; promotion has order n on rectangles."""
    crystal, x = _element(t)
    return crystal.elements[crystal.promotion_inverse[x]]


def reflect(t: Tableau, i: int) -> Tableau:
    """Crystal reflection: move to the mirror position on the i-string."""
    crystal, x = _element(t)
    return crystal.elements[crystal.move(x, i, crystal.phi[i][x] - crystal.eps[i][x])]


def reflect_path(p: Path, i: int) -> Path:
    """Crystal reflection of a path, one Path.e or Path.f step at a time."""
    gap = p.phi(i) - p.eps(i)
    out = p
    for _ in range(gap):
        out = out.f(i)
    for _ in range(-gap):
        out = out.e(i)
    if out is None:
        raise AssertionError("the %d-string of %s ends before its mirror point" % (i, p))
    return out


def simple_root(i: int, n: int) -> tuple[int, ...]:
    """e_i - e_{i+1} for 1 <= i <= n-1, the content change of e_i."""
    if not 1 <= i <= n - 1:
        raise ValueError("classical root index out of range: %d" % i)
    v = [0] * n
    v[i - 1] = 1
    v[i] = -1
    return tuple(v)
