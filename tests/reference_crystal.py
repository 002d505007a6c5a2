"""Tableau-level views of the crystal maps that the program keeps only as
index arrays.

tableaux.RectCrystal holds eps, phi, e and f, promotion, its inverse and
the string moves as arrays over element indices.  The tests state
properties of these maps on Tableau objects through the plain functions
below, and weight changes through simple_root.
"""

from typing import Optional

from crystalpaths.tableaux import RectCrystal, Tableau


def _element(t: Tableau) -> tuple[RectCrystal, int]:
    crystal = RectCrystal(t.n, t.shape)
    return crystal, crystal.index[t]


def eps(t: Tableau, i: int) -> int:
    crystal, x = _element(t)
    return crystal.eps[i][x]


def phi(t: Tableau, i: int) -> int:
    crystal, x = _element(t)
    return crystal.phi[i][x]


def e(t: Tableau, i: int) -> Optional[Tableau]:
    """e_i t, or None where e_i kills t."""
    crystal, x = _element(t)
    y = crystal.e[i][x]
    return None if y < 0 else crystal.elements[y]


def f(t: Tableau, i: int) -> Optional[Tableau]:
    """f_i t, or None where f_i kills t."""
    crystal, x = _element(t)
    y = crystal.f[i][x]
    return None if y < 0 else crystal.elements[y]


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


def simple_root(i: int, n: int) -> tuple[int, ...]:
    """e_i - e_{i+1} for 1 <= i <= n-1, the content change of e_i."""
    if not 1 <= i <= n - 1:
        raise ValueError("classical root index out of range: %d" % i)
    v = [0] * n
    v[i - 1] = 1
    v[i] = -1
    return tuple(v)
