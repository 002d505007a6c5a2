"""Tableau-level views of the crystal maps that the program keeps only as
index arrays, and the signature rule as literal folds.

tableaux.RectCrystal holds eps, phi, e and f, promotion, its inverse and
the string moves as arrays over element indices.  The tests state
properties of these maps on Tableau objects through the plain functions
below, and weight changes through simple_root.

The program reads the signature rule in two forms: one bracket of a word of
unit signs (signature.bracket: the cells of a tableau in RectCrystal, the
column factors of a path in pairing._column_move), and the side an operator
acts on in a two-factor product (signature.raising_side, lowering_side).
The references at the end are the rule as first written: the two-factor
combination folded into a list of prefix statistics (fold_stats,
raising_index, lowering_index), the crystal reflection recursing on the
mirrored product when eps > phi, and the level-zero pairing's move as a
raising followed by a separate reflection.  Between the two stand the
general string move string_steps on any factors' (eps_i, phi_i) and the
pairing's move built on it, string_raise_and_reflect, which the pairing used
before it was restricted to columns.
"""

from itertools import accumulate
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


# ---------------------------------------------------------------------------
# the signature rule folded over prefix statistics


def combine(left, right):
    """(eps, phi) of left (x) right from the (eps, phi) of its two factors."""
    le, lp = left
    re, rp = right
    return (re + max(0, le - rp), lp + max(0, rp - le))


def fold_stats(stats):
    """(eps, phi) of the full tensor product; the empty product gives (0, 0)."""
    acc = (0, 0)
    for s in stats:
        acc = combine(acc, s)
    return acc


def raising_index(stats) -> Optional[int]:
    """Index of the factor a raising operator acts on, or None if it is undefined."""
    prefixes = list(accumulate(stats, combine, initial=(0, 0)))  # [k]: first k factors
    if prefixes[-1][0] == 0:
        return None
    for j in range(len(stats) - 1, 0, -1):
        if stats[j][1] >= prefixes[j][0]:
            return j
    return 0


def lowering_index(stats) -> Optional[int]:
    """Index of the factor a lowering operator acts on, or None if it is undefined."""
    prefixes = list(accumulate(stats, combine, initial=(0, 0)))  # [k]: first k factors
    if prefixes[-1][1] == 0:
        return None
    for j in range(len(stats) - 1, 0, -1):
        if stats[j][1] > prefixes[j][0]:
            return j
    return 0


def reflection_steps(stats) -> list[int]:
    """Per factor, the steps of the crystal reflection s_i: k > 0 for k
    lowerings, -k for k raisings.  It lowers the phi - eps rightmost free +
    signs, or raises the eps - phi leftmost free - signs."""
    prefixes = list(accumulate(stats, combine, initial=(0, 0)))  # [k]: first k factors
    eps, phi = prefixes[-1]
    if eps > phi:  # reversing the factors and swapping eps with phi mirrors the rule
        return [-k for k in reversed(reflection_steps([(p, e) for e, p in reversed(stats)]))]
    steps, left = [0] * len(stats), phi - eps
    for j in range(len(stats) - 1, -1, -1):
        steps[j] = min(left, max(0, stats[j][1] - prefixes[j][0]))  # free + signs of factor j
        left -= steps[j]
    return steps


def raise_and_reflect(crystals, path: tuple[int, ...], i: int) -> Optional[tuple[int, ...]]:
    """s_i e_i of a path of element indices into the given RectCrystals, or
    None when e_i kills it: one raising, then the reflection of the raised
    path, each read from its own fold."""
    stats = [(c.eps[i][x], c.phi[i][x]) for c, x in zip(crystals, path)]
    pos = raising_index(stats)
    if pos is None:
        return None
    raised = list(path)
    raised[pos] = crystals[pos].move(path[pos], i, -1)
    stats = [(c.eps[i][x], c.phi[i][x]) for c, x in zip(crystals, raised)]
    return tuple(c.move(x, i, k) if k else x for c, x, k in zip(crystals, raised, reflection_steps(stats)))


def string_steps(stats, k: int) -> Optional[list[int]]:
    """Per factor, the steps of f_i^k for k > 0, or of e_i^-k for k < 0 as
    negative steps; None when the string of the product ends before |k|
    steps."""
    free, against = [], 0  # (factor, its free signs of the move), in reading order
    if k > 0:  # + signs, read left to right against the eps of the prefix
        sign = 1
        for j, (e, p) in enumerate(stats):
            if p > against:
                free.append((j, p - against))
                against = e
            else:
                against += e - p
    else:  # - signs, read right to left against the phi of the suffix
        sign, k = -1, -k
        for j in range(len(stats) - 1, -1, -1):
            e, p = stats[j]
            if e > against:
                free.append((j, e - against))
                against = p
            else:
                against += p - e
    steps = [0] * len(stats)
    for j, f in reversed(free):  # the rightmost free + signs, or the leftmost free - signs
        if f >= k:
            steps[j] = sign * k
            return steps
        steps[j] = sign * f
        k -= f
    return None if k else steps


def string_raise_and_reflect(crystals, path, i: int, stats, content) -> Optional[tuple[list[int], list[int]]]:
    """(s_i e_i b, the positions of the factors it moves) for a path b of
    element indices of that content whose factors have the (eps_i, phi_i)
    stats, or None when e_i kills b."""
    # s_i e_i b = f_i^k b with k = phi_i(b) - eps_i(b) + 1 = <h_i, content> + 1
    steps = string_steps(stats, content[i - 1] - content[i] + 1)
    if steps is None:  # the move passes the end of the string exactly when eps_i = 0
        return None
    moved, changed = list(path), [j for j, step in enumerate(steps) if step]
    for j in changed:
        moved[j] = crystals[j].move(path[j], i, steps[j])
    return moved, changed
