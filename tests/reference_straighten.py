"""The straightening moves as literal rewrites.

straighten.normalize reaches the normal form of a Schur symbol in closed
form.  The tests certify it against the moves themselves: one rewrite move
at a time (straighten_step), applied until the symbol is normal or a move
fixes it.
"""

from typing import Optional

from crystalpaths.straighten import NormalForm, SchurSymbol
from crystalpaths.weights import rho_vector, vadd


def straighten_step(sym: SchurSymbol, i: int) -> SchurSymbol:
    """Apply one rewrite move; the result names the same symbol class."""
    n = sym.rank
    a = sym.alpha
    if i == 0:
        new_alpha = (sym.level + 1 + a[-1],) + a[1:-1] + (-1 - sym.level + a[0],)
        return SchurSymbol(
            new_alpha, sym.level, -sym.sign, sym.qpow + sym.level + 1 - a[0] + a[-1]
        )
    if not 1 <= i <= n - 1:
        raise ValueError("move index out of range: %d" % i)
    new_alpha = a[: i - 1] + (a[i] - 1, a[i - 1] + 1) + a[i + 1 :]
    return SchurSymbol(new_alpha, sym.level, -sym.sign, sym.qpow)


def is_normal(sym: SchurSymbol) -> bool:
    """Dominant and within the level window: no move can lower it further."""
    a = sym.alpha
    return all(a[i] >= a[i + 1] for i in range(len(a) - 1)) and a[0] - a[-1] <= sym.level


def normalize_by_steps(sym: SchurSymbol, max_steps: int = 100000) -> Optional[NormalForm]:
    """Normalize by literally rewriting: bubble the shifted vector into
    decreasing order and fold it into the level window, detecting a move
    fixed point as annihilation.  Exists to certify :func:`normalize`."""
    n = sym.rank
    m = sym.level + n
    rho = rho_vector(n)
    cur = sym
    for _ in range(max_steps):
        mu = vadd(cur.alpha, rho)
        move = None
        for i in range(1, n):
            if mu[i - 1] == mu[i]:
                return None
            if mu[i - 1] < mu[i]:
                move = i
                break
        if move is None:
            gap = mu[0] - mu[-1]
            if gap == m:
                return None
            if gap > m:
                move = 0
            else:
                return (cur.sign, cur.qpow, cur.alpha)
        cur = straighten_step(cur, move)
    raise RuntimeError("straightening did not terminate; the window logic is wrong")
