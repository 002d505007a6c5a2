"""Closed evaluations of the alternating sum at level one and level zero.

At level one with column factors the sum is the monomial (kostka.kostka_level)
of the one restricted path, if there is one: every element x of a level-one
perfect crystal has sum_i eps_i(x) >= 1, so the signature rule eps_i(x) <=
phi_i(suffix (x) u) admits only equality, and a right-to-left walk from
phi(u) = Lambda fixes each factor in turn.  At the formal level zero the sum
vanishes unless the tensor product is empty, which a sign-reversing pairing
of the summands witnesses in a stream (:func:`level_zero_pairing`): a
depth-first walk over the index paths of the contents that the sum's read
map (bosonic.read_fibres) places, graded as the scan grades (energy.grade),
with per-shape sign tables (:func:`_column_table`), checks each pair at its
plus summand, moving b to s_i e_i b by one bracket of its signs
(:func:`_column_move`), and must meet as many summands as the Schur product
counts, at most PAIRING_LIMIT.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence

from . import tableaux
from .bosonic import identity_report, read_fibres, truncation_bound
from .energy import carry_plan, grade
from .kostka import CrystalSpec, kostka_level
from .laurent import LaurentPoly
from .paths import Path, format_path
from .signature import CertificateError, bracket
from .tableaux import RectShape
from .weights import LevelWeight, guard_code, pack, times_reflection, vadd


def _level_one_walk(crystals, lam: LevelWeight) -> tuple[int, ...]:
    """Element indices, one per factor crystal, of the only path that can be
    restricted against the level-one weight lam: walking right to left, the
    factor x is the one element with eps(x) = phi of everything right of it,
    starting from phi(u) = lam."""
    need, path = map(lam.pairing, range(lam.rank)), []  # need: phi of the suffix tensored with u
    for crystal in reversed(crystals):
        x = crystal.unique(crystal.eps, need)
        path.append(x)
        need = (phi[x] for phi in crystal.phi)
    return tuple(reversed(path))


def level_one_identity(spec: CrystalSpec) -> dict:
    """At level one with column factors the restricted path set has at most
    one element, found by a walk without enumeration; the alternating sum
    must equal its single monomial."""
    target = spec.target()
    if spec.level != 1:
        raise ValueError("level-one identity needs level 1, got %s" % spec.level)
    crystals = [tableaux.RectCrystal(spec.n, s) for s in spec.shapes]
    path = _level_one_walk(crystals, spec.lam)
    content = functools.reduce(vadd, (c.content[x] for c, x in zip(crystals, path)), (0,) * spec.n)
    exists = content == target
    rhs = kostka_level(spec)
    if rhs(1) != exists:
        raise CertificateError("the level polynomial counts %d restricted paths at level one, the walk %d"
                               % (rhs(1), exists))
    report = identity_report(spec, rhs)
    lhs = report["lhs_polynomial"]
    factors = tuple(c.elements[x] for c, x in zip(crystals, path))
    return {
        "path_exists": exists,
        "path": format_path(Path(spec.n, factors)) if exists else None,
        "single_monomial": len(lhs) == 1 if exists else not lhs,
        **report,
    }


def _level_zero_spec(n: int, shapes: Sequence[RectShape]) -> CrystalSpec:
    """The tensor product of column factors with Lambda = LambdaPrime = 0 at
    the formal level 0."""
    return CrystalSpec(n, shapes, level=0, lam=LevelWeight.vacuum(n, 0))


def level_zero_identity(n: int, shapes: Sequence[RectShape]) -> dict:
    """Formal level-zero alternating sum; 1 on the empty tensor product and
    0 otherwise."""
    spec = _level_zero_spec(n, shapes)
    return identity_report(spec, LaurentPoly.zero() if spec.shapes else LaurentPoly.one())


def _column_move(signs, lower, raise_, path, k: int) -> tuple[list[int], list[int]] | None:
    """(f_i^k b for k > 0 or e_i^-k b for k <= 0, the factors it moves) on a
    path b of column factors with i-signs signs[j][x] and f_i, e_i arrays
    lower[j], raise_[j]; None when the string ends first.  f_i^k moves the k
    rightmost free + signs that signature.bracket finds, e_i^-k the -k
    leftmost free -.  s_i e_i b = f_i^(<h_i, content> + 1) b if eps_i(b) > 0."""
    plus, minus = bracket(map(operator.getitem, signs, path))
    if k > len(plus) or -k > len(minus):
        return None
    changed, ops = (plus[len(plus) - k:], lower) if k > 0 else (minus[:-k], raise_)
    moved = list(path)
    for j in changed:
        moved[j] = ops[j][moved[j]]
    return moved, changed


@functools.cache
def _column_table(n: int, shape: RectShape, width: int) -> tuple:
    """(i-signs phi_i - eps_i per i, content codes at width, the least i raising
    x per element x: the pairing's choice) of B(shape); CertificateError unless
    it is a column crystal with e_i defined exactly on a - sign and f_i on a +."""
    c = tableaux.RectCrystal(n, shape)
    if not all(a + b <= 1 and (y >= 0) == a and (z >= 0) == b for i in range(n)
               for a, b, y, z in zip(c.eps[i], c.phi[i], c.e[i], c.f[i])):
        raise CertificateError("a factor is not a column crystal, e_i defined on its - signs, f_i on its +")
    choice = tuple(next((i for i in range(n) if c.eps[i][x] > 0), -1) for x in range(len(c.elements)))
    if -1 in choice:
        raise CertificateError("finite affine crystals admit some raising operator")
    signs = tuple(tuple(map(operator.sub, c.phi[i], c.eps[i])) for i in range(n))
    return signs, tuple(pack(v, width) for v in c.content), choice


SUMMAND_US = 6  # the pairing's cost per summand in microseconds (n=3, 12 1x1 factors, 2-core x86_64)
PAIRING_LIMIT = 10 ** 7  # the most summands a pairing walks, about a minute at SUMMAND_US each


def _level_zero_certificate(spec: CrystalSpec, collect=None) -> tuple[int, int, int]:
    """(truncation bound, summands, pairs), checked as level_zero_pairing
    says by a depth-first walk over the index paths of the read contents, cut
    at every prefix no suffix completes to one; it holds the prefix contents,
    the children of the prefixes reached, the grading steps met and one path
    with its prefix states.  collect receives (summand, exponent, image) per
    summand (beta, tau, path), image None at a minus summand."""
    n, shapes, zero = spec.n, spec.shapes, spec.lam.finite
    bound = truncation_bound(n, 0, zero, zero, shapes)
    # contents in the guard-bit code: the prefix p - d is nonnegative when no guard bit clears
    width, guard = guard_code(n, spec.total_boxes())
    read, total = {}, 0  # total: the summands, by the Schur product
    for _, _, beta, _, exponent, paths, members in read_fibres(spec, bound):
        total += paths
        for tau, sign, c in members:
            read[guard + pack(c, width)] = ((beta, tau), sign, exponent, c)
    if not read:  # every fiber is empty and the certificate holds vacuously
        return bound, 0, 0
    if total > PAIRING_LIMIT:
        raise ValueError("the pairing would walk %d summands (about %d s), over its limit of %d"
                         % (total, total * SUMMAND_US // 10 ** 6, PAIRING_LIMIT))
    crystals = [tableaux.RectCrystal(n, s) for s in shapes]
    signs, codes, choices = zip(*(_column_table(n, s, width) for s in shapes))
    moves = [([t[i] for t in signs], [c.f[i] for c in crystals], [c.e[i] for c in crystals])
             for i in range(n)]
    # ends[j]: the codes of the prefixes of j + 1 factors that some suffix completes to a read content
    ends = [set(read)]
    for steps in map(set, reversed(codes[1:])):
        ends.insert(0, {p - d for p in ends[0] for d in steps if (p - d) & guard == guard})
    kids, choice = [{} for _ in codes], choices[-1]  # kids[j][p]: filled when the walk first reaches p

    def children(j: int, p: int) -> list:  # (x, p + code of x) for each x of factor j keeping p in ends[j]
        kids[j][p] = [(x, p + d) for x, d in enumerate(codes[j]) if p + d in ends[j]]
        return kids[j][p]

    kinds, plan = carry_plan(n, shapes)

    @functools.cache
    def graded(j: int, x: int, carried: tuple) -> tuple[int, tuple]:
        return grade(plan[j], x, carried)

    def fail(reason: str):  # at the summand the walk is at
        factors = tuple(c.elements[x] for c, x in zip(crystals, path))
        raise CertificateError("%s at beta=%s tau=%s path=%s"
                               % (reason, *point, format_path(Path(n, factors))))

    last, path = len(crystals) - 1, [0] * len(crystals)
    # the energy and carried elements of the prefix of each length
    energies, carries = [0] * (last + 2), [(-1,) * kinds] * (last + 2)
    plus = minus = 0
    signed, checked = {}, {}  # exponent -> signed count; (q, i, q2) -> the read entry at q2, checked
    stack = [iter(children(0, guard))]
    while stack:
        j = len(stack) - 1
        for x, q in stack[-1]:
            path[j] = x
            gain, carries[j + 1] = graded(j, x, carries[j])
            energies[j + 1] = energies[j] + gain
            if j < last:  # every prefix in ends[j] has some child
                stack.append(iter(kids[j + 1].get(q) or children(j + 1, q)))
                break
            point, sign, exponent, content = read[q]
            exponent += energies[j + 1]
            signed[exponent] = signed.get(exponent, 0) + sign
            if sign > 0:
                i = choice[x]
                found = _column_move(*moves[i], path, content[i - 1] - content[i] + 1)
                if found is None:
                    fail("tensor statistics dominate the rightmost factor")
                moved, changed = found
                q2 = q
                for k in changed:
                    q2 += codes[k][moved[k]] - codes[k][path[k]]
                at = checked.get((q, i, q2))
                if at is None:  # the checks that depend on q, i and q2 alone run once per key
                    image = times_reflection(*point, i)  # the grid point of t_beta tau r_i
                    at = read.get(q2)
                    if not changed or at is None or at[0] != image:  # an empty move's key never passes
                        fail("pairing image violates the weight condition")
                    if at[1] != -sign:
                        fail("pairing does not reverse the sign")
                    if times_reflection(*image, i) != point:
                        fail("pairing is not an involution")
                    checked[q, i, q2] = at
                # regrade from the first moved factor until the carried elements
                # are the path's again; from there on both gain the same energy
                k, energy, carried = changed[0], energies[changed[0]], carries[changed[0]]
                while k <= last and (k <= changed[-1] or carried != carries[k]):
                    gain, carried = graded(k, moved[k], carried)
                    energy += gain
                    k += 1
                if at[2] + energy + energies[last + 1] - energies[k] != exponent:
                    fail("pairing does not preserve the q-exponent")
                if choice[moved[-1]] != i:
                    fail("choice index is not constant on the pair")
                back = _column_move(*moves[i], moved, at[3][i - 1] - at[3][i] + 1)
                if back is None or back[0] != path:
                    fail("pairing is not an involution")
                plus += 1
            else:
                minus += 1
            if collect:
                collect((*point, tuple(path)), exponent, None if sign < 0 else (*at[0], tuple(moved)))
        else:
            stack.pop()
    if plus != minus:
        raise CertificateError("the pairing maps %d plus summands into %d minus summands, not onto them"
                               % (plus, minus))
    if any(signed.values()):
        raise CertificateError("paired summands must cancel exactly")
    if plus + minus != total:
        raise CertificateError("the walk met %d summands, the Schur product %d" % (plus + minus, total))
    return bound, plus + minus, plus


def level_zero_pairing(n: int, shapes: Sequence[RectShape]) -> dict:
    """Certify the vanishing of the level-zero sum by an explicit involution.

    The pairing phi maps a summand x = (t_beta tau, b) to (t_beta tau r_i,
    s_i e_i b), i the least index raising the rightmost factor of b.  At
    each plus summand x the certificate checks that e_i does not kill b;
    that the content of s_i e_i b sits at the grid point of t_beta tau r_i,
    so phi(x) is a summand; that phi(x) has the exponent of x, the opposite
    sign (so phi(x) != x) and the choice index i; and that phi(phi(x)) = x,
    which makes phi injective on the plus summands.  Minus summands are
    only counted; when they are as many, phi maps the plus summands onto
    them and is a fixed-point-free, sign-reversing, exponent-preserving
    involution of all summands, so they cancel.  Their signed sum is kept
    anyway and must vanish, and all summands must be as many as the Schur
    product counts.  A failed check raises CertificateError; more than
    PAIRING_LIMIT summands raise ValueError before the walk."""
    spec = _level_zero_spec(n, shapes)
    if not spec.shapes:
        raise ValueError("pairing needs a nonempty tensor product")
    bound, summands, pairs = _level_zero_certificate(spec)
    return {"summand_count": summands, "pairing_size": pairs, "truncation_bound": bound, "cancels": True}
