"""Local isomorphisms between tensor factors, and local energy.

For two rectangle crystals B2 and B1 over the same rank, the tensor product
B2 (x) B1 is connected and there is a unique isomorphism onto B1 (x) B2 that
commutes with every crystal operator, index 0 included.  It is computed by
matching the classically highest elements of both products by weight (the
decomposition of a product of two rectangles is multiplicity-free) and
transporting along lowering operators.

The local energy H on B2 (x) B1 is the integer function that steps by -1
along a 0-edge acting on the left factor both before and after the local
isomorphism, by +1 along a 0-edge acting on the right factor on both sides,
and is constant otherwise.  That pins H up to one additive constant, fixed
here by H = 0 on the pair of classical highest weight tableaux.

The energy of a longer path accumulates H over all factor pairs, carrying
the left member of each pair rightward through the intermediate factors by
local isomorphisms before it meets the right member.  It is graded as the
path grows, leftmost factor first (:func:`grade`, one step per factor of
:func:`carry_plan`): R is the identity on B_s (x) B_s, so the k_s factors
of shape s placed so far reach the next factor z as one carried element
c_s; appending z adds sum_s k_s H(c_s (x) z), then carries each c_s past z
by R.  The path scan of kostka and the level-zero pairing of bosonic grade
this way, and no module but this one reads a table's lists.

A table is held once, as flat integer lists over the elements of the two
factor crystals indexed as in tableaux.RectCrystal, and built from their
operator arrays; tableaux appear only in the on-disk file.

Tables are kept in memory once per process.  When a cache directory is set
(:func:`set_cache_dir`, once per process), a table not in memory is loaded
from it, or built and saved there; setting the directory drops the tables
in memory, so every later table goes through it.  A cached table that fails
a check on load is rejected and rebuilt, and the reason is logged as a
warning on the logger ``crystalpaths.energy``.  The logging module is
imported only when a rejection happens, so a run that rejects nothing never
loads it; with no handler configured, Python's last-resort handler writes
the bare message to stderr.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from typing import Optional

from . import tableaux
from .signature import CertificateError, Record, lowering_index, raising_index
from .tableaux import RectCrystal, RectShape, Tableau
from .weights import LevelWeight, vadd

CACHE_FORMAT_VERSION = 1


class LocalIsoTable(Record):
    """The isomorphism R: B2 (x) B1 -> B1 (x) B2 and the local energy H as
    flat integer lists, elements indexed as in tableaux.RectCrystal.

    Entry a*width + b, with width = |B1|, describes a (x) b: ``energy``
    holds H(a (x) b), and R(a (x) b) = b1' (x) b2' with b1' = ``image1``
    in B1 and b2' = ``image2`` in B2.
    """

    _fields = ("n", "shape2", "shape1", "energy", "image1", "image2")
    __slots__ = _fields + ("width",)
    n: int
    shape2: RectShape
    shape1: RectShape
    energy: tuple[int, ...]
    image1: tuple[int, ...]
    image2: tuple[int, ...]
    width: int

    def __init__(self, n: int, shape2: RectShape, shape1: RectShape, energy: tuple[int, ...],
                 image1: tuple[int, ...], image2: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "shape2", shape2)
        object.__setattr__(self, "shape1", shape1)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "image1", image1)
        object.__setattr__(self, "image2", image2)
        object.__setattr__(self, "width", len(RectCrystal(n, shape1).elements))


def _product_operators(left: RectCrystal, right: RectCrystal, i: int) -> tuple[list, list, list]:
    """Operator index i on left (x) right, over the flat index a*|right| + b:
    the factor e_i acts on (0 left, 1 right, None where e_i kills the
    element) and the images under e_i and f_i, -1 where undefined."""
    width = len(right.elements)
    sides, ups, downs = [], [], []

    def moved(a, b, pos, ops):
        if pos is None:
            return -1
        a, b = (ops[0][a], b) if pos == 0 else (a, ops[1][b])
        if a < 0 or b < 0:
            raise CertificateError("signature rule pointed at an exhausted factor")
        return a * width + b

    for a, b in itertools.product(range(len(left.elements)), range(width)):
        stats = ((left.eps[i][a], left.phi[i][a]), (right.eps[i][b], right.phi[i][b]))
        sides.append(raising_index(stats))
        ups.append(moved(a, b, sides[-1], (left.e[i], right.e[i])))
        downs.append(moved(a, b, lowering_index(stats), (left.f[i], right.f[i])))
    return sides, ups, downs


def _classical_highest(left: RectCrystal, right: RectCrystal, operators) -> dict:
    """Map content -> flat index of the unique classically highest element
    of left (x) right."""
    width = len(right.elements)
    found: dict[tuple[int, ...], int] = {}
    for x in range(len(left.elements) * width):
        if all(ups[x] < 0 for _, ups, _ in operators[1:]):
            w = vadd(left.content[x // width], right.content[x % width])
            if w in found:
                raise ValueError("component matching ambiguous for shapes %s, %s" % (left.shape, right.shape))
            found[w] = x
    return found


def build_local_table(n: int, shape2: RectShape, shape1: RectShape) -> LocalIsoTable:
    shape2, shape1 = RectShape(*shape2), RectShape(*shape1)
    b2, b1 = RectCrystal(n, shape2), RectCrystal(n, shape1)
    width, size = len(b1.elements), len(b2.elements) * len(b1.elements)
    source = [_product_operators(b2, b1, i) for i in range(n)]  # on B2 (x) B1
    target = [_product_operators(b1, b2, i) for i in range(n)]  # on B1 (x) B2

    source_hw = _classical_highest(b2, b1, source)
    target_hw = _classical_highest(b1, b2, target)
    if set(source_hw) != set(target_hw):
        raise ValueError("classical decompositions of %s(x)%s and %s(x)%s disagree"
                         % (shape2, shape1, shape1, shape2))

    iso = [-1] * size  # flat index of R(x) in B1 (x) B2
    for w, u in source_hw.items():
        iso[u] = target_hw[w]
        stack = [u]
        while stack:
            x = stack.pop()
            y = iso[x]
            for i in range(1, n):
                fx, fy = source[i][2][x], target[i][2][y]
                if (fx < 0) != (fy < 0):
                    raise CertificateError("components of equal weight disagree")
                if fx >= 0 and iso[fx] < 0:
                    iso[fx] = fy
                    stack.append(fx)
    if min(iso) < 0 or len(set(iso)) != size:
        raise CertificateError("transport is not a bijection of the tensor product")

    def zero_step(x: int) -> int:
        """Increment of H along the 0-edge raising x, judged on both sides
        of the local isomorphism."""
        side_src = source[0][0][x]
        if side_src is None:
            raise CertificateError("a 0-edge raises %s (x) %s, which e_0 kills"
                                   % (b2.elements[x // width], b1.elements[x % width]))
        return {(0, 0): -1, (1, 1): 1}.get((side_src, target[0][0][iso[x]]), 0)

    energy: list[Optional[int]] = [None] * size

    def reach(y: int, value: int):
        if energy[y] is None:
            energy[y] = value
            queue.append(y)
        elif energy[y] != value:
            raise CertificateError("local energy recursion is inconsistent")

    start = b2.index[tableaux.highest_weight_tableau(shape2, n)] * width + b1.index[
        tableaux.highest_weight_tableau(shape1, n)]
    energy[start] = 0
    queue = [start]
    while queue:
        x = queue.pop()
        for i, (_, ups, downs) in enumerate(source):
            if ups[x] >= 0:
                reach(ups[x], energy[x] + (zero_step(x) if i == 0 else 0))
            if downs[x] >= 0:
                reach(downs[x], energy[x] - (zero_step(downs[x]) if i == 0 else 0))
    if None in energy:
        raise ValueError("tensor product %s(x)%s is not connected; local energy undefined"
                         % (shape2, shape1))
    image1, image2 = zip(*(divmod(y, len(b2.elements)) for y in iso))
    return LocalIsoTable(n, shape2, shape1, tuple(energy), image1, image2)


# ---------------------------------------------------------------------------
# table registry with optional on-disk persistence

_TABLES: dict[tuple[int, RectShape, RectShape], LocalIsoTable] = {}
_LOCK = threading.Lock()
_CACHE_DIR: Optional[str] = None


def set_cache_dir(cache_dir: Optional[str]) -> None:
    """Load every later table from cache_dir, or build and save it there;
    None builds in memory only.  The tables in memory are dropped."""
    global _CACHE_DIR
    with _LOCK:
        _CACHE_DIR = cache_dir
        _TABLES.clear()


def cache_file_name(n: int, shape2: RectShape, shape1: RectShape) -> str:
    return "R_n%d_%dx%d_%dx%d.json" % (n, shape2[0], shape2[1], shape1[0], shape1[1])


def _names(n: int, shape: RectShape) -> list[str]:
    """The on-disk text of each element of B(shape), by index."""
    return [tableaux.format_tableau(t) for t in RectCrystal(n, shape).elements]


def _table_payload(table: LocalIsoTable) -> dict:
    left, right = _names(table.n, table.shape2), _names(table.n, table.shape1)
    pairs = list(itertools.product(left, right))
    return {
        "version": CACHE_FORMAT_VERSION,
        "n": table.n,
        "shape2": list(table.shape2),
        "shape1": list(table.shape1),
        "iso": sorted([a, b, right[v1], left[v2]]
                      for (a, b), v1, v2 in zip(pairs, table.image1, table.image2)),
        "energy": sorted([a, b, h] for (a, b), h in zip(pairs, table.energy)),
    }


def _payload_checksum(payload: dict) -> str:
    import hashlib  # imported here, so that a run without a cache never loads it

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_table(table: LocalIsoTable, cache_dir: str) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    payload = _table_payload(table)
    payload["checksum"] = _payload_checksum({k: v for k, v in payload.items() if k != "checksum"})
    path = os.path.join(cache_dir, cache_file_name(table.n, table.shape2, table.shape1))
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(blob)
    os.replace(tmp, path)
    return path


def _reject(message: str, *args) -> None:
    """Log why a cached table is rebuilt (see the module docstring)."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


def load_table(n: int, shape2: RectShape, shape1: RectShape, cache_dir: str) -> Optional[LocalIsoTable]:
    """The table stored in cache_dir, or None (with a logged reason) when
    the file is missing, unreadable, of another version or key, fails its
    checksum, or does not hold a content-preserving bijection."""
    path = os.path.join(cache_dir, cache_file_name(n, shape2, shape1))
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("version") != CACHE_FORMAT_VERSION:
            _reject("cache %s has format version %s, expected %d; rebuilding",
                    path, payload.get("version"), CACHE_FORMAT_VERSION)
            return None
        stored = payload.pop("checksum", None)
        if stored != _payload_checksum(payload):
            _reject("cache %s failed its checksum; rebuilding", path)
            return None
        if [payload["n"], payload["shape2"], payload["shape1"]] != [n, list(shape2), list(shape1)]:
            _reject("cache %s does not match its key; rebuilding", path)
            return None
        b2, b1 = RectCrystal(n, RectShape(*shape2)), RectCrystal(n, RectShape(*shape1))
        index2, index1 = ({name: x for x, name in enumerate(_names(n, c.shape))} for c in (b2, b1))
        width, size = len(b1.elements), len(b2.elements) * len(b1.elements)
        image, energy = [None] * size, [None] * size
        for t2, t1, v1, v2 in payload["iso"]:
            image[index2[t2] * width + index1[t1]] = (index1[v1], index2[v2])
        for t2, t1, h in payload["energy"]:
            energy[index2[t2] * width + index1[t1]] = int(h)
        if len(payload["iso"]) != size or len(payload["energy"]) != size or None in image or None in energy:
            _reject("cache %s has wrong cardinality; rebuilding", path)
            return None
        if len(set(image)) != size:
            _reject("cache %s holds a local isomorphism that is not a bijection; rebuilding", path)
            return None
        if any(vadd(b2.content[x // width], b1.content[x % width]) != vadd(b1.content[v1], b2.content[v2])
               for x, (v1, v2) in enumerate(image)):
            _reject("cache %s holds a local isomorphism that changes content; rebuilding", path)
            return None
        return LocalIsoTable(n, b2.shape, b1.shape, tuple(energy), *zip(*image))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _reject("cache %s is unreadable (%s); rebuilding", path, exc)
        return None


def get_local_table(n: int, shape2: RectShape, shape1: RectShape) -> LocalIsoTable:
    """Memoized table lookup; on first use loads it from the cache directory
    or builds (and saves) it.  Concurrent builders are allowed but only one
    result is published, and a racing rebuild must agree with it."""
    key = (n, RectShape(*shape2), RectShape(*shape1))
    cached = _TABLES.get(key)  # atomic read; published tables never change
    if cached is not None:
        return cached
    cache_dir = _CACHE_DIR
    table = load_table(n, key[1], key[2], cache_dir) if cache_dir else None
    if table is None:
        table = build_local_table(n, key[1], key[2])
        if cache_dir:
            save_table(table, cache_dir)
    with _LOCK:
        winner = _TABLES.setdefault(key, table)
        if winner != table:
            raise CertificateError("racing builds of the table %s disagree" % (key,))
    return _TABLES[key]


def carry_plan(n: int, shapes) -> tuple[int, list]:
    """The number of kinds (shapes, in order of first appearance) and, per
    factor x, its grading step: its kind and [(kind of s, k_s, table of
    s (x) x)] over the shapes s left of x, k_s of them."""
    kinds = list(dict.fromkeys(shapes))
    return len(kinds), [
        (kinds.index(x), [(kinds.index(s), shapes[:j].count(s), get_local_table(n, s, x))
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
        gain += k * table.energy[at]
        moved[s] = table.image2[at]
    moved[kind] = x
    return gain, tuple(moved)


def zero_side_moves(n: int, shape: RectShape, tail_shape: RectShape, z: int) -> list[int]:
    """The elements x of B(shape) such that e_0 acts on the left of x (x) z,
    z an element of B(tail_shape), and on the right of R(x (x) z)."""
    table = get_local_table(n, shape, tail_shape)
    left, right = RectCrystal(n, shape), RectCrystal(n, tail_shape)
    moved = []
    for x in range(len(left.elements)):
        k = x * table.width + z  # e_0 acts on the left of a (x) b exactly when eps_0(a) > phi_0(b)
        if left.eps[0][x] > right.phi[0][z] and right.eps[0][table.image1[k]] <= left.phi[0][table.image2[k]]:
            moved.append(x)
    return moved


def clear_memory_tables():
    with _LOCK:
        _TABLES.clear()


def phi_matching_element(n: int, shape: RectShape, lam: LevelWeight) -> Tableau:
    """The element b0 of the rectangle crystal with phi(b0) = lam.

    Existence and uniqueness hold when the crystal is perfect of the weight's
    level; both are checked by enumeration."""
    crystal = RectCrystal(n, RectShape(*shape))
    matches = [
        t
        for x, t in enumerate(crystal.elements)
        if all(crystal.phi[i][x] == lam.pairing(i) for i in range(n))
    ]
    if not matches:
        raise ValueError("no element of B^%s has phi equal to %s" % (crystal.shape, lam))
    if len(matches) > 1:
        raise ValueError(
            "phi = %s is matched by %d elements of B^%s; crystal is not perfect"
            % (lam, len(matches), crystal.shape)
        )
    return matches[0]
