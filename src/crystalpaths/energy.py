"""Local isomorphisms between tensor factors, local energy, and path energy.

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
local isomorphisms before it meets the right member.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from dataclasses import dataclass
from typing import Optional

from . import tableaux
from .paths import Path
from .signature import CertificateError, raising_index
from .tableaux import RectShape, Tableau
from .weights import LevelWeight

log = logging.getLogger(__name__)

CACHE_FORMAT_VERSION = 1

TableKey = tuple[int, RectShape, RectShape]
Pair = tuple[Tableau, Tableau]


@dataclass(frozen=True)
class LocalIsoTable:
    """Bijection B2 (x) B1 -> B1 (x) B2 together with the local energy values.

    ``iso[(b2, b1)]`` is the image pair ``(b1', b2')`` with b1' in B1 and
    b2' in B2; ``energy[(b2, b1)]`` is H(b2 (x) b1).
    """

    n: int
    shape2: RectShape
    shape1: RectShape
    iso: dict[Pair, Pair]
    energy: dict[Pair, int]

    def apply(self, b2: Tableau, b1: Tableau) -> Pair:
        return self.iso[(b2, b1)]

    def local_energy(self, b2: Tableau, b1: Tableau) -> int:
        return self.energy[(b2, b1)]


def _pair_path(n: int, left: Tableau, right: Tableau) -> Path:
    return Path(n, (left, right))


def _classical_highest_pairs(n: int, shape2: RectShape, shape1: RectShape) -> dict:
    """Map content -> unique classically highest pair of B2 (x) B1."""
    found: dict[tuple[int, ...], Pair] = {}
    for t2 in tableaux.enumerate_tableaux(shape2, n):
        for t1 in tableaux.enumerate_tableaux(shape1, n):
            p = _pair_path(n, t2, t1)
            if all(p.eps(i) == 0 for i in range(1, n)):
                w = p.weight()
                if w in found:
                    raise ValueError(
                        "component matching ambiguous for shapes %s, %s" % (shape2, shape1)
                    )
                found[w] = (t2, t1)
    return found


def _raising_side(n: int, pair: Pair) -> Optional[int]:
    """0 if e_0 acts on the left factor of the pair, 1 if on the right,
    None when undefined."""
    stats = [
        (tableaux.eps(pair[0], 0), tableaux.phi(pair[0], 0)),
        (tableaux.eps(pair[1], 0), tableaux.phi(pair[1], 0)),
    ]
    return raising_index(stats)


def _pair_e(n: int, pair: Pair, i: int) -> Optional[Pair]:
    moved = _pair_path(n, *pair).e(i)
    return None if moved is None else moved.factors


def _pair_f(n: int, pair: Pair, i: int) -> Optional[Pair]:
    moved = _pair_path(n, *pair).f(i)
    return None if moved is None else moved.factors


def build_local_table(n: int, shape2: RectShape, shape1: RectShape) -> LocalIsoTable:
    shape2, shape1 = RectShape(*shape2), RectShape(*shape1)
    b2 = tableaux.enumerate_tableaux(shape2, n)
    b1 = tableaux.enumerate_tableaux(shape1, n)
    size = len(b2) * len(b1)

    source_hw = _classical_highest_pairs(n, shape2, shape1)
    target_hw = _classical_highest_pairs(n, shape1, shape2)
    if set(source_hw) != set(target_hw):
        raise ValueError(
            "classical decompositions of %s(x)%s and %s(x)%s disagree"
            % (shape2, shape1, shape1, shape2)
        )

    iso: dict[Pair, Pair] = {}
    for w, u in source_hw.items():
        v = target_hw[w]
        iso[u] = v
        stack = [u]
        while stack:
            x = stack.pop()
            y = iso[x]
            for i in range(1, n):
                fx = _pair_f(n, x, i)
                fy = _pair_f(n, y, i)
                if (fx is None) != (fy is None):
                    raise CertificateError("components of equal weight disagree")
                if fx is not None and fx not in iso:
                    iso[fx] = fy
                    stack.append(fx)
    if len(iso) != size or len(set(iso.values())) != size:
        raise CertificateError("transport is not a bijection of the tensor product")

    energy: dict[Pair, int] = {}
    start = (
        tableaux.highest_weight_tableau(shape2, n),
        tableaux.highest_weight_tableau(shape1, n),
    )

    def zero_step(x: Pair) -> int:
        """Increment of H along the 0-edge raising x, judged on both sides
        of the local isomorphism."""
        side_src = _raising_side(n, x)
        if side_src is None:
            raise CertificateError("a 0-edge raises %s, which e_0 kills" % (x,))
        side_img = _raising_side(n, iso[x])
        if side_src == 0 and side_img == 0:
            return -1
        if side_src == 1 and side_img == 1:
            return 1
        return 0

    energy[start] = 0
    queue = [start]
    while queue:
        x = queue.pop()
        for i in range(n):
            up = _pair_e(n, x, i)
            if up is not None:
                value = energy[x] + (zero_step(x) if i == 0 else 0)
                if up not in energy:
                    energy[up] = value
                    queue.append(up)
                elif energy[up] != value:
                    raise CertificateError("local energy recursion is inconsistent")
            down = _pair_f(n, x, i)
            if down is not None:
                value = energy[x] - (zero_step(down) if i == 0 else 0)
                if down not in energy:
                    energy[down] = value
                    queue.append(down)
                elif energy[down] != value:
                    raise CertificateError("local energy recursion is inconsistent")
    if len(energy) != size:
        raise ValueError(
            "tensor product %s(x)%s is not connected; local energy undefined"
            % (shape2, shape1)
        )

    return LocalIsoTable(n, shape2, shape1, iso, energy)


# ---------------------------------------------------------------------------
# table registry with optional on-disk persistence

_TABLES: dict[TableKey, LocalIsoTable] = {}
_LOCK = threading.Lock()


def cache_file_name(n: int, shape2: RectShape, shape1: RectShape) -> str:
    return "R_n%d_%dx%d_%dx%d.json" % (n, shape2[0], shape2[1], shape1[0], shape1[1])


def _table_payload(table: LocalIsoTable) -> dict:
    iso_rows = sorted(
        [
            tableaux.format_tableau(k[0]),
            tableaux.format_tableau(k[1]),
            tableaux.format_tableau(v[0]),
            tableaux.format_tableau(v[1]),
        ]
        for k, v in table.iso.items()
    )
    energy_rows = sorted(
        [tableaux.format_tableau(k[0]), tableaux.format_tableau(k[1]), h]
        for k, h in table.energy.items()
    )
    return {
        "version": CACHE_FORMAT_VERSION,
        "n": table.n,
        "shape2": list(table.shape2),
        "shape1": list(table.shape1),
        "iso": iso_rows,
        "energy": energy_rows,
    }


def _payload_checksum(payload: dict) -> str:
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


def load_table(n: int, shape2: RectShape, shape1: RectShape, cache_dir: str) -> Optional[LocalIsoTable]:
    path = os.path.join(cache_dir, cache_file_name(n, shape2, shape1))
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("version") != CACHE_FORMAT_VERSION:
            log.warning("cache %s has format version %s, expected %d; rebuilding",
                        path, payload.get("version"), CACHE_FORMAT_VERSION)
            return None
        stored = payload.pop("checksum", None)
        if stored != _payload_checksum(payload):
            log.warning("cache %s failed its checksum; rebuilding", path)
            return None
        if payload["n"] != n or tuple(payload["shape2"]) != tuple(shape2) or tuple(
            payload["shape1"]
        ) != tuple(shape1):
            log.warning("cache %s does not match its key; rebuilding", path)
            return None
        iso = {}
        for t2, t1, v1, v2 in payload["iso"]:
            iso[(tableaux.parse_tableau(t2, n), tableaux.parse_tableau(t1, n))] = (
                tableaux.parse_tableau(v1, n),
                tableaux.parse_tableau(v2, n),
            )
        energy = {}
        for t2, t1, h in payload["energy"]:
            energy[(tableaux.parse_tableau(t2, n), tableaux.parse_tableau(t1, n))] = int(h)
        expected = len(tableaux.enumerate_tableaux(RectShape(*shape2), n)) * len(
            tableaux.enumerate_tableaux(RectShape(*shape1), n)
        )
        if len(iso) != expected or len(energy) != expected:
            log.warning("cache %s has wrong cardinality; rebuilding", path)
            return None
        return LocalIsoTable(n, RectShape(*shape2), RectShape(*shape1), iso, energy)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        log.warning("cache %s is unreadable (%s); rebuilding", path, exc)
        return None


def get_local_table(
    n: int, shape2: RectShape, shape1: RectShape, cache_dir: Optional[str] = None
) -> LocalIsoTable:
    """Memoized table lookup; builds (and persists, if a directory is given)
    on first use.  Concurrent builders are allowed but only one result is
    published, and a racing rebuild must agree with it."""
    key = (n, RectShape(*shape2), RectShape(*shape1))
    cached = _TABLES.get(key)  # atomic read; published tables never change
    if cached is not None:
        return cached
    table = None
    if cache_dir:
        table = load_table(n, key[1], key[2], cache_dir)
    if table is None:
        table = build_local_table(n, key[1], key[2])
        if cache_dir:
            save_table(table, cache_dir)
    with _LOCK:
        winner = _TABLES.setdefault(key, table)
        if winner is not table and (winner.iso != table.iso or winner.energy != table.energy):
            raise CertificateError("racing builds of the table %s disagree" % (key,))
    return _TABLES[key]


def clear_memory_tables():
    with _LOCK:
        _TABLES.clear()


# ---------------------------------------------------------------------------
# path energy


def local_iso(b2: Tableau, b1: Tableau, cache_dir: Optional[str] = None) -> Pair:
    table = get_local_table(b2.n, b2.shape, b1.shape, cache_dir)
    return table.apply(b2, b1)


def local_energy(b2: Tableau, b1: Tableau, cache_dir: Optional[str] = None) -> int:
    table = get_local_table(b2.n, b2.shape, b1.shape, cache_dir)
    return table.local_energy(b2, b1)


def path_energy(p: Path, cache_dir: Optional[str] = None) -> int:
    """Sum of local energies over all factor pairs.

    For each pair of positions the left factor is swept rightward through
    the factors between them: evaluate H against the neighbor, then swap
    past it with the local isomorphism and continue.  Positions count from
    the right, so ``fs[len-j]`` is the j-th factor.
    """
    fs = p.factors
    length = len(fs)
    total = 0
    for j in range(2, length + 1):
        x = fs[length - j]
        for i in range(j - 1, 0, -1):
            y = fs[length - i]
            table = get_local_table(p.n, x.shape, y.shape, cache_dir)
            total += table.local_energy(x, y)
            if i > 1:
                x = table.apply(x, y)[1]
    return total


def phi_matching_element(n: int, shape: RectShape, lam: LevelWeight) -> Tableau:
    """The element b0 of the rectangle crystal with phi(b0) = lam.

    Existence and uniqueness hold when the crystal is perfect of the weight's
    level; both are checked by enumeration."""
    matches = [
        t
        for t in tableaux.enumerate_tableaux(RectShape(*shape), n)
        if all(tableaux.phi(t, i) == lam.pairing(i) for i in range(n))
    ]
    if not matches:
        raise ValueError("no element of B^%s has phi equal to %s" % (RectShape(*shape), lam))
    if len(matches) > 1:
        raise ValueError(
            "phi = %s is matched by %d elements of B^%s; crystal is not perfect"
            % (lam, len(matches), RectShape(*shape))
        )
    return matches[0]


def augmented_energy(
    p: Path,
    lam: LevelWeight,
    b0_shape: RectShape,
    cache_dir: Optional[str] = None,
) -> int:
    """Energy of the path extended on the right by the element b0 with
    phi(b0) = lam."""
    b0 = phi_matching_element(p.n, b0_shape, lam)
    return path_energy(Path(p.n, p.factors + (b0,)), cache_dir)
