"""Outside-in tracing of crystalpaths: wrappers around each layer's public
functions, installed at every module binding that callers look up.

Two kinds of record are kept in memory:

* spans (id, parent, name, start ns, end ns) for the coarse calls: scans,
  sums, certificates, table builds, loads and saves.  A span's self time is
  its duration minus the part of it that its child spans cover.
* call statistics [calls, ns] for the hot leaf calls (restriction tests,
  crystal operators, path energy, table lookups, vector and polynomial
  arithmetic), which are far too many to keep one span each.  Crystal
  operators count only their outermost calls.

Worker processes forked by ``--jobs`` inherit the wrappers.  The wrapper of
``kostka._scan_chunk``, the function the pool runs, writes the worker's
share of the records to a file that the parent merges, so worker-side work
reaches the report.  This relies on the ``fork`` start method; under another
one the workers run unwrapped and ``Collector.merge_chunks`` reports that the
worker side was not measured.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path

clock = time.perf_counter_ns

# Leaf statistics, grouped by the per-layer metric they feed.
RESTRICTION_TESTS = ("is_level_restricted", "is_classically_restricted")
TABLEAU_OPS = ("eps", "phi", "e", "f", "promotion")
VECTOR_OPS = (
    "dot", "vadd", "vsub", "vscale", "norm2", "spread", "equal_mod_ones",
    "perm_apply", "perm_inverse", "perm_sign",
)

# Functions kept as spans, by module; energy's table functions are spans too.
SPANNED = {
    "kostka": ("kostka_level", "kostka_classical", "scan_paths"),
    "bosonic": (
        "bosonic_report", "alternating_sum", "vacuum_alternating_sum",
        "level_zero_identity", "level_zero_pairing", "bosonic_via_straightening",
        "commutation_hypothesis_warnings",
    ),
}


class Collector:
    """Spans and call statistics of one process."""

    def __init__(self, chunk_dir: str | None = None):
        self.pid = os.getpid()
        self.chunk_dir = chunk_dir
        self.stats: dict[str, list[int]] = {}
        self.spans: list[list] = []
        self.stack: list[str] = []
        self.seq = 0
        self.table_keys: set = set()
        self.memo_caches: list = []
        self.worker_side = "not used"
        self.missing: list[str] = []

    def stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0])

    def open_span(self, name: str) -> tuple[str, str | None, int]:
        self.seq += 1
        sid = "%d.%d" % (os.getpid(), self.seq)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent, clock()

    def close_span(self, name: str, opened):
        sid, parent, start = opened
        self.stack.pop()
        self.spans.append([sid, parent, name, start, clock()])

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self.open_span(name)
        try:
            yield
        finally:
            self.close_span(name, opened)

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "spans": list(self.spans),
            "gauges": {
                "tableaux.memo_entries": sum(c.cache_info().currsize for c in self.memo_caches),
                "energy.tables_in_memory": len(self.table_keys),
            },
            "worker_side": self.worker_side,
            "missing": list(self.missing),
        }

    def merge_chunks(self, pool_used: bool):
        """Fold the records written by forked workers into this process."""
        files = sorted(Path(self.chunk_dir).glob("chunk-*.json")) if self.chunk_dir else []
        for path in files:
            with open(path, encoding="utf-8") as fh:
                part = json.load(fh)
            path.unlink()
            for name, (calls, ns) in part["stats"].items():
                st = self.stat(name)
                st[0] += calls
                st[1] += ns
            self.spans.extend(part["spans"])
        if pool_used:
            self.worker_side = "measured" if files else "not measured"


def merge_snapshots(parts: list[dict]) -> dict:
    out = {"stats": {}, "spans": [], "gauges": {}, "worker_side": "not used", "missing": []}
    for part in parts:
        for name, (calls, ns) in part["stats"].items():
            st = out["stats"].setdefault(name, [0, 0])
            st[0] += calls
            st[1] += ns
        out["spans"].extend(part["spans"])
        for name, value in part["gauges"].items():
            out["gauges"][name] = max(out["gauges"].get(name, 0), value)
        out["missing"] = sorted(set(out["missing"]) | set(part["missing"]))
        if part["worker_side"] != "not used":
            # one unmeasured worker side makes the whole report unmeasured
            if out["worker_side"] != "not measured":
                out["worker_side"] = part["worker_side"]
    return out


# ---------------------------------------------------------------------------
# installation


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "crystalpaths" or name.startswith("crystalpaths."))]


def rebind(original, wrapper) -> int:
    """Point every crystalpaths module binding of ``original`` at ``wrapper``."""
    count = 0
    for module in _program_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)
                count += 1
    if not count:
        raise RuntimeError("no binding of %r to wrap" % (original,))
    return count


def _timed(fn, st):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            st[1] += clock() - t0
            st[0] += 1
    return wrapper


def _outermost(fn, st, depth):
    """Like _timed, but counts and times a call only when no other call of
    the same group encloses it; an enclosed call is part of its caller's."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        depth[0] = 1
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            st[1] += clock() - t0
            st[0] += 1
            depth[0] = 0
    return wrapper


def _counted(fn, st):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def _spanned(fn, c: Collector, name: str, calls=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened = c.open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            c.close_span(name, opened)
        if calls is not None:
            calls[0] += 1
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


def box_size(n: int, bound: int) -> int:
    """Number of sum-zero integer vectors of length n with entries in
    [-bound, bound], counted independently of the program."""
    counts = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for total, ways in counts.items():
            for x in range(-bound, bound + 1):
                nxt[total + x] = nxt.get(total + x, 0) + ways
        counts = nxt
    return counts.get(0, 0)


def install(c: Collector):
    """Wrap the public functions of every layer and return the collector.

    A function the program no longer has is listed in ``c.missing`` and its
    metrics stay 0, so that a refactor shows as a count change rather than
    as a crash of the traced run."""
    import crystalpaths.cli  # noqa: F401  (its bindings are rebound too)
    from crystalpaths import bosonic, energy, kostka, laurent, paths, straighten, tableaux, weights

    c.memo_caches = [v for v in vars(tableaux).values() if hasattr(v, "cache_info")]

    def wrap(module, name, make):
        fn = getattr(module, name, None)
        if fn is None:
            c.missing.append("%s.%s" % (module.__name__, name))
        else:
            rebind(fn, make(fn))

    # path layer: restriction tests and path energy
    restrict = c.stat("paths.restrict")
    restricted = c.stat("paths.restricted")

    def restriction(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                ok = fn(*args, **kwargs)
            finally:
                restrict[1] += clock() - t0
                restrict[0] += 1
            if ok:
                restricted[0] += 1
            return ok
        return wrapper

    for name in RESTRICTION_TESTS:
        wrap(paths, name, restriction)

    energy_calls = c.stat("energy.path_energy")
    energy_pairs = c.stat("energy.path_energy_pairs")

    def path_energy(fn):
        @functools.wraps(fn)
        def wrapper(p, *args, **kwargs):
            t0 = clock()
            try:
                return fn(p, *args, **kwargs)
            finally:
                energy_calls[1] += clock() - t0
                energy_calls[0] += 1
                energy_pairs[0] += len(p.factors) * (len(p.factors) - 1) // 2
        return wrapper

    wrap(energy, "path_energy", path_energy)

    # crystal layer: eps, phi, e and f with i=0 call promotion, which is
    # counted on its own only when no other operator encloses it
    ops, op_depth = c.stat("tableaux.op"), [0]
    for name in TABLEAU_OPS:
        wrap(tableaux, name, lambda fn: _outermost(fn, ops, op_depth))

    # tables layer: builds, loads, saves and memory hits
    built, saved = c.stat("energy.build"), c.stat("energy.saved")
    load, loaded, rejected = c.stat("energy.load"), c.stat("energy.loaded"), c.stat("energy.rejected")
    file_name = getattr(energy, "cache_file_name", None)

    def loader(fn):
        spanned = _spanned(fn, c, "energy.load_table")

        @functools.wraps(fn)
        def wrapper(n, shape2, shape1, cache_dir):
            # presence is checked first: a racing worker may write the file
            present = file_name is not None and os.path.exists(
                os.path.join(cache_dir, file_name(n, shape2, shape1)))
            table = spanned(n, shape2, shape1, cache_dir)
            load[0] += 1
            if table is not None:
                loaded[0] += 1
            elif present:
                rejected[0] += 1
            return table
        return wrapper

    wrap(energy, "build_local_table", lambda fn: _spanned(fn, c, "energy.build_local_table", built))
    wrap(energy, "save_table", lambda fn: _spanned(fn, c, "energy.save_table", saved))
    wrap(energy, "load_table", loader)
    mem_hits = c.stat("energy.mem_hit")

    def lookup(fn):
        @functools.wraps(fn)
        def wrapper(n, shape2, shape1, *args, **kwargs):
            before = built[0] + load[0]
            table = fn(n, shape2, shape1, *args, **kwargs)
            if built[0] + load[0] == before:
                mem_hits[0] += 1
            c.table_keys.add((n, tuple(shape2), tuple(shape1)))
            return table
        return wrapper

    wrap(energy, "get_local_table", lookup)

    # sum layer: grids, vector and polynomial arithmetic, straightening
    grid = c.stat("bosonic.grid_points")

    def count_grid(n: int, bound: int):
        grid[0] += math.factorial(n) * box_size(n, bound)

    def after_alt(args, kwargs, result):
        count_grid(args[0] if args else kwargs["n"], result.truncation_bound)

    def after_pairing(args, kwargs, result):
        count_grid(args[0] if args else kwargs["n"], result["truncation_bound"])

    vacuum_sum = getattr(bosonic, "vacuum_alternating_sum", None)
    bound_of = getattr(bosonic, "truncation_bound", None)

    def after_vacuum(args, kwargs, result):
        call = inspect.signature(vacuum_sum).bind(*args, **kwargs)
        call.apply_defaults()
        spec, widen = call.arguments["spec"], call.arguments["widen"]
        zero = (0,) * spec.n
        count_grid(spec.n, bound_of(spec.n, spec.level, zero, zero, spec.shapes, widen))

    afters = {
        "alternating_sum": after_alt,
        "vacuum_alternating_sum": after_vacuum if bound_of else None,
        "level_zero_pairing": after_pairing,
    }
    for name in SPANNED["bosonic"]:
        wrap(bosonic, name, lambda fn, name=name: _spanned(fn, c, "bosonic." + name, None, afters.get(name)))

    vec = c.stat("weights.vec")
    for name in VECTOR_OPS:
        wrap(weights, name, lambda fn: _counted(fn, vec))

    Laurent = getattr(laurent, "LaurentPoly", None)
    if Laurent is None:
        c.missing.append("crystalpaths.laurent.LaurentPoly")
    else:
        add, mul = Laurent.__add__, Laurent.__mul__
        Laurent.__add__ = Laurent.__radd__ = _timed(add, c.stat("laurent.add"))
        Laurent.__mul__ = Laurent.__rmul__ = _timed(mul, c.stat("laurent.mul"))

    wrap(straighten, "normalize", lambda fn: _timed(fn, c.stat("straighten.normalize")))

    # kostka scans, and the process pool that --jobs uses
    for name in SPANNED["kostka"]:
        wrap(kostka, name, lambda fn, name=name: _spanned(fn, c, "kostka." + name))
    wrap(kostka, "_scan_chunk", lambda fn: _chunk_wrapper(fn, c))
    wrap(kostka, "ProcessPoolExecutor", lambda cls: _timed_pool(cls, c.stat("kostka.jobs_wait")))
    return c


def _chunk_wrapper(scan_chunk, c: Collector):
    """In the parent, a span; in a forked worker, also writes the worker's
    records for this chunk to ``c.chunk_dir`` for the parent to merge."""

    @functools.wraps(scan_chunk)
    def wrapper(payload):
        if os.getpid() == c.pid or not c.chunk_dir:
            with c.span("kostka._scan_chunk"):
                return scan_chunk(payload)
        before = {k: list(v) for k, v in c.stats.items()}
        first = len(c.spans)
        with c.span("kostka._scan_chunk"):
            result = scan_chunk(payload)
        delta = {}
        for k, (calls, ns) in c.stats.items():
            b_calls, b_ns = before.get(k, (0, 0))
            if calls != b_calls or ns != b_ns:
                delta[k] = [calls - b_calls, ns - b_ns]
        c.seq += 1
        path = os.path.join(c.chunk_dir, "chunk-%d-%d.json" % (os.getpid(), c.seq))
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump({"stats": delta, "spans": c.spans[first:]}, fh)
        os.replace(path + ".tmp", path)
        return result

    return wrapper


def _timed_pool(pool_class, wait):
    class TimedPool(pool_class):
        """The program's process pool, timed from entry to shutdown."""

        def __enter__(self):
            self._bench_t0 = clock()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                wait[1] += clock() - self._bench_t0
                wait[0] += 1

    return TimedPool


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans) -> dict[str, float]:
    """Span id -> self time in ns: duration minus the union of its children."""
    children: dict[str, list] = {}
    for sid, parent, name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, parent, name, start, end in spans:
        covered = 0
        cur_start = cur_end = None
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[sid] = (end - start) - covered
    return out


def _per_call(st) -> float:
    return st[1] / st[0] if st[0] else 0.0


def layer_metrics(snap: dict) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, except the ones the
    runner adds (cli.*, trace.overhead_ratio)."""
    stats = snap["stats"]

    def st(name):
        return stats.get(name, [0, 0])

    selfs = self_times(snap["spans"])
    span_total = {}
    self_total = {}
    span_calls = {}
    for sid, parent, name, start, end in snap["spans"]:
        span_total[name] = span_total.get(name, 0) + (end - start)
        self_total[name] = self_total.get(name, 0) + selfs[sid]
        span_calls[name] = span_calls.get(name, 0) + 1
    s = 1e-9
    energy_pairs = st("energy.path_energy_pairs")[0]
    laurent_ops = [a + b for a, b in zip(st("laurent.add"), st("laurent.mul"))]
    return {
        "paths.restrict_calls": st("paths.restrict")[0],
        "paths.restricted": st("paths.restricted")[0],
        "paths.restrict_ns": _per_call(st("paths.restrict")),
        "tableaux.op_calls": st("tableaux.op")[0],
        "tableaux.op_ns": _per_call(st("tableaux.op")),
        "energy.path_energy_calls": st("energy.path_energy")[0],
        "energy.path_energy_ns": _per_call(st("energy.path_energy")),
        "energy.path_energy_pair_ns": st("energy.path_energy")[1] / energy_pairs if energy_pairs else 0.0,
        "kostka.scan_calls": span_calls.get("kostka.scan_paths", 0),
        "kostka.scan_s": span_total.get("kostka.scan_paths", 0) * s,
        "kostka.jobs_wait_s": st("kostka.jobs_wait")[1] * s,
        "energy.tables_built": st("energy.build")[0],
        "energy.tables_loaded": st("energy.loaded")[0],
        "energy.tables_saved": st("energy.saved")[0],
        "energy.table_mem_hits": st("energy.mem_hit")[0],
        "energy.tables_rejected": st("energy.rejected")[0],
        "energy.build_s": span_total.get("energy.build_local_table", 0) * s,
        "energy.load_s": span_total.get("energy.load_table", 0) * s,
        "energy.save_s": span_total.get("energy.save_table", 0) * s,
        "bosonic.grid_points": st("bosonic.grid_points")[0],
        "bosonic.alt_sum_self_s": (self_total.get("bosonic.alternating_sum", 0)
                                   + self_total.get("bosonic.vacuum_alternating_sum", 0)) * s,
        "bosonic.pairing_s": self_total.get("bosonic.level_zero_pairing", 0) * s,
        "weights.vec_calls": st("weights.vec")[0],
        "laurent.mul_calls": st("laurent.mul")[0],
        "laurent.add_calls": st("laurent.add")[0],
        "laurent.op_ns": _per_call(laurent_ops),
        "straighten.normalize_calls": st("straighten.normalize")[0],
        "straighten.normalize_ns": _per_call(st("straighten.normalize")),
        "tableaux.memo_entries": snap["gauges"].get("tableaux.memo_entries", 0),
        "energy.tables_in_memory": snap["gauges"].get("energy.tables_in_memory", 0),
    }
