"""Spec pools, seeded draws, spec execution and exact answer checks.

Shared by the runner (``run.py``), the in-process worker (``worker.py``), the
traced CLI driver (``cli_driver.py``) and the answer recorder
(``record.py``).  Nothing here imports ``crystalpaths`` at module level, so
the runner can measure the program's import as part of set-up.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
POOLS = BENCH / "pools.json"
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = ("verify_cli", "restricted", "level_zero")

# A spec that runs longer than this is recorded as failed; the seed's
# slowest spec takes about 1.3 s on a 2-core x86 box.
SPEC_TIMEOUT_S = 20.0
# No spec starts after this many seconds of timed work, even if the first
# pass is incomplete, so that a run always ends inside its time limit.
HARD_LIMIT_S = 120.0


class ProgramMissing(RuntimeError):
    pass


def require_program():
    """Raise unless the checkout holds the program's sources."""
    if not (SRC / "crystalpaths" / "__init__.py").is_file():
        raise ProgramMissing("no crystalpaths sources under %s" % SRC)


def load_pools() -> dict:
    with open(POOLS, encoding="utf-8") as fh:
        return json.load(fh)


def draw(pools: dict, workload: str, seed: int) -> list[dict]:
    """One variant from every stratum of the workload's pool, in a seeded
    order.  Variants of a stratum cost about the same, so the spec mix, and
    with it the expected cost of a pass, is the same for every seed."""
    rng = random.Random("%s/%d" % (workload, seed))
    specs = [rng.choice(stratum["variants"]) for stratum in pools[workload]["strata"]]
    rng.shuffle(specs)
    return specs


def subprocess_env() -> dict:
    env = dict(os.environ)
    env.pop("CRYSTAL_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ---------------------------------------------------------------------------
# spec execution


def cli_args(spec: dict, cache_dir: str, jobs: int) -> list[str]:
    """Arguments of the ``crystalpaths verify`` call a user would type."""
    argv = [
        "verify",
        "--n", str(spec["n"]),
        "--level", str(spec["level"]),
        "--shapes", spec["shapes"],
        "--Lambda", spec["Lambda"],
    ]
    if spec.get("LambdaPrime"):
        argv += ["--LambdaPrime", spec["LambdaPrime"]]
    return argv + ["--widen-check", "--jobs", str(jobs), "--cache-dir", cache_dir]


def cli_output(payload: dict) -> dict:
    """The fields of ``verify`` JSON that the recorded answers fix."""
    keys = (
        "lhs_polynomial", "rhs_polynomial", "equal", "summand_count",
        "truncation_bound", "widen_certificate", "warnings",
    )
    return {k: payload.get(k) for k in keys}


def crystal_spec(spec: dict):
    from crystalpaths.cli import parse_shapes, parse_weight_selector
    from crystalpaths.kostka import CrystalSpec

    n = spec["n"]
    if spec["kind"] == "classical":
        return CrystalSpec(n, parse_shapes(spec["shapes"]))
    lam_prime = spec.get("LambdaPrime")
    return CrystalSpec(
        n,
        parse_shapes(spec["shapes"]),
        level=spec["level"],
        lam=parse_weight_selector(spec["Lambda"], n, "Lambda"),
        lam_prime=parse_weight_selector(lam_prime, n, "LambdaPrime") if lam_prime else None,
    )


def run_in_process(spec: dict) -> dict:
    """Run one ``restricted`` or ``level_zero`` spec through the library."""
    from crystalpaths import bosonic, kostka
    from crystalpaths.cli import parse_partition, parse_shapes

    kind = spec["kind"]
    if kind == "level":
        poly = kostka.kostka_level(crystal_spec(spec))
        return normalized({"polynomial": poly.pairs()})
    if kind == "classical":
        poly = kostka.kostka_classical(crystal_spec(spec), parse_partition(spec["lambda"]))
        return normalized({"polynomial": poly.pairs()})
    if kind == "straighten":
        poly = bosonic.bosonic_via_straightening(crystal_spec(spec))
        return normalized({"polynomial": poly.pairs()})
    if kind == "level_zero":
        shapes = parse_shapes(spec["shapes"])
        out = dict(bosonic.level_zero_identity(spec["n"], shapes))
        pairing = bosonic.level_zero_pairing(spec["n"], shapes)
        out["pairing_size"] = pairing["pairing_size"]
        out["pairing_summands"] = pairing["summand_count"]
        out["cancels"] = pairing["cancels"]
        return normalized(out)
    raise ValueError("spec kind %r does not run in-process" % kind)


def normalized(value):
    """Tuples become lists, exactly as in the CLI's JSON."""
    return json.loads(json.dumps(value))


def mismatch(entry: dict, output: dict) -> str | None:
    """None when every recorded answer field matches, else a description."""
    for key, want in entry["answer"].items():
        got = output.get(key)
        if got != want:
            return "%s: %s = %r, expected %r" % (entry["id"], key, got, want)
    return None


class SpecTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise SpecTimeout("spec exceeded %.0f s" % SPEC_TIMEOUT_S)


def in_process_with_timeout(spec: dict) -> dict:
    """run_in_process, interrupted by SIGALRM after SPEC_TIMEOUT_S."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SPEC_TIMEOUT_S)
    try:
        return run_in_process(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# the closed loop


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Reference:
    """The reference task's process (see reference.py); calling it runs the
    task once and returns the seconds that took."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "reference.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def closed_loop(specs, execute, seconds: float, cpu_clock, passes: int | None = None,
                before_spec=None):
    """Run the specs one at a time, cycling through the list.

    ``execute(entry, pass_index)`` returns an error string or None and may
    raise; an exception is recorded as a failure and the loop goes on.  With
    ``passes`` the loop runs exactly that many passes; otherwise it runs until
    ``seconds`` have elapsed and at least one full pass is done, but never
    starts a spec after HARD_LIMIT_S.  ``before_spec()``, if given, is called
    before every spec, outside its timing.  Returns one sample per
    execution.
    """
    samples = []
    start = time.perf_counter()
    k = 0
    while True:
        pass_index, pos = divmod(k, len(specs))
        elapsed = time.perf_counter() - start
        if passes is not None:
            if pass_index >= passes:
                break
        elif pass_index >= 1 and elapsed >= seconds:
            break
        entry = specs[pos]
        if elapsed >= HARD_LIMIT_S:
            samples.append({"id": entry["id"], "pass": pass_index, "wall": 0.0, "cpu": 0.0,
                            "error": "%s: not started, the run hit its time limit" % entry["id"]})
            k += 1
            continue
        if before_spec is not None:
            before_spec()
        c0, t0 = cpu_clock(), time.perf_counter()
        try:
            error = execute(entry, pass_index)
        except Exception as exc:  # a failing spec is measured, not fatal
            error = "%s: %s: %s" % (entry["id"], type(exc).__name__, exc)
        t1, c1 = time.perf_counter(), cpu_clock()
        samples.append(
            {"id": entry["id"], "pass": pass_index, "wall": t1 - t0, "cpu": c1 - c0, "error": error}
        )
        k += 1
    return samples


def per_spec_medians(samples, field: str) -> dict[str, float]:
    by_id: dict[str, list[float]] = {}
    for s in samples:
        by_id.setdefault(s["id"], []).append(s[field])
    return {k: statistics.median(v) for k, v in by_id.items()}
