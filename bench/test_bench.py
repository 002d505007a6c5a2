"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

TINY = {"id": "tiny", "spec": {"kind": "level", "n": 2, "level": 1, "shapes": "1x1,1x1",
                               "Lambda": "L0"}, "answer": {}}
TINY_STRAIGHTEN = {"id": "tiny-straighten", "spec": dict(TINY["spec"], kind="straighten"),
                   "answer": {}}

# With --jobs 2 the pool hands chunks to whichever worker is free, and two
# workers race to build or load the same table file on first use, so the
# split of table lookups into memory hits, loads and builds, and the crystal
# operator and vector calls a build makes, depend on scheduling.
RACY = {"energy.tables_built", "energy.tables_loaded", "energy.tables_saved",
        "energy.table_mem_hits", "tableaux.op_calls", "weights.vec_calls"}
LOOKUPS = ("energy.table_mem_hits", "energy.tables_loaded", "energy.tables_built")


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if isinstance(v, int)}


def test_every_spec_is_nontrivial():
    pools = workloads.load_pools()
    ids = []
    for workload in workloads.WORKLOADS:
        for stratum in pools[workload]["strata"]:
            assert stratum["variants"]
            for entry in stratum["variants"]:
                ids.append(entry["id"])
                answer = entry["answer"]
                if entry["spec"]["kind"] == "level_zero":
                    assert answer["summand_count"] > 0, entry["id"]
                    assert answer["pairing_size"] > 0, entry["id"]
                elif entry["spec"]["kind"] == "verify":
                    assert answer["lhs_polynomial"] == answer["rhs_polynomial"] != [], entry["id"]
                else:
                    assert answer["polynomial"] != [], entry["id"]
    assert len(ids) == len(set(ids))


def test_draw_is_seeded_and_takes_one_spec_per_stratum():
    pools = workloads.load_pools()
    for workload in workloads.WORKLOADS:
        a = workloads.draw(pools, workload, 7)
        assert a == workloads.draw(pools, workload, 7)
        strata = {e["id"].split("/")[0] for e in a}
        assert strata == {s["name"] for s in pools[workload]["strata"]}


def traced_pass_in_subprocess(specs) -> dict:
    code = (
        "import json, sys; sys.path.insert(0, %r); import tracing, worker; "
        "r = worker.one_pass(json.loads(sys.argv[1]), traced=True); "
        "print(json.dumps(tracing.layer_metrics(r['trace'])))" % str(BENCH)
    )
    out = subprocess.run([sys.executable, "-c", code, json.dumps(specs)], capture_output=True,
                         text=True, env=workloads.subprocess_env(), check=True, timeout=120)
    return json.loads(out.stdout)


def test_traced_counts_repeat_exactly():
    first = traced_pass_in_subprocess([TINY])
    second = traced_pass_in_subprocess([TINY])
    assert first["paths.restrict_calls"] == 4  # all of B(1x1)^2 at n=2
    assert first["energy.path_energy_calls"] == first["paths.restricted"] == 1
    assert first["energy.tables_built"] == 1
    assert first["tableaux.op_calls"] > 0
    assert counts(first) == counts(second)


def test_straightening_is_traced_and_repeats():
    first = traced_pass_in_subprocess([TINY_STRAIGHTEN])
    second = traced_pass_in_subprocess([TINY_STRAIGHTEN])
    assert first["straighten.normalize_calls"] == 3  # one per content fibre of B(1x1)^2
    assert first["energy.path_energy_calls"] == 4
    assert first["paths.restrict_calls"] == 0
    assert counts(first) == counts(second)


def traced_cli(tmp_path: Path, tag: str) -> dict:
    trace_dir = tmp_path / tag
    trace_dir.mkdir()
    argv = workloads.cli_args(TINY["spec"], str(tmp_path / (tag + "-cache")), 2)
    subprocess.run([sys.executable, str(BENCH / "cli_driver.py"), str(trace_dir)] + argv,
                   capture_output=True, env=workloads.subprocess_env(), check=True, timeout=120)
    with open(trace_dir / "trace.json", encoding="utf-8") as fh:
        snap = json.load(fh)
    assert snap["worker_side"] == "measured"
    return tracing.layer_metrics(snap)


def test_traced_cli_counts_reach_the_parent_and_repeat(tmp_path):
    first = traced_cli(tmp_path, "a")
    second = traced_cli(tmp_path, "b")
    # path energy runs only in the --jobs workers
    assert first["energy.path_energy_calls"] > 0
    assert first["kostka.jobs_wait_s"] > 0
    stable = {k: v for k, v in counts(first).items() if k not in RACY}
    assert stable == {k: v for k, v in counts(second).items() if k not in RACY}
    assert sum(first[k] for k in LOOKUPS) == sum(second[k] for k in LOOKUPS)


def test_failures_are_measured_not_fatal(monkeypatch):
    slow = {"id": "slow", "spec": {"kind": "level_zero", "n": 5, "shapes": "2x1,3x1"},
            "answer": {}}
    wrong = dict(TINY, id="wrong", answer={"polynomial": [[0, 7]]})
    workloads.run_in_process(TINY["spec"])  # imports and tables outside the timeout
    monkeypatch.setattr(workloads, "SPEC_TIMEOUT_S", 0.3)

    def execute(entry, pass_index):
        if entry["id"] == "raises":
            raise RuntimeError("boom")
        return workloads.mismatch(entry, workloads.in_process_with_timeout(entry["spec"]))

    specs = [slow, dict(TINY, id="raises"), wrong, TINY]
    samples = workloads.closed_loop(specs, execute, 0, time.process_time, passes=2)
    assert len(samples) == 8
    errors = {s["id"]: s["error"] for s in samples}
    assert "SpecTimeout" in errors["slow"]
    assert "boom" in errors["raises"]
    assert "expected" in errors["wrong"]
    assert errors["tiny"] is None


def test_timings_are_per_spec_medians_scaled_by_the_reference():
    import run
    from reference import REFERENCE_S

    samples = [{"id": "a", "wall": w, "cpu": w / 2, "error": None} for w in (2.0, 1.0, 3.0)]
    samples.append({"id": "b", "wall": 1.5, "cpu": 0.5, "error": None})
    # the reference task took twice its nominal time on average: the host runs at half speed
    reference = [3 * REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    values, _ = run.end_to_end(samples, reference, [0.2, 0.4, 0.3])
    assert values["specs_per_s"] == pytest.approx(2 / (3.5 / 2))
    assert values["largest_spec_s"] == pytest.approx(2.0 / 2)
    assert values["cpu_s"] == pytest.approx(1.5 / 2)
    assert values["setup_s"] == pytest.approx(0.3 / 2)
    with workloads.Reference() as task:
        assert task() > 0


def test_box_size_counts_sum_zero_vectors():
    assert tracing.box_size(2, 3) == 7
    assert tracing.box_size(3, 1) == 7


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "restricted",
                           "--seed", "1", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_jobs_above_nproc():
    proc = run_bench(workloads.ROOT, "--jobs", str(len(os.sched_getaffinity(0)) + 1))
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
