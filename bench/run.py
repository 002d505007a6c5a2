"""Outside-in benchmark of crystalpaths.

    python3 bench/run.py --workload verify_cli --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The workloads (``verify_cli``,
``restricted``, ``level_zero``) are described in bench/README.md and in
``pools.json``.  Each run draws its specs from the workload's pool with the
seed, runs them one at a time in a closed loop, and checks every output
against the exact answers recorded in ``pools.json``.

``--trace 0`` measures and prints the end-to-end metrics.  ``--trace 1``
runs one untraced and one traced pass over the same specs and prints the
per-layer metrics.  The metric names and units are those of BENCHMARK.json;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
import workloads
from reference import REFERENCE_S

# Set-up probes per run, half taken before the timed loop and half after it,
# so that their median is not decided by the host's load in one moment.
SETUP_PROBES = 16
WORKER_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def declared_metrics() -> dict:
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(jobs: int) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "crystalpaths").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": nproc(),
        "jobs": jobs,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# child processes


def worker_cmd(workload: str, seed: int, mode: str, seconds: float = 0, trace: int = 0):
    return [
        sys.executable, str(workloads.BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds), "--trace", str(trace),
    ]


def run_command(cmd, timeout: float):
    """(exit code, stdout, stderr); exit code None after a timeout, when the
    child's whole session is killed."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=workloads.ROOT, env=workloads.subprocess_env(), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    return proc.returncode, out, err


def run_worker(cmd) -> dict:
    code, out, err = run_command(cmd, WORKER_TIMEOUT_S)
    if code != 0:
        raise BenchError("worker failed (exit %s): %s" % (code, err.strip()[-2000:]))
    return json.loads(out.strip().splitlines()[-1])


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from process start until the run's specs and answers are
    loaded and crystalpaths is imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        worker_cmd(workload, seed, "setup"), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=workloads.ROOT, env=workloads.subprocess_env(),
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up probe did not exit")
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError("set-up probe failed: %s" % err.strip()[-2000:])
    return elapsed


# ---------------------------------------------------------------------------
# the CLI workload, driven from this process


class CliRunner:
    """Runs verify specs as ``crystalpaths`` subprocesses, one at a time,
    with a fresh cache directory for every pass over the specs."""

    def __init__(self, run_dir, jobs: int, traced: bool):
        self.run_dir = run_dir
        self.jobs = jobs
        self.traced = traced
        self.outputs: dict[str, dict] = {}
        self.traces: list[dict] = []
        self.startup_s = 0.0
        self.invocations = 0
        self.cache_pass = None

    def cache_dir(self, pass_index: int):
        path = self.run_dir / ("cache-%d" % pass_index)
        if self.cache_pass != pass_index:
            if self.cache_pass is not None:
                shutil.rmtree(self.run_dir / ("cache-%d" % self.cache_pass), ignore_errors=True)
            self.cache_pass = pass_index
        return path

    def __call__(self, entry, pass_index):
        argv = workloads.cli_args(entry["spec"], str(self.cache_dir(pass_index)), self.jobs)
        self.invocations += 1
        if self.traced:
            trace_dir = self.run_dir / ("inv-%d" % self.invocations)
            trace_dir.mkdir()
            cmd = [sys.executable, str(workloads.BENCH / "cli_driver.py"), str(trace_dir)] + argv
        else:
            cmd = [sys.executable, "-m", "crystalpaths.cli"] + argv
        t0 = time.perf_counter()
        code, out, err = run_command(cmd, workloads.SPEC_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if code is None:
            return "%s: timed out after %.0f s" % (entry["id"], workloads.SPEC_TIMEOUT_S)
        if self.traced:
            with open(trace_dir / "trace.json", encoding="utf-8") as fh:
                snap = json.load(fh)
            self.traces.append(snap)
            self.startup_s += wall - snap["stats"]["cli.handler"][1] * 1e-9
        if code != 0:
            return "%s: exit code %d: %s" % (entry["id"], code, err.strip()[-500:])
        output = workloads.cli_output(json.loads(out))
        self.outputs[entry["id"]] = output
        return workloads.mismatch(entry, output)


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for (a
    child's figure includes the children that child waited for)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(samples, reference, setup_times) -> tuple[dict, dict]:
    """The end-to-end metrics.  Timings are scaled to the reference host
    speed (see reference.py); the notes give the raw figures."""
    ok = [s for s in samples if s["error"] is None]
    wall = workloads.per_spec_medians(ok, "wall")
    cpu = workloads.per_spec_medians(ok, "cpu")
    failed = len(samples) - len(ok)
    per_spec = [len([s for s in ok if s["id"] == k]) for k in wall]
    scale = REFERENCE_S / statistics.mean(reference)
    raw = {
        "specs_per_s": len(wall) / sum(wall.values()) if wall else 0.0,
        "largest_spec_s": max(wall.values()) if wall else 0.0,
        "cpu_s": sum(cpu.values()),
        "setup_s": statistics.median(setup_times),
    }
    values = {
        "specs_per_s": raw["specs_per_s"] / scale,
        "largest_spec_s": raw["largest_spec_s"] * scale,
        "cpu_s": raw["cpu_s"] * scale,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": raw["setup_s"] * scale,
        "error_rate": failed / len(samples),
    }
    notes = {
        "specs_per_s": "specs in the draw / sum of per-spec median wall times; %d specs, %d-%d samples each"
        % (len(wall), min(per_spec, default=0), max(per_spec, default=0)),
        "largest_spec_s": "median wall time of the slowest spec",
        "cpu_s": "sum of per-spec median user+sys CPU, children included: one pass",
        "peak_rss_mb": "largest resident set of the run's processes",
        "setup_s": "median of %d set-up probes, half before and half after the timed loop" % len(setup_times),
        "error_rate": "%d failed of %d attempted" % (failed, len(samples)),
    }
    for name, value in raw.items():
        notes[name] += "; unscaled %.6g" % value
    notes["reference"] = "mean of %d runs %.6g s; timings scaled by %.6g s / that = %.6g" % (
        len(reference), statistics.mean(reference), REFERENCE_S, scale)
    return values, notes


def timed_run(args, run_dir) -> tuple[list[dict], list[float]]:
    """The samples of the timed loop and the reference task's times."""
    if args.workload == "verify_cli":
        specs = workloads.draw(workloads.load_pools(), args.workload, args.seed)
        runner = CliRunner(run_dir, args.jobs, traced=False)
        reference = []
        with workloads.Reference() as task:
            samples = workloads.closed_loop(specs, runner, args.seconds, workloads.children_cpu,
                                            before_spec=lambda: reference.append(task()))
        return samples, reference
    result = run_worker(worker_cmd(args.workload, args.seed, "timed", args.seconds))
    return result["samples"], result["reference"]


def traced_run(args, run_dir) -> tuple[list[dict], dict, dict]:
    """One untraced and one traced pass.  Returns all samples, the per-layer
    values and the merged trace snapshot."""
    if args.workload == "verify_cli":
        specs = workloads.draw(workloads.load_pools(), args.workload, args.seed)
        plain = CliRunner(run_dir / "plain", args.jobs, traced=False)
        traced = CliRunner(run_dir / "traced", args.jobs, traced=True)
        plain.run_dir.mkdir()
        traced.run_dir.mkdir()
        untraced_samples = workloads.closed_loop(specs, plain, 0, workloads.children_cpu, passes=1)
        traced_samples = workloads.closed_loop(specs, traced, 0, workloads.children_cpu, passes=1)
        untraced_out, traced_out = plain.outputs, traced.outputs
        snap = tracing.merge_snapshots(traced.traces)
        extra = {"cli.startup_s": traced.startup_s, "cli.invocations": len(traced.traces)}
    else:
        untraced = run_worker(worker_cmd(args.workload, args.seed, "pass", trace=0))
        traced = run_worker(worker_cmd(args.workload, args.seed, "pass", trace=1))
        untraced_samples, traced_samples = untraced["samples"], traced["samples"]
        untraced_out, traced_out = untraced["outputs"], traced["outputs"]
        snap = traced["trace"]
        extra = {"cli.startup_s": 0.0, "cli.invocations": 0}
    for sample in traced_samples:
        if sample["error"] is None and traced_out.get(sample["id"]) != untraced_out.get(sample["id"]):
            sample["error"] = "%s: traced output differs from untraced output" % sample["id"]
    values = tracing.layer_metrics(snap)
    values.update(extra)
    values["cli.handler_s"] = snap["stats"].get("cli.handler", [0, 0])[1] * 1e-9
    plain_wall = sum(s["wall"] for s in untraced_samples)
    values["trace.overhead_ratio"] = (
        sum(s["wall"] for s in traced_samples) / plain_wall if plain_wall else 0.0
    )
    return untraced_samples + traced_samples, values, snap


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Outside-in benchmark of crystalpaths.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=min(2, nproc()),
                        help="--jobs of the verify_cli workload (default: 2, at most nproc)")
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= nproc():
        parser.error("--jobs must lie in 1..nproc (%d)" % nproc())
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        workloads.require_program()
        declared = declared_metrics()
        env = environment(args.jobs)
        run_dir = workloads.RUN_DIR / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        run_dir.mkdir(parents=True)
        try:
            setup_probe(args.workload, args.seed)  # warm-up: compiles .pyc, fills the page cache
            if args.trace:
                samples, values, snap = traced_run(args, run_dir)
                names = declared["per_layer"]
                notes = {"trace.worker_side": snap["worker_side"],
                         "trace.missing": ", ".join(snap["missing"]) or "none"}
                spans_file = workloads.RUN_DIR / ("trace-%s-%d.json" % (args.workload, args.seed))
                with open(spans_file, "w", encoding="utf-8") as fh:
                    json.dump({"env": env, "spans": snap["spans"], "stats": snap["stats"]}, fh)
            else:
                setup_times = [setup_probe(args.workload, args.seed)
                               for _ in range(SETUP_PROBES // 2)]
                samples, reference = timed_run(args, run_dir)
                setup_times += [setup_probe(args.workload, args.seed)
                                for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
                values, notes = end_to_end(samples, reference, setup_times)
                names = declared["end_to_end"]
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (workloads.ProgramMissing, BenchError, OSError, ValueError) as exc:
        sys.stderr.write("benchmark error: %s\n" % exc)
        return 2

    failed = [s for s in samples if s["error"] is not None]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print("env %s" % json.dumps(env, sort_keys=True))
    print("workload %s seed %d trace %d: %d attempted, %d failed"
          % (args.workload, args.seed, args.trace, len(samples), len(failed)))
    for name, value in values.items():
        unit = next((m["unit"] for m in names if m["name"] == name), "ratio")
        print("  %-28s %14.6g %-10s %s" % (name, value, unit, notes.get(name, "")))
    for key, note in notes.items():
        if key not in values:
            print("  %-28s %s" % (key, note))
    for sample in failed[:20]:
        print("  FAILED %s" % sample["error"])
    result = {"correct": not failed, "attempted": len(samples), "failed": len(failed),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
