"""Run the benchmark over several seeds and record one point of the
performance trajectory.

    python3 bench/trajectory.py --label seed

It makes SETS sets of untraced runs, each set one run per seed 1..SEEDS of
every workload in BENCHMARK.json, and then two traced runs of seed 1 per workload.  It writes
``bench/results/<label>.json`` with, per workload, every set's values of
each end-to-end metric with their median, quartiles and spread (quartile
distance / median), the drift of each later set's median from the first
one's and whether it stays within the metric's bound, each per-layer metric
of the traced runs, and whether their counts repeated.  Every run of one
point must report the same environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import workloads

SEEDS = 10
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(workloads.BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError("run failed: %s" % proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0][len("env "):])
    return {"env": env, **json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    envs = []
    names = [w["name"] for w in declared["workloads"]]
    sets = {w: [] for w in names}
    for k in range(SETS):
        for workload in names:
            runs = [run(workload, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
            envs += [r["env"] for r in runs]
            metrics = {}
            for name in runs[0]["metrics"]:
                metrics[name] = summary([r["metrics"][name]["value"] for r in runs])
                metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
                print("set %d %-11s %-16s median %10.5g  spread %.4f  (bound %.2f)"
                      % (k + 1, workload, name, metrics[name]["median"], metrics[name]["spread"],
                         bounds[name]), flush=True)
            sets[workload].append({
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "end_to_end": metrics,
            })
    out = {"label": args.label, "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in names:
        first = sets[workload][0]["end_to_end"]
        drift = {}
        for later in sets[workload][1:]:
            for name, m in later["end_to_end"].items():
                d = (m["median"] - first[name]["median"]) / first[name]["median"]
                drift.setdefault(name, []).append({"drift": d, "within_bound": abs(d) <= bounds[name]})
                print("%-11s %-16s drift of set medians %+.4f  (bound %.2f)"
                      % (workload, name, d, bounds[name]))
        traced = [run(workload, 1, seconds, 1) for _ in range(2)]
        envs += [t["env"] for t in traced]
        layer_values = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
        repeat = {k: layer_values[0][k] == layer_values[1][k]
                  for k, v in layer_values[0].items() if isinstance(v, int)}
        print("%-11s traced counts repeat: %s" % (
            workload, "all" if all(repeat.values()) else
            "not " + ", ".join(k for k, ok in repeat.items() if not ok)))
        out["workloads"][workload] = {
            "sets": sets[workload],
            "set_drift": drift,
            "per_layer": layer_values,
            "counts_repeat": repeat,
        }
    if any(env != envs[0] for env in envs):
        raise RuntimeError("the runs of one point report different environments")
    out["env"] = envs[0]
    path = workloads.BENCH / "results" / ("%s.json" % args.label)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", path.relative_to(workloads.ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
