"""In-process half of the benchmark: one library process per run.

    python3 bench/worker.py --workload restricted --seed 1 --mode timed --seconds 20

Modes:

* ``setup``: import crystalpaths, load the pool and its answers, draw the
  run's specs, print ``ready`` and exit.  The runner times this as set-up.
* ``timed``: set up, then run the closed loop for ``--seconds`` and print
  the samples and the reference task's times as one JSON line.
* ``pass``: set up, then run exactly one pass, traced with ``--trace 1``,
  and print the samples, the outputs and the trace snapshot as one JSON line.

It also serves the CLI workload's set-up probe, since that set-up is the same.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads


def setup(workload: str, seed: int) -> list[dict]:
    sys.path.insert(0, str(workloads.SRC))
    import crystalpaths  # noqa: F401
    import crystalpaths.cli  # noqa: F401

    return workloads.draw(workloads.load_pools(), workload, seed)


def timed(specs, seconds: float) -> dict:
    def execute(entry, pass_index):
        return workloads.mismatch(entry, workloads.in_process_with_timeout(entry["spec"]))

    reference = []
    with workloads.Reference() as task:
        samples = workloads.closed_loop(specs, execute, seconds, time.process_time,
                                        before_spec=lambda: reference.append(task()))
    return {"samples": samples, "reference": reference}


def one_pass(specs, traced: bool) -> dict:
    """One pass over the specs; with ``traced``, under the layer wrappers."""
    collector = None
    if traced:
        import tracing

        collector = tracing.install(tracing.Collector())
    outputs = {}

    def execute(entry, pass_index):
        if collector is None:
            out = workloads.in_process_with_timeout(entry["spec"])
        else:
            with collector.span("spec"):
                out = workloads.in_process_with_timeout(entry["spec"])
        outputs[entry["id"]] = out
        return workloads.mismatch(entry, out)

    samples = workloads.closed_loop(specs, execute, 0, time.process_time, passes=1)
    return {
        "samples": samples,
        "outputs": outputs,
        "trace": collector.snapshot() if collector else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "pass"))
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    specs = setup(args.workload, args.seed)
    if args.mode == "setup":
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    if args.mode == "timed":
        result = timed(specs, args.seconds)
    else:
        result = one_pass(specs, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
