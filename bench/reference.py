"""A fixed task that gauges how fast the host runs Python at the moment.

    python3 bench/reference.py        # then one line on stdin per run

It runs the task once to warm up, then once for every line it reads, and
answers each with the seconds that run took; it exits at the end of input.

Other tenants of a shared host slow its cores by up to 2.5x for minutes at a
time, and no statistic inside one run can tell that slowdown from a slower
program.  So the timed loop asks this process for one run of the task
before every spec, outside the spec's timing, and the runner scales its
timings by REFERENCE_S / (the task's mean time in the run): they read as
seconds on a host that runs the task in REFERENCE_S.  The task runs in a
process of its own, so the program's heap and garbage collector do not
touch its time; it uses only the standard library and never changes with
the program, so a change to the program moves the scaled figures by the
same factor as the raw ones.  It does what the program's inner loops do
(Python calls, tuple keys, dict lookups and short-lived tuples) on a
working set of a few thousand keys.
"""

from __future__ import annotations

import random
import sys
import time

# About the task's mean time on an idle 2-core x86 VM (Intel Xeon, Python 3.11).
REFERENCE_S = 0.066


def task(steps: int = 60000) -> int:
    rng = random.Random(1)
    table: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for i in range(steps):
        key = (rng.randrange(16), rng.randrange(16), rng.randrange(16))
        row = table.get(key, ())
        table[key] = row + (i,) if len(row) < 4 else (i,)
    return len(sorted(table))


def main() -> int:
    task()  # warm-up: the timed runs find the allocator's arenas in place
    for _ in sys.stdin:
        t0 = time.perf_counter()
        task()
        sys.stdout.write("%r\n" % (time.perf_counter() - t0))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
