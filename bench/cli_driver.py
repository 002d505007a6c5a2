"""Traced stand-in for the ``crystalpaths`` command.

    python3 bench/cli_driver.py TRACE_DIR verify --n 3 ... --jobs 2

Installs the layer wrappers, calls ``crystalpaths.cli.main(argv)`` exactly
as the console script does, and writes this invocation's records, merged
with those of its ``--jobs`` workers, to TRACE_DIR/trace.json.  The exit
code and standard output are the command's own.
"""

from __future__ import annotations

import json
import os
import sys

import tracing
import workloads


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(workloads.SRC))
    collector = tracing.install(tracing.Collector(chunk_dir=trace_dir))
    from crystalpaths import cli

    t0 = tracing.clock()
    try:
        code = cli.main(argv)
    finally:
        handler = collector.stat("cli.handler")
        handler[0] += 1
        handler[1] += tracing.clock() - t0
        sys.stdout.flush()
        collector.merge_chunks(pool_used=collector.stat("kostka.jobs_wait")[0] > 0)
        with open(os.path.join(trace_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump(collector.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
