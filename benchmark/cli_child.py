"""Traced child process for the cli-commands workload.

Usage: python3 benchmark/cli_child.py SPANS_PATH OP_ID MOEBIUS_ARGS...

Imports ``moebius.cli`` (timed as the ``cli.import`` span), installs the span
wrappers, runs ``moebius.cli.main(MOEBIUS_ARGS)`` and writes the spans and
the Mathieu cache counters to SPANS_PATH as JSON.  The exit code is main's.
"""

import time

_IMPORT_START = time.perf_counter_ns()

import moebius.cli  # noqa: E402  (timed: interpreter-level import cost)

_IMPORT_END = time.perf_counter_ns()

import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmark.spans import Installation, Recorder, Span, cache_counters  # noqa: E402


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    recorder = Recorder(thread_prefix=f"{os.getpid()}:")
    recorder.start_op(op_id)
    thread = f"{os.getpid()}:{threading.get_native_id()}"
    recorder.spans.append(Span("cli.import", "cli", _IMPORT_START, _IMPORT_END, -1, op_id, thread))
    installation = Installation(recorder).install()
    try:
        code = moebius.cli.main(argv)
    finally:
        installation.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({
                "spans": [dataclasses.asdict(s) for s in recorder.spans],
                "absent": installation.absent,
                "installed": sorted(installation.installed),
                "caches": cache_counters(),
            }, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
