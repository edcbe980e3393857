"""Run the repro command line with the benchmark's tracing wrappers.

    PERF_TRACE_OUT=trace.json python perf/traced.py gateway serve --port 0

Installs :data:`tracing.TARGETS`, then calls ``repro.cli.main`` with the
remaining arguments.  Spans stay in memory and are written to
``$PERF_TRACE_OUT`` when the command returns.  ``SIGUSR1`` clears what has
been recorded so far, so a caller can drop its set-up from the trace.
"""

from __future__ import annotations

import os
import signal
import sys

from tracing import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.reset())
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        out = os.environ.get("PERF_TRACE_OUT")
        if out:
            tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
