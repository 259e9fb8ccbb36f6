"""One ``bottsam`` command run in-process, with ``cli.main`` timed: the form
of a ``cli`` operation in the traced run's prefix.

Usage: ``python3 perfbench/cli_main.py TRACE ARG...`` with ``TRACE`` 0 or 1
and the arguments of the ``bottsam`` command.  Prints one JSON object: the
exit code, the captured standard output and the seconds spent in
``cli.main``; with ``TRACE`` 1 also the per-layer stats and spans.  The
untraced form gives ``cli.process_s`` (process wall time minus ``main``)
and the base of ``trace_overhead``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from bottsam import cli


def main(trace: bool, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    tr = None
    if trace:  # imported only here, so that the untraced process stays plain
        import tracer

        tr = tracer.Tracer()
    with tr or contextlib.nullcontext(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        returncode = cli.main(argv)
        main_s = time.perf_counter() - t0
    report = tr.export() if tr else {}
    return {"returncode": returncode, "stdout": out.getvalue(), "main_s": main_s, **report}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1] == "1", sys.argv[2:])))
