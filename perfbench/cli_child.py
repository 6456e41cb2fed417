"""Traced stand-in for ``python -m exactplane.cli``, used by the traced pass of
the cli-oneshot workload.

Usage: ``cli_child.py spans|fractions <exactplane arguments...>``.  It times
``import exactplane.cli``, runs ``main`` on the arguments with every layer
boundary wrapped (``fractions`` also counts Fraction operations), and
appends one line to stderr: the trace mark followed by a JSON record of the
import time, the span summary and the spans.  Stdout and the exit code are
the CLI's own.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

start = time.perf_counter_ns()
import exactplane.cli as cli  # noqa: E402  (the import is what is timed)

import_ns = time.perf_counter_ns() - start

import json  # noqa: E402

import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install(count_fractions=sys.argv[1] == "fractions")
try:
    code = tracer.run_op(0, cli.main, sys.argv[2:])
except SystemExit as exc:
    code = exc.code
finally:
    tracer.uninstall()
record = {"import_ns": import_ns, "summary": tracer.summary(), "spans": tracer.export()}
sys.stdout.flush()
sys.stderr.write("\n" + spans.TRACE_MARK + json.dumps(record) + "\n")
sys.exit(code)
