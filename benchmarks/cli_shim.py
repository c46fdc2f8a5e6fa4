"""Traced stand-in for ``python -m lowprev.cli``.

Usage: ``python benchmarks/cli_shim.py SPANS_PATH ARGS...``.  Imports the
CLI, installs the benchmark's span wrappers, runs ``lowprev.cli.main``
on ARGS and writes the recorded spans to SPANS_PATH as JSON, also when
``main`` raises.  Standard output and the exit code are the CLI's own.
"""

import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

tracer = Tracer()
span = tracer.open("cli.import")
import lowprev.cli  # noqa: E402

tracer.close(span)
tracer.install()
code = 1
try:
    span = tracer.open("cli.main")
    try:
        code = lowprev.cli.main(sys.argv[2:])
    finally:
        while tracer.stack:
            tracer.close(tracer.stack[-1])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
sys.stdout.flush()
sys.exit(code)
