"""Run ``chainuq analyze`` in this process with layer spans recorded.

Usage: python3 perfbench/traced_cli.py SPANS_JSON analyze [analyze flags...]

Times ``import chainuq.cli`` as the ``cli.import`` span, wraps the names the
CLI looks up at call time, runs ``chainuq.cli.main`` as the ``cli.main``
span, writes the spans to SPANS_JSON and exits with the CLI's exit code.
"""

import sys

from tracing import Tracer

tracer = Tracer()
sid = tracer.begin("cli.import")
import chainuq.cli as cli  # noqa: E402

tracer.end(sid)
tracer.install(cli)
sid = tracer.begin("cli.main")
try:
    code = cli.main(sys.argv[2:])
finally:
    tracer.end(sid)
    tracer.dump(sys.argv[1])
sys.exit(code)
