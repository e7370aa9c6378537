"""Run `gendispatch serve --port 0` with span wrappers installed, and write
the span totals to the given file when the server is interrupted.

    PYTHONPATH=src:perfbench python3 -u perfbench/traced_server.py SPANS.json
"""

import sys

import spans
from gendispatch import cli

tracer = spans.install()
try:
    status = cli.main(["serve", "--port", "0"])
finally:
    tracer.dump(sys.argv[1])
sys.exit(status)
