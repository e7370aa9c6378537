"""Set-up probe: in a fresh interpreter, build one in-process workload's
program and run a single op on the input given as JSON; print the output as
JSON.

    PYTHONPATH=src python3 perfbench/probe.py fact 20
"""

import json
import sys

from workloads import WORKLOADS

workload = WORKLOADS[sys.argv[1]]()
workload.build()
print(json.dumps(workload.op(json.loads(sys.argv[2]))), flush=True)
