"""Time one fresh interpreter's set-up: ``import maxmin``, ``io.load_instance``
and the typed instance's construction.

    PYTHONPATH=src python3 perfbench/setup_probe.py INSTANCE_FILE

Prints one JSON line of seconds: import_s, load_s, construct_s, setup_s.
"""

import json
import sys
import time

t0 = time.perf_counter()
import maxmin  # noqa: E402
from maxmin import io  # noqa: E402

t1 = time.perf_counter()
kind, rows = io.load_instance(sys.argv[1])
t2 = time.perf_counter()
io.instance_from_payload(kind, rows)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "construct_s": t3 - t2,
                  "setup_s": t3 - t0}))
