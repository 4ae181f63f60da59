"""One fresh-interpreter set-up: import the package and CLI, build the inputs.

Run as ``python3 setup_probe.py '<json>'`` where the JSON names the source
directory and either scenario files or (case, k, p3, branch) draws to build.
Prints one JSON line with CLOCK_MONOTONIC timestamps (``time.perf_counter``
shares that clock across processes on Linux), so the parent can measure from
before it spawned this process.
"""

import json
import sys
import time

start = time.perf_counter()
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import kpii_stem  # noqa: E402

imported = time.perf_counter()

import kpii_stem.cli  # noqa: E402

for path in spec.get("scenarios", ()):
    kpii_stem.cli.load_scenario(path).build()
for case, k, p3, branch in spec.get("draws", ()):
    kpii_stem.build_case(case, k, p3, branch=branch)
end = time.perf_counter()

print(json.dumps({"start": start, "import_kpii_stem_s": imported - start, "end": end}))
