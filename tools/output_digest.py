#!/usr/bin/env python3
"""Print one SHA-256 per (command, scenario) of the CLI's output bytes.

    python3 tools/output_digest.py [--root CHECKOUT] [--scenarios DIR]

For every scenarios/*.json file this runs each command below as
``python3 -m kpii_stem.cli`` with the package taken from CHECKOUT/src
(default: the checkout holding this file) and prints

    <sha256 of the output>  exit=<code>  stderr=<bytes>  <command>  <scenario>

where the output is stdout, or for ``sample``, which needs ``--out``, the file
it wrote.  ``section-arm`` cuts along the first arm that scenario's ``build``
output lists, so its ``u_arm`` column is covered too; ``section-badlabel``
cuts along the malformed label ``1+``, which names no arm, so its line records
the exit code and the stderr bytes of the refusal.  A command listed in
OVERRIDES runs on a temporary copy of the scenario with those keys replaced:
``stem-xi0`` with the phase constants STEM_XI0, so the closed-form endpoints'
phase-constant shift is covered, and ``build-second`` and ``verify-second``
on the second branch.  ``verify-residual`` runs the residual suite alone, so
its bytes are compared apart from the other suites'.  ``sample-csv`` and
``sample-json`` fit in one kernel call and one formatting chunk;
``sample-csv-large`` and ``sample-json-large`` sample a 301 x 297 grid, which
spans six kernel calls and several written blocks each, so they see the order
in which the chunks are written.

Two checkouts whose listings are equal wrote the same bytes for every
command, so diffing the output of two runs (for example a commit and its
parent, each checked out on its own) shows whether a change kept the CLI's
outputs.  The scenarios default to CHECKOUT/scenarios; --scenarios compares
two checkouts on one set of files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

STEM_TIMES = "--t=-20,-5,-1,1,5,20"
SAMPLE_GRID = "--grid=-20,20,41,-15,15,31"
SAMPLE_GRID_LARGE = "--grid=-30,30,301,-30,30,297"
STEM_XI0 = [0.3, -0.7, 0.45]

# (label, arguments after --scenario)
COMMANDS = [
    ("build", ["build"]),
    ("stem-csv-one-t", ["stem", "--t=5"]),
    ("stem-csv-times", ["stem", STEM_TIMES]),
    ("stem-json-one-t", ["stem", "--t=5", "--format", "json"]),
    ("stem-json-times", ["stem", STEM_TIMES, "--format", "json"]),
    ("stem-xi0", ["stem", "--t=-20,-5,5,20", "--format", "json"]),
    ("section-perp", ["section", "--t=10", "--line", "perp"]),
    ("section-arm", ["section", "--t=10", "--line={arm}"]),
    ("section-badlabel", ["section", "--t=10", "--line=1+"]),
    ("verify-all", ["verify", "--suite", "all"]),
    ("verify-residual", ["verify", "--suite", "residual"]),
    ("sample-csv", ["sample", "--t=0.7", SAMPLE_GRID, "--out", "{out}"]),
    ("sample-json", ["sample", "--t=0.7", SAMPLE_GRID, "--format", "json", "--out", "{out}"]),
    ("build-second", ["build"]),
    ("verify-second", ["verify", "--suite", "all"]),
    ("sample-csv-large", ["sample", "--t=1.3", SAMPLE_GRID_LARGE, "--out", "{out}"]),
    ("sample-json-large", ["sample", "--t=1.3", SAMPLE_GRID_LARGE, "--format", "json",
                           "--out", "{out}"]),
]
# label -> the keys that its temporary copy of the scenario replaces
OVERRIDES = {
    "stem-xi0": {"xi0": STEM_XI0},
    "build-second": {"branch": "second"},
    "verify-second": {"branch": "second"},
}


def main() -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=here, help="checkout whose src/ is run")
    ap.add_argument("--scenarios", type=Path, help="directory of scenario files")
    args = ap.parse_args()
    root = args.root.resolve()
    scenarios = sorted((args.scenarios or root / "scenarios").glob("*.json"))
    if not (root / "src" / "kpii_stem" / "cli.py").is_file() or not scenarios:
        print(f"error: no kpii_stem package or scenarios under {root}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    builds = {}  # scenario -> stdout of its build command, which runs first
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for label, argv in COMMANDS:
            for path in scenarios:
                out.unlink(missing_ok=True)
                arm = json.loads(builds[path])["arms"][0]["label"] if label == "section-arm" else ""
                scenario = path
                if label in OVERRIDES:
                    scenario = Path(tmp) / path.name
                    scenario.write_text(json.dumps(dict(json.loads(path.read_text()),
                                                        **OVERRIDES[label])))
                cmd = [sys.executable, "-m", "kpii_stem.cli", argv[0], "--scenario", str(scenario),
                       *(str(out) if a == "{out}" else a.replace("{arm}", arm) for a in argv[1:])]
                res = subprocess.run(cmd, capture_output=True, env=env, cwd=root, check=False)
                if label == "build":
                    builds[path] = res.stdout
                data = out.read_bytes() if "{out}" in argv and out.exists() else res.stdout
                print(f"{hashlib.sha256(data).hexdigest()}  exit={res.returncode}  "
                      f"stderr={len(res.stderr)}  {label}  {path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
