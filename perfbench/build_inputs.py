#!/usr/bin/env python3
"""Write one workload's input files and their manifest into a directory.

    python3 perfbench/build_inputs.py WORKLOAD SEED SIZE DIR

``run.py`` runs this in a fresh interpreter and times it as ``setup_s``:
interpreter start, import and input building.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from workloads import build_inputs, get_workload  # noqa: E402

if __name__ == "__main__":
    name, seed, size, work = sys.argv[1:]
    manifest = build_inputs(get_workload(name, size), int(seed), Path(work))
    (Path(work) / "manifest.json").write_text(json.dumps(manifest))
