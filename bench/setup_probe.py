"""Set-up probe: import gnewton and build one workload's inputs in a fresh
interpreter. ``run.py`` times this whole process from outside for the
``setup_s`` metric.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    import gnewton  # noqa: F401
    workloads.build_inputs(workloads.make(sys.argv[1], int(sys.argv[2])))
