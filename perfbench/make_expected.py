"""Regenerate the stored outputs of every workload's check op.

    python3 perfbench/make_expected.py

Runs each fixed check op with the package in ../src and writes
expected/<workload>.json. Run it only when a change to the outputs is
intended, and say why in the change that commits the new files.
"""

import json
import platform
import sys

import numpy as np

from run import PACKAGE, SRC, import_package
from workloads import EXPECTED_DIR, OUT_DIR, WORKLOADS, expected_path


def main():
    sys.path.insert(0, str(SRC))
    pkg = import_package()
    EXPECTED_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        problems, drift, stored = workload.verify(pkg, None)
        if problems:
            raise SystemExit(f"{workload.name}: {problems}")
        stored["made_with"] = {"package": f"{PACKAGE} {pkg.__version__}",
                               "numpy": np.__version__,
                               "python": platform.python_version(),
                               "isometry_drift.max": drift}
        with open(expected_path(workload.name), "w") as handle:
            json.dump(stored, handle)
            handle.write("\n")
        print(f"{workload.name}: drift {drift:.3e}")


if __name__ == "__main__":
    main()
