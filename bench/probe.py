"""Set-up probe: one fresh interpreter imports quivermod.cli and builds a
workload's inputs, then exits. The runner times the whole process.

    python3 bench/probe.py WORKLOAD SEED
"""
import json
import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import quivermod.cli  # noqa: F401  (what every CLI call imports)
    t1 = time.perf_counter()
    import workloads
    workloads.build_rounds(sys.argv[1], int(sys.argv[2]))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


if __name__ == "__main__":
    main()
