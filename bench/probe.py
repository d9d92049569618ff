"""Set-up probe: one fresh interpreter doing a workload's set-up.

Imports egyfrac (timed on its own), builds the workload's inputs from the
seed, runs the warm-up, then prints one JSON line and exits. run.py times
it from launch to that line, which is the moment a first timed op could
start.

    python3 bench/probe.py --workload query --seed 1
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    t0 = time.perf_counter()
    import egyfrac.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads
    workloads.build(args.workload, args.seed)
    workloads.warm_up(args.workload)
    print(json.dumps({"import_s": import_s}), flush=True)


if __name__ == "__main__":
    main()
