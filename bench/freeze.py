"""Write expected.json: the frozen outputs of every search cell.

For each cell of the window and lcm-class grids it records the equality
witnesses (denominators and family, in traversal order) and, for lcm
cells, the maximum lcm. Node counts and class sizes are left out on
purpose: they are per-layer metrics, and a pruning change may move them
without any output changing. The file was written at the commit that added
the benchmark; rerun this only to add cells, never to absorb a changed
output.

    python3 bench/freeze.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    frozen = {}
    for workload in ("window", "lcm-class"):
        frozen[workload] = {
            workloads.cell_key(*cell): workloads.search_summary(
                workloads.search_output(workload, *cell))
            for cell in workloads.cells(workload)
        }
    workloads.EXPECTED_FILE.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
