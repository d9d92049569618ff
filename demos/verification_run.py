"""Exhaustive small-scale verification of both sharp bounds.

window_search proves, for one (k, delta, q) cell, that no nondecreasing
tuple with at most k terms has a reciprocal sum strictly inside the open
window (sharp bound, k - delta); tuples landing exactly on the sharp bound
are collected as equality witnesses.  max_lcm_search enumerates the whole
deficiency class and compares the largest lcm against the predicted bound.
sweep runs both over a grid and merges the reports.
"""

import json
from fractions import Fraction

from egyfrac import (
    max_lcm_search,
    report_to_dict,
    sweep,
    window_search,
)

# one cell, spelled out
report = window_search(3, 2, 1)
print("window_search(k=3, delta=2, q=1)")
print("  passed:", report.passed)
print("  nodes searched:", report.stats.nodes)
for w in report.equality_witnesses:
    print(f"  witness {w.denominators} family {w.family}")
print("  window:", report.parameters["sharp_sum_bound"], "to", report.parameters["window_top"])
print()

report = max_lcm_search(3, 2, 1)
print("max_lcm_search(k=3, delta=2, q=1)")
print("  passed:", report.passed)
print("  class size:", report.details["class_size"])
print("  max lcm:", report.details["max_lcm"], "maximizers:", report.details["maximizers"])
print()

# a grid: every delta from -1 to 2 in halves, canonical q, k up to 4
report = sweep(k_max=4, deltas=tuple(Fraction(j, 2) for j in range(-2, 5)))
print(f"sweep over {report.parameters['cells']} cells: passed={report.passed}, "
      f"{report.stats.nodes} nodes, {len(report.equality_witnesses)} equality witnesses")

families = sorted({w.family for w in report.equality_witnesses})
print("families seen:", ", ".join(families))
print()

# reports serialize to plain dicts; large integers become decimal strings
print(json.dumps(report_to_dict(window_search(2, Fraction(-1, 2), 2)), indent=2))
