"""Check that the test suite kills every checked-in mutant.

Each entry of MUTANTS names a file, a text that occurs in it exactly once,
the text that replaces it, and the tests that must fail once it is
replaced (pytest node ids; an id without parameters stands for all of its
parametrized cases, and one failing case is enough). The script copies
src/, tests/, README.md and pyproject.toml into a temporary directory, runs
every named test there once unmutated (all must pass), then applies each
mutant alone and runs its tests. It exits 1 if a mutant no longer applies,
survives any of its tests, or stops pytest from running them (a
collection error, say); in that last case it prints pytest's output.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


ORACLE = "src/egyfrac/oracle.py"
EGYPTIAN = "src/egyfrac/egyptian.py"
BOUNDS = "src/egyfrac/bounds.py"
CLI = "src/egyfrac/cli.py"
T_ORACLE = "tests/test_oracle.py::"
T_CLI = "tests/test_cli.py::"
T_BOUNDS = "tests/test_bounds.py::"
T_EGYPTIAN = "tests/test_egyptian.py::"
_LCM_FAMILIES = """\
        if d.s == 2 and d.r > 1:
            return EqualityCase(EqualityFamily.TWO_TERM_LCM, t)
        return EqualityCase(EqualityFamily.SYLVESTER_LCM, t)

"""

MUTANTS = [
    # the oracle's failure path: each claim and each way it is printed
    Mutant("sweep-skips-extremal-check", ORACLE,
           "        if found != wanted:", "        if False:",
           (T_ORACLE + "test_sweep_reports_witnesses_off_the_extremal_tuple",)),
    Mutant("sweep-skips-unclassified-check", ORACLE,
           '            if w.family == "NONE":', "            if False:",
           (T_ORACLE + "test_sweep_reports_unclassified_witnesses",
            T_CLI + "test_oracle_prints_each_counterexample")),
    Mutant("json-claim-key-renamed", "src/egyfrac/report.py",
           '"claim": c.claim,', '"message": c.claim,',
           (T_CLI + "test_oracle_prints_each_counterexample",)),
    Mutant("text-counterexample-reworded", CLI,
           'f"counterexample: {c.claim} values=', 'f"counterexample {c.claim} values=',
           (T_CLI + "test_oracle_prints_each_counterexample",)),
    Mutant("window-prefix-claim", ORACLE,
           'else "prefix completable into forbidden window"',
           'else "sum inside forbidden window"',
           (T_ORACLE + "test_window_names_each_prefix_counterexample",)),
    # budgets
    Mutant("window-budget-off-by-one", ORACLE,
           "        if nodes > budget:\n            break\n        if num * top_den",
           "        if nodes >= budget:\n            break\n        if num * top_den",
           (T_ORACLE + "test_window_budget_exhaustion",)),
    Mutant("sweep-budget-off-by-one", ORACLE,
           "exceeded = nodes >= budget", "exceeded = nodes > budget",
           (T_ORACLE + "test_report_json_is_pinned[sweep-budget]",)),
    # the lcm search and its square check
    Mutant("lcm-floor-plus-one", ORACLE,
           "if lcm_value > floor_bound:", "if lcm_value > floor_bound + 1:",
           (T_ORACLE + "test_max_lcm_bound_between_integers",)),
    Mutant("lcm-integral-check-dropped", ORACLE,
           "if integral and lcm_value == floor_bound:", "if lcm_value == floor_bound:",
           (T_ORACLE + "test_max_lcm_bound_between_integers",)),
    Mutant("square-check-divisibility-first", ORACLE,
           "    if q * scaled_sum % lcm_value:\n",
           "    if lcm_value % q:\n"
           '        raise ValueError(f"q={q} does not divide the tuple lcm {lcm_value}")\n'
           "    if q * scaled_sum % lcm_value:\n",
           (T_ORACLE + "test_lcm_square_check",)),
    Mutant("square-check-membership-without-q", ORACLE,
           "    if q * scaled_sum % lcm_value:", "    if scaled_sum % lcm_value:",
           (T_ORACLE + "test_lcm_square_check",
            T_ORACLE + "test_max_lcm_walker_matches_reference")),
    # the search's members, each extended from the prefix it closes
    Mutant("head-sum-not-rescaled", ORACLE,
           "lcm_value // head_lcm * head_sum", "head_sum",
           (T_ORACLE + "test_max_lcm_walker_matches_reference",)),
    Mutant("head-product-dropped", ORACLE,
           "product = head_prod * a * b", "product = a * b",
           (T_ORACLE + "test_max_lcm_walker_matches_reference",)),
    Mutant("head-lcm-drops-first-entry", ORACLE,
           "head_lcm = math.lcm(*prefix)", "head_lcm = math.lcm(*prefix[1:])",
           (T_ORACLE + "test_max_lcm_walker_matches_reference",)),
    Mutant("head-sum-off", ORACLE,
           "head_sum = head_lcm // den * num", "head_sum = head_lcm // den * (num + 1)",
           (T_ORACLE + "test_max_lcm_walker_matches_reference",)),
    Mutant("closing-budget-cut-off-by-one", ORACLE,
           "tails = tails[:budget - nodes]", "tails = tails[:budget - nodes + 1]",
           (T_ORACLE + "test_max_lcm_budget_cuts_through_a_closing",
            T_ORACLE + "test_max_lcm_budget_counts_walker_nodes")),
    # the walker and its two-slot closing
    Mutant("walk-level-pop", EGYPTIAN,
           "            stack.pop()\n            prefix.pop()\n",
           "            stack.pop()\n",
           (T_ORACLE + "test_walk_matches_the_recursive_walk",
            T_ORACLE + "test_window_walker_matches_reference")),
    Mutant("walk-stops-inexact-targets", EGYPTIAN,
           "stop_at = 2 if (a, b) == (c, d) else 0", "stop_at = 2",
           (T_ORACLE + "test_walk_matches_the_recursive_walk",
            T_ORACLE + "test_window_frozen_cells")),
    Mutant("two-term-scan-end-off-by-one", EGYPTIAN,
           "range(p * lo - q, p * hi - q + 1, p)", "range(p * lo - q, p * hi - q, p)",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_ORACLE + "test_walk_matches_the_recursive_walk")),
    Mutant("two-term-scan-ignores-prev", EGYPTIAN,
           "range(p * lo - q, p * hi - q + 1, p)",
           "range(p * (q // p + 1) - q, p * hi - q + 1, p)",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_ORACLE + "test_walk_matches_the_recursive_walk")),
    Mutant("two-term-scan-starts-late", EGYPTIAN,
           "range(p * lo - q, p * hi - q + 1, p)", "range(p * lo - q + p, p * hi - q + 1, p)",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_ORACLE + "test_walk_matches_the_recursive_walk")),
    Mutant("iter-exact-drops-closings", EGYPTIAN,
           "            for pair in close_pairs(prefix, side, den, x):\n"
           "                yield head + pair\n",
           "            pass\n",
           (T_EGYPTIAN + "test_enumerate_frozen_examples",
            T_EGYPTIAN + "test_iter_exact_matches_brute_force")),
    Mutant("two-term-prev-bound-dropped", EGYPTIAN,
           "for x in divisors[bisect.bisect_left(divisors, prev * p - q):]",
           "for x in divisors",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_EGYPTIAN + "test_two_term_pairs_match_the_divisor_method")),
    Mutant("two-term-congruence-dropped", EGYPTIAN,
           "        if (x + q) % p == 0\n", "",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_ORACLE + "test_max_lcm_walker_matches_reference")),
    Mutant("two-term-per-prime-sort-dropped", EGYPTIAN,
           "divisors = sorted(grown)", "divisors = grown",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_ORACLE + "test_max_lcm_walker_matches_reference")),
    Mutant("two-term-divisors-of-q", EGYPTIAN,
           "for _ in range(2 * e):", "for _ in range(e):",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_ORACLE + "test_max_lcm_walker_matches_reference")),
    Mutant("two-term-order-reversed", EGYPTIAN,
           "for x in divisors[bisect.bisect_left(divisors, prev * p - q):]",
           "for x in divisors[bisect.bisect_left(divisors, prev * p - q):][::-1]",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_EGYPTIAN + "test_two_term_pairs_match_the_divisor_method")),
    # extremal patterns and classification
    Mutant("pattern-builds-before-divisibility", BOUNDS,
           "        if num % d.r:\n            return None\n"
           "        out.append(num // d.r)\n    return tuple(out)",
           "        out.append(num)\n"
           "    if any(num % d.r for num in out[k - d.s:]):\n        return None\n"
           "    return tuple(out[:k - d.s]) + tuple(num // d.r for num in out[k - d.s:])",
           (T_BOUNDS + "test_extremal_tuples_stop_at_the_first_entry_r_fails_to_divide",)),
    Mutant("classify-closings-swapped", BOUNDS,
           "t == _pattern(k, d, 0):\n" + _LCM_FAMILIES + "    if t == _pattern(k, d, 1):",
           "t == _pattern(k, d, 1):\n" + _LCM_FAMILIES + "    if t == _pattern(k, d, 0):",
           (T_BOUNDS + "test_classify_gap_families",
            T_BOUNDS + "test_classify_lcm_families")),
    Mutant("classify-delta-guard-dropped", BOUNDS,
           "if delta >= 0 and t == _pattern(k, d, 0):", "if t == _pattern(k, d, 0):",
           (T_BOUNDS + "test_classify_gap_families",
            T_BOUNDS + "test_every_tagged_tuple_sums_to_its_familys_value")),
    # cmd_extremal takes a matched family's sum from the family
    Mutant("extremal-sums-its-tuple", CLI,
           "    if family is EqualityFamily.NONE:\n        total = tuple_sum(t)",
           "    if True:\n        total = tuple_sum(t)",
           (T_CLI + "test_extremal_sums_its_tuple_once",)),
    Mutant("extremal-gap-sum-from-class", CLI,
           "    else:\n        total = sharp_sum_bound(args.k, args.delta, q)",
           "    else:\n        total = args.k - args.delta",
           (T_CLI + "test_extremal_sums_its_tuple_once[gap]",)),
]


def _failed_ids(output: str) -> list[str]:
    return [line.split()[1] for line in output.splitlines() if line.startswith("FAILED ")]


def _run(copy: Path, tests) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout + proc.stderr


def _survivors(tests, output: str) -> list[str]:
    failed = _failed_ids(output)
    return [t for t in tests
            if not any(f == t or f.startswith(t + "[") for f in failed)]


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            else:
                shutil.copy2(src, copy / name)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code, output = _run(copy, tests)
        if code != 0:
            print(output)
            print("unmutated copy fails the named tests", file=sys.stderr)
            return 1
        for m in MUTANTS:
            target = copy / m.path
            original = target.read_text()
            if original.count(m.old) != 1:
                print(f"{m.name}: text occurs {original.count(m.old)} times in {m.path}")
                bad += 1
                continue
            target.write_text(original.replace(m.old, m.new))
            t0 = time.perf_counter()
            try:
                code, output = _run(copy, m.tests)
            except subprocess.TimeoutExpired:
                code, output = None, ""
            finally:
                target.write_text(original)
            seconds = time.perf_counter() - t0
            if code is None:
                verdict = f"TIMED OUT after {TIMEOUT_S} s"
            elif code in (0, 1):
                survived = _survivors(m.tests, output)
                verdict = f"SURVIVED {survived}" if survived else "killed"
            else:
                print(output)
                verdict = f"STOPPED THE TEST RUN (pytest exit {code})"
            print(f"{m.name}: {verdict} ({seconds:.1f} s)", flush=True)
            bad += verdict != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
