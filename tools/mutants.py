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
SYLVESTER = "src/egyfrac/sylvester.py"
REPORT = "src/egyfrac/report.py"
MAJORIZATION = "src/egyfrac/majorization.py"
RATIONALS = "src/egyfrac/rationals.py"
GEOMETRY = "src/egyfrac/geometry.py"
T_ORACLE = "tests/test_oracle.py::"
T_CLI = "tests/test_cli.py::"
T_BOUNDS = "tests/test_bounds.py::"
T_EGYPTIAN = "tests/test_egyptian.py::"
T_SYLVESTER = "tests/test_sylvester.py::"
T_MAJORIZATION = "tests/test_majorization.py::"
T_RATIONALS = "tests/test_rationals.py::"
T_GEOMETRY = "tests/test_geometry.py::"
_LCM_FAMILIES = """\
        if s == 2 and r > 1:
            return EqualityFamily.TWO_TERM_LCM
        return EqualityFamily.SYLVESTER_LCM
"""

# a walk's yield and the opening of its level, and the same walk with each
# level opened before its prefix is yielded: the same yields, but the root's
# first yield waits on its children's range
_WALK_EXPANSION = """\
        yield prefix, slots, side, num, den
        if side < 0 and slots and slots != stop_at:
            # position_range's bounds, with room cap - num/den and need
            # low - num/den = -side/(b*den)
            lo = -(d * den // (num * d - c * den))
            if lo < m:
                lo = m
            hi = slots * b * den // -side
            if lo <= hi:
                if slots > 1:
                    # the first child at once; the level keeps the next
                    prefix.append(lo)
                    stack.append([lo + 1, hi, num, den])
"""
_WALK_OPENS_BEFORE_YIELD = """\
        if side < 0 and slots and slots != stop_at:
            lo = -(d * den // (num * d - c * den))
            if lo < m:
                lo = m
            hi = slots * b * den // -side
            if slots > 1 and lo <= hi:
                stack.append([lo + 1, hi, num, den])
        yield prefix, slots, side, num, den
        if side < 0 and slots and slots != stop_at:
            if lo <= hi:
                if slots > 1:
                    prefix.append(lo)
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
    Mutant("json-tuple-unconverted", REPORT,
           "type(value) in (tuple, list)", "type(value) is list",
           (T_ORACLE + "test_report_json_is_pinned[window]",
            T_CLI + "test_oracle_prints_each_counterexample",
            T_CLI + "test_greedy_json_envelope")),
    # report.wire is the one JSON rule: ints inside a tuple or list become
    # decimal strings, and a count, a modulus or a row number stays a number
    Mutant("wire-keeps-listed-ints", REPORT,
           "[str(v) if type(v) is int else wire(v) for v in value]",
           "[wire(v) for v in value]",
           (T_ORACLE + "test_report_json_is_pinned[window]",
            T_CLI + "test_greedy_json_envelope",
            T_CLI + "test_each_printed_integer_is_converted_once[split]")),
    Mutant("wire-stringifies-counts", REPORT,
           "v if type(v) in _AS_IS else wire(v)",
           "str(v) if type(v) is int else v if type(v) in _AS_IS else wire(v)",
           (T_ORACLE + "test_report_json_is_pinned[window]",
            T_CLI + "test_greedy_json_envelope",
            T_CLI + "test_sylvester_table")),
    Mutant("text-counterexample-reworded", CLI,
           'f"counterexample: {c.claim} values=', 'f"counterexample {c.claim} values=',
           (T_CLI + "test_oracle_prints_each_counterexample",)),
    Mutant("window-prefix-claim", ORACLE,
           'else "prefix completable into forbidden window"',
           'else "sum inside forbidden window"',
           (T_ORACLE + "test_window_names_each_prefix_counterexample",)),
    Mutant("window-claims-swapped", ORACLE,
           '"boundary prefix completable into forbidden window" if not side\n'
           '            else "prefix completable into forbidden window" if slots',
           '"prefix completable into forbidden window" if not side\n'
           '            else "boundary prefix completable into forbidden window" if slots',
           (T_ORACLE + "test_window_names_each_prefix_counterexample",)),
    # the grid: each delta's q range ends at N; the ceiling on listed terms,
    # and greedy's integer part
    Mutant("all-upto-drops-last-q", ORACLE,
           "(base if limit is None else limit) + 1", "(base + 1 if limit is None else limit)",
           (T_ORACLE + "test_sweep_runs_its_all_upto_grid_in_order[multiple]",)),
    Mutant("term-ceiling-dropped", EGYPTIAN,
           "    if count > MAX_TERMS:\n", "    if False:\n",
           (T_EGYPTIAN + "test_greedy_refuses_x_past_the_term_ceiling",
            T_BOUNDS + "test_extremal_tuples_refuse_k_past_the_term_ceiling")),
    Mutant("greedy-drops-ones", EGYPTIAN,
           "out = [1] * ones", "out = []",
           (T_EGYPTIAN + "test_greedy_frozen_examples",)),
    Mutant("greedy-bit-ceiling-dropped", EGYPTIAN,
           "        if 2 * den.bit_length() > MAX_BITS:\n", "        if False:\n",
           (T_EGYPTIAN + "test_greedy_refuses_a_remainder_past_the_bit_ceiling",)),
    # where the ceiling sits, and sweep's own refusals and mismatch tuple:
    # operator mutants that an automatic sweep found surviving
    Mutant("greedy-bit-ceiling-tripled", EGYPTIAN,
           "if 2 * den.bit_length() > MAX_BITS:", "if 3 * den.bit_length() > MAX_BITS:",
           (T_EGYPTIAN + "test_greedy_refuses_a_remainder_past_the_bit_ceiling",)),
    Mutant("greedy-bit-ceiling-halved", EGYPTIAN,
           "if 2 * den.bit_length() > MAX_BITS:", "if 1 * den.bit_length() > MAX_BITS:",
           (T_EGYPTIAN + "test_greedy_refuses_a_remainder_past_the_bit_ceiling",)),
    Mutant("greedy-bit-ceiling-inclusive", EGYPTIAN,
           "if 2 * den.bit_length() > MAX_BITS:", "if 2 * den.bit_length() >= MAX_BITS:",
           (T_EGYPTIAN + "test_greedy_refuses_a_remainder_past_the_bit_ceiling",)),
    Mutant("q-mode-reads-one-field-of-many", ORACLE,
           'q_mode.split(":", 1)[1]', 'q_mode.split(":", 2)[1]',
           (T_ORACLE + "test_sweep_rejects_bad_config",)),
    Mutant("sweep-delta-floor-lowered", ORACLE,
           'as_rational(d, "delta", -1) for d in deltas', 'as_rational(d, "delta", -2) for d in deltas',
           (T_ORACLE + "test_sweep_rejects_bad_config",)),
    Mutant("sweep-mismatch-hides-the-construction", ORACLE,
           "(expected or ())", "(expected and ())",
           (T_ORACLE + "test_sweep_shows_a_tuple_of_each_mismatch",)),
    # budgets
    Mutant("window-budget-off-by-one", ORACLE,
           "        if nodes > budget:\n            break\n        if side < 0:",
           "        if nodes >= budget:\n            break\n        if side < 0:",
           (T_ORACLE + "test_window_budget_exhaustion",)),
    Mutant("sweep-budget-off-by-one", ORACLE,
           "exceeded = nodes >= budget", "exceeded = nodes > budget",
           (T_ORACLE + "test_report_json_is_pinned[sweep-budget]",)),
    Mutant("enumerate-budget-off-by-one", EGYPTIAN,
           "        if nodes > budget:\n            raise ValueError",
           "        if nodes >= budget:\n            raise ValueError",
           (T_EGYPTIAN + "test_enumerate_budget_counts_the_lcm_searchs_nodes",)),
    # the lcm search and its square check
    Mutant("lcm-floor-plus-one", ORACLE,
           "if lcm_value > floor_bound:", "if lcm_value > floor_bound + 1:",
           (T_ORACLE + "test_max_lcm_bound_between_integers",)),
    Mutant("lcm-integral-check-dropped", ORACLE,
           "if integral and lcm_value == floor_bound:", "if lcm_value == floor_bound:",
           (T_ORACLE + "test_max_lcm_bound_between_integers",)),
    Mutant("maximizer-ties-dropped", ORACLE,
           "elif lcm_value == max_lcm:", "elif False:",
           (T_ORACLE + "test_report_json_is_pinned[lcm-ties]",
            T_ORACLE + "test_report_json_is_pinned[lcm-ties-3]")),
    Mutant("square-violation-dropped", ORACLE,
           "if lcm_value * lcm_value > q_den * ab:", "if False:",
           (T_ORACLE + "test_max_lcm_reports_each_square_violation",)),
    Mutant("one-term-square-violation-dropped", ORACLE,
           "record(t, m, m % q != 0 or lcm_square_check(t, q))", "record(t, m, True)",
           (T_ORACLE + "test_max_lcm_reports_the_square_violation_of_one_term",)),
    Mutant("witness-only-at-new-max", ORACLE,
           "if lcm_value >= max_lcm or lcm_value >= floor_bound:", "if lcm_value >= max_lcm:",
           (T_ORACLE + "test_max_lcm_witness_below_the_running_maximum",)),
    Mutant("square-check-divisibility-first", ORACLE,
           "    if q * num % product:\n",
           "    if lcm_value % q:\n"
           '        raise ValueError(f"q={q} does not divide the tuple lcm {lcm_value}")\n'
           "    if q * num % product:\n",
           (T_ORACLE + "test_lcm_square_check",)),
    Mutant("square-check-membership-without-q", ORACLE,
           "    if q * num % product:", "    if num % product:",
           (T_ORACLE + "test_lcm_square_check",
            T_ORACLE + "test_max_lcm_walker_matches_reference")),
    # the search's members, each extended from the prefix it closes, and
    # each one's membership test, inline
    Mutant("member-sum-drops-head", ORACLE,
           "q_total = q_num * ab + q_den * (a + b)", "q_total = q_den * (a + b)",
           (T_ORACLE + "test_max_lcm_walker_matches_reference",)),
    Mutant("head-product-dropped", ORACLE,
           "> q_den * ab:", "> q * ab:",
           (T_ORACLE + "test_max_lcm_walker_matches_reference",)),
    Mutant("member-membership-without-q", ORACLE,
           "if q_total % (den * ab):", "if q_total // q % (den * ab):",
           (T_ORACLE + "test_max_lcm_walker_matches_reference",)),
    Mutant("member-membership-dropped", ORACLE,
           "if q_total % (den * ab):", "if False:",
           (T_ORACLE + "test_max_lcm_search_checks_membership_of_each_closed_pair",)),
    Mutant("head-lcm-drops-first-entry", ORACLE,
           "head_lcm = math.lcm(*head)", "head_lcm = math.lcm(*head[1:])",
           (T_ORACLE + "test_report_json_is_pinned[lcm-ties-head]",)),
    Mutant("member-sum-off", ORACLE,
           "q_total = q_num * ab + q_den * (a + b)", "q_total = q_num * ab + q_den * (a + b) + 1",
           (T_ORACLE + "test_max_lcm_walker_matches_reference",)),
    # the one exact-class core under both consumers: its budget and its
    # k = 1 member
    Mutant("closing-budget-cut-off-by-one", EGYPTIAN,
           "budget - nodes + 1)", "budget - nodes + 2)",
           (T_EGYPTIAN + "test_exact_closings_frozen_yields",
            T_ORACLE + "test_max_lcm_budget_cuts_through_a_closing",
            T_ORACLE + "test_max_lcm_budget_counts_walker_nodes",
            T_ORACLE + "test_enumerate_and_max_lcm_share_one_budget_policy")),
    Mutant("closing-budget-pair-past-checked", EGYPTIAN,
           "num, den, tails[:-1], nodes", "num, den, tails, nodes",
           (T_EGYPTIAN + "test_exact_closings_frozen_yields",
            T_ORACLE + "test_max_lcm_budget_cuts_through_a_closing",
            T_ORACLE + "test_max_lcm_budget_counts_walker_nodes")),
    Mutant("exact-k1-member-charged-a-node", EGYPTIAN,
           "            yield (), 0, 1, [tuple(prefix)], nodes\n",
           "            nodes += 1\n            yield (), 0, 1, [tuple(prefix)], nodes\n",
           (T_EGYPTIAN + "test_exact_closings_frozen_yields",
            T_ORACLE + "test_report_json_is_pinned[readme-sweep]",
            T_ORACLE + "test_enumerate_and_max_lcm_share_one_budget_policy",
            T_CLI + "test_readme_cli_examples")),
    # the walker and its two-slot closing
    Mutant("walk-level-pop", EGYPTIAN,
           "            stack.pop()\n            prefix.pop()\n",
           "            stack.pop()\n",
           (T_ORACLE + "test_walk_matches_the_recursive_walk",
            T_ORACLE + "test_window_walker_matches_reference")),
    Mutant("walk-reduces-its-sums", EGYPTIAN,
           "        prefix[-1] = m\n        num, den = num * m + den, den * m\n",
           "        prefix[-1] = m\n        num, den = num * m + den, den * m\n"
           "        g = math.gcd(num, den)\n"
           "        num, den = num // g, den // g\n",
           (T_EGYPTIAN + "test_walk_yields_each_prefix_sum_and_side",
            T_ORACLE + "test_walk_matches_the_recursive_walk")),
    Mutant("walk-stops-inexact-targets", EGYPTIAN,
           "stop_at = 2 if (a, b) == (c, d) else 0", "stop_at = 2",
           (T_ORACLE + "test_walk_matches_the_recursive_walk",
            T_ORACLE + "test_window_frozen_cells")),
    Mutant("leaf-side-from-parent", EGYPTIAN,
           "yield prefix, 0, leaf_side,", "yield prefix, 0, side,",
           (T_EGYPTIAN + "test_walk_yields_each_prefix_sum_and_side",
            T_ORACLE + "test_walk_matches_the_recursive_walk",
            T_ORACLE + "test_window_frozen_cells")),
    Mutant("leaf-sum-from-parent", EGYPTIAN,
           "leaf_side, leaf_num, leaf_den\n", "leaf_side, num, den\n",
           (T_EGYPTIAN + "test_walk_yields_each_prefix_sum_and_side",
            T_ORACLE + "test_walk_matches_the_recursive_walk",
            T_ORACLE + "test_window_frozen_cells")),
    Mutant("leaf-loop-keeps-its-slot", EGYPTIAN,
           "leaf_den += den\n                prefix.pop()\n", "leaf_den += den\n",
           (T_EGYPTIAN + "test_walk_yields_each_prefix_sum_and_side",
            T_ORACLE + "test_walk_matches_the_recursive_walk",
            T_ORACLE + "test_window_walker_matches_reference")),
    Mutant("leaf-loop-starts-late", EGYPTIAN,
           "for prefix[-1] in range(lo, hi + 1):", "for prefix[-1] in range(lo + 1, hi + 1):",
           (T_ORACLE + "test_walk_matches_the_recursive_walk",
            T_ORACLE + "test_window_walker_matches_reference",
            T_ORACLE + "test_window_frozen_cells")),
    # each prefix's child range, computed in place
    Mutant("walk-child-range-unclamped", EGYPTIAN,
           "            if lo < m:\n                lo = m\n", "",
           (T_ORACLE + "test_walk_matches_the_recursive_walk",
            T_ORACLE + "test_walk_matches_the_recursive_walk_on_random_input",
            T_ORACLE + "test_window_walker_matches_reference",
            T_ORACLE + "test_window_frozen_cells")),
    Mutant("walk-child-range-one-past-hi", EGYPTIAN,
           "hi = slots * b * den // -side", "hi = slots * b * den // -side + 1",
           (T_ORACLE + "test_walk_matches_the_recursive_walk",
            T_ORACLE + "test_walk_matches_the_recursive_walk_on_random_input",
            T_ORACLE + "test_window_walker_matches_reference",
            T_ORACLE + "test_window_frozen_cells")),
    Mutant("walk-room-floor-for-ceiling", EGYPTIAN,
           "lo = -(d * den // (num * d - c * den))", "lo = d * den // (c * den - num * d)",
           (T_ORACLE + "test_walk_matches_the_recursive_walk",
            T_ORACLE + "test_walk_matches_the_recursive_walk_on_random_input")),
    Mutant("walk-opens-root-level-first", EGYPTIAN,
           _WALK_EXPANSION, _WALK_OPENS_BEFORE_YIELD,
           (T_ORACLE + "test_walk_yields_the_root_before_any_child",)),
    Mutant("leaf-steps-sum-by-den", EGYPTIAN,
           "leaf_num += num", "leaf_num += den",
           (T_EGYPTIAN + "test_walk_yields_each_prefix_sum_and_side",
            T_ORACLE + "test_walk_matches_the_recursive_walk",
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
           "        for tail in tails:\n"
           "            yield head + tail\n",
           "        pass\n",
           (T_EGYPTIAN + "test_enumerate_frozen_examples",
            T_EGYPTIAN + "test_iter_exact_matches_brute_force",
            T_ORACLE + "test_max_lcm_walker_matches_reference")),
    Mutant("two-term-prev-bound-dropped", EGYPTIAN,
           "if x >= least and x % p == residue", "if x % p == residue",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_EGYPTIAN + "test_two_term_pairs_match_the_divisor_method")),
    Mutant("two-term-congruence-dropped", EGYPTIAN,
           "if x >= least and x % p == residue", "if x >= least",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_ORACLE + "test_max_lcm_walker_matches_reference")),
    Mutant("two-term-kept-divisors-unsorted", EGYPTIAN,
           "kept = sorted([x for x in divisors if x >= least and x % p == residue])",
           "kept = [x for x in divisors if x >= least and x % p == residue]",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_ORACLE + "test_max_lcm_walker_matches_reference")),
    # the pair limit: the divisors of q^2 up to a threshold that grows
    # 64-fold to q, built only when the limit is below their count
    Mutant("pair-limit-off-by-one", EGYPTIAN,
           "len(kept) >= limit", "len(kept) >= limit - 1",
           (T_EGYPTIAN + "test_two_term_pairs_limit_keeps_the_first_pairs",
            T_EGYPTIAN + "test_two_term_pairs_limit_through_each_threshold")),
    Mutant("pair-threshold-stops-below-q", EGYPTIAN,
           "if top == q or len(kept)", "if 64 * top > q or len(kept)",
           (T_EGYPTIAN + "test_two_term_pairs_limit_keeps_the_first_pairs",
            T_EGYPTIAN + "test_two_term_pairs_limit_through_each_threshold")),
    Mutant("pair-limit-sign-unchecked", EGYPTIAN,
           "    if limit is not None and limit < 0:\n", "    if False:\n",
           (T_EGYPTIAN + "test_two_term_pairs_refuses_a_negative_limit",)),
    Mutant("pair-limit-never-narrows", EGYPTIAN,
           "if limit is not None and (", "if False and (",
           (T_EGYPTIAN + "test_two_term_pairs_limit_bounds_the_divisors_kept",)),
    Mutant("two-term-divisors-of-q", EGYPTIAN,
           "range(2 * e + 1)", "range(e + 1)",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_ORACLE + "test_max_lcm_walker_matches_reference")),
    Mutant("two-term-divisor-bound-strict", EGYPTIAN,
           "if d <= most]", "if d < most]",
           (T_EGYPTIAN + "test_two_term_pairs_match_the_divisor_method",
            T_ORACLE + "test_max_lcm_walker_matches_reference")),
    Mutant("two-term-order-reversed", EGYPTIAN,
           "x % p == residue])", "x % p == residue], reverse=True)",
           (T_EGYPTIAN + "test_two_term_pairs_match_brute_force",
            T_EGYPTIAN + "test_two_term_pairs_match_the_divisor_method")),
    # max_lcm_search's largest lcm, a decimal string in JSON like every
    # mathematical integer
    Mutant("detail-max-lcm-unconverted", REPORT,
           'details["max_lcm"] = str(details["max_lcm"])', 'details["max_lcm"] = details["max_lcm"]',
           (T_ORACLE + "test_report_json_is_pinned[lcm-ties]",)),
    # extremal patterns and classification
    Mutant("pattern-builds-before-divisibility", BOUNDS,
           "        if num % d.r:\n            return None\n"
           "        out.append(num // d.r)\n    return tuple(out)",
           "        out.append(num)\n"
           "    if any(num % d.r for num in out[k - d.s:]):\n        return None\n"
           "    return tuple(out[:k - d.s]) + tuple(num // d.r for num in out[k - d.s:])",
           (T_BOUNDS + "test_extremal_tuples_stop_at_the_first_entry_r_fails_to_divide",)),
    Mutant("classify-closings-swapped", BOUNDS,
           "    if closing == 0:\n" + _LCM_FAMILIES + "    if closing == 1:",
           "    if closing == 1:\n" + _LCM_FAMILIES + "    if closing == 0:",
           (T_BOUNDS + "test_classify_gap_families",
            T_BOUNDS + "test_classify_lcm_families")),
    Mutant("classify-delta-guard-dropped", BOUNDS,
           "if s else 1", "if s else 0",
           (T_BOUNDS + "test_classify_gap_families",
            T_BOUNDS + "test_every_tagged_tuple_sums_to_its_familys_value")),
    Mutant("classify-fractional-takes-negative", BOUNDS,
           "        if s == 1:", "        if s <= 1:",
           (T_BOUNDS + "test_classify_gap_families",)),
    Mutant("classify-skips-shared-part", BOUNDS,
           "    for i in range(1, s):\n"
           "        if t[ones + i - 1] * r != 1 + sylvester_u(i, q):\n"
           "            return EqualityFamily.NONE\n",
           "",
           (T_BOUNDS + "test_classify_matches_the_reference_on_arbitrary_tuples",)),
    # the decomposition and the bounds on integer pairs
    Mutant("srq-refuses-delta-minus-one", RATIONALS,
           "x.numerator < least * x.denominator", "x.numerator <= least * x.denominator",
           (T_RATIONALS + "test_srq_decompose_formula_cases",
            T_BOUNDS + "test_decomposition_and_bounds_match_the_fraction_reference")),
    Mutant("srq-integrality-test-dropped", RATIONALS,
           "    if q % d:\n", "    if False:\n",
           (T_RATIONALS + "test_srq_decompose_formula_cases",
            T_BOUNDS + "test_decomposition_and_bounds_match_the_fraction_reference")),
    Mutant("srq-r-off-by-one", RATIONALS,
           "r=q * (s * d - n) // d", "r=q * (s * d - n) // d + 1",
           (T_RATIONALS + "test_srq_decompose_formula_cases",
            T_BOUNDS + "test_decomposition_and_bounds_match_the_fraction_reference")),
    Mutant("sharp-bound-gcd-without-q", BOUNDS,
           "d.q * math.gcd(d.r * d.q, u)", "math.gcd(d.r * d.q, u)",
           (T_BOUNDS + "test_decomposition_and_bounds_match_the_fraction_reference",
            T_BOUNDS + "test_bounds_match_the_fraction_reference_on_random_input")),
    Mutant("gap-amount-unreduced", BOUNDS,
           "reduced(d.r, u, math.gcd(d.r, u))", "reduced(d.r, u, 1)",
           (T_BOUNDS + "test_decomposition_and_bounds_match_the_fraction_reference",
            T_BOUNDS + "test_bounds_match_the_fraction_reference_on_random_input")),
    Mutant("float-rationals-accepted", RATIONALS,
           "if isinstance(x, (bool, float)):", "if isinstance(x, bool):",
           (T_RATIONALS + "test_floats_are_refused",
            T_MAJORIZATION + "test_floats_are_refused")),
    Mutant("bool-rationals-accepted", RATIONALS,
           "if isinstance(x, (bool, float)):", "if isinstance(x, float):",
           (T_RATIONALS + "test_rational_inputs_are_refused_below_their_floor",
            T_MAJORIZATION + "test_positive_sequence_validates")),
    # one number grammar: every string given to the rational gate, and every
    # integer the CLI reads, must match the wire format
    Mutant("string-skips-grammar", RATIONALS,
           "        if isinstance(x, str) and not RATIONAL_LITERAL.fullmatch(x):\n",
           "        if False:\n",
           (T_RATIONALS + "test_parse_rational_rejects",
            T_RATIONALS + "test_rational_inputs_are_refused_below_their_floor",
            T_MAJORIZATION + "test_positive_sequence_validates",
            T_ORACLE + "test_searches_name_each_bad_argument[string-x]",
            T_CLI + "test_version_and_usage_errors")),
    Mutant("cli-int-grammar-dropped", CLI,
           "    return _checked(parse_int, text)", "    return _checked(int, text)",
           (T_CLI + "test_integers_outside_the_wire_format_are_refused[gap-k-underscore]",
            T_CLI + "test_integers_outside_the_wire_format_are_refused[gap-k-space]",
            T_CLI + "test_integers_outside_the_wire_format_are_refused[split-at-digit]")),
    # the one rational gate: its floor, and a zero denominator as a ValueError
    Mutant("gate-ignores-least", RATIONALS,
           "    if least is not None and x.numerator < least * x.denominator:",
           "    if False:",
           (T_RATIONALS + "test_rational_inputs_are_refused_below_their_floor",
            T_RATIONALS + "test_srq_decompose_formula_cases",
            T_ORACLE + "test_searches_name_each_bad_argument")),
    Mutant("zero-denominator-escapes", RATIONALS,
           "        try:\n            x = Fraction(x)\n        except ZeroDivisionError:\n"
           "            raise ValueError(f\"zero denominator in {x!r}\") from None\n",
           "        x = Fraction(x)\n",
           (T_RATIONALS + "test_parse_rational_zero_denominator",
            T_RATIONALS + "test_rational_inputs_are_refused_below_their_floor",
            T_CLI + "test_zero_denominator_usage_error")),
    # the one integer gate, and a caller that skips it
    Mutant("bool-integers-accepted", RATIONALS,
           "    if type(x) is not int or x < least:",
           "    if not isinstance(x, int) or x < least:",
           (T_RATIONALS + "test_bool_q_is_refused[srq_decompose]",
            T_RATIONALS + "test_bool_integers_are_refused[as_tuple]",
            T_RATIONALS + "test_bool_integers_are_refused[classify_equality]",
            T_RATIONALS + "test_bool_integers_are_refused[window_search:k]")),
    Mutant("gate-least-fixed-at-one", RATIONALS,
           "or x < least:", "or x < 1:",
           (T_RATIONALS + "test_as_int_returns_valid_integers_unchanged",
            T_ORACLE + "test_sweep_empty_grid_is_vacuous",
            T_EGYPTIAN + "test_enumerate_frozen_examples")),
    Mutant("sharp-sum-bound-ungated", BOUNDS,
           '_sharp_sum_bound(as_int(k, "k"), ', "_sharp_sum_bound(k, ",
           (T_RATIONALS + "test_bool_integers_are_refused[sharp_sum_bound]",)),
    # cmd_extremal takes its sum from the requested kind
    Mutant("extremal-sums-its-tuple", CLI,
           'bound if args.kind == "gap" else args.k - args.delta', "tuple_sum(t)",
           (T_CLI + "test_extremal_sums_its_tuple_once",)),
    Mutant("extremal-gap-sum-from-class", CLI,
           'bound if args.kind == "gap" else args.k - args.delta', "args.k - args.delta",
           (T_CLI + "test_extremal_sums_its_tuple_once[gap]",)),
    # each printed integer is converted to decimal once: t is carried from
    # u's digits, and text and csv convert only the rows they print
    Mutant("sylvester-t-carry-dropped", CLI,
           'stem = digits.rstrip("9")', "stem = digits",
           (T_CLI + "test_successor_is_the_decimal_of_u_plus_1",
            T_CLI + "test_sylvester_carries_t_from_u")),
    Mutant("emit-rows-reconverted", CLI,
           "lines = (sep.join(map(str, row)) for row in rows)",
           "lines = (sep.join(str(int(str(v))) for v in row) for row in rows)",
           (T_CLI + "test_each_printed_integer_is_converted_once",
            T_CLI + "test_sylvester_converts_each_u_once_and_no_t")),
    # every line is built before the first is printed, so exit 1 leaves
    # stdout empty
    Mutant("emit-prints-while-converting", CLI,
           "    for line in list(lines):", "    for line in lines:",
           (T_CLI + "test_a_late_line_past_the_digit_limit_leaves_stdout_empty[text]",)),
    # JSON's inputs are the parsed arguments less the parser's own keys,
    # with a defaulted --q as the command resolved it
    Mutant("inputs-leak-parser-keys", CLI,
           'if key not in ("command", "format", "func")}', 'if key not in ("command", "func")}',
           (T_CLI + "test_json_inputs_and_csv_offer",
            T_CLI + "test_greedy_json_envelope")),
    Mutant("inputs-unresolved-q", CLI,
           '_scalars(result, "gap", "sharp_sum_bound"), q=q)',
           '_scalars(result, "gap", "sharp_sum_bound"))',
           (T_CLI + "test_json_inputs_and_csv_offer[argv3-inputs3]",
            T_CLI + "test_json_inputs_and_csv_offer[argv9-inputs9]")),
    # plain argv is read from the parser's actions, to the same result as
    # argparse, and everything else is left to argparse
    Mutant("plain-parse-skips-choices", CLI,
           "        if action.choices is not None and value not in action.choices:\n"
           "            return None\n",
           "",
           (T_CLI + "test_argparse_reads_what_is_not_plain[invalid-format]",
            T_CLI + "test_plain_reading_matches_argparse",
            T_CLI + "test_csv_refused_before_the_command_runs")),
    Mutant("plain-parse-skips-required", CLI,
           "    if any(a.required and a not in given for a in sub._actions):\n"
           "        return None\n",
           "",
           (T_CLI + "test_argparse_reads_what_is_not_plain[missing-required]",
            T_CLI + "test_argparse_reads_what_is_not_plain[missing-required-option]",
            T_CLI + "test_plain_reading_matches_argparse")),
    Mutant("plain-parse-never-plain", CLI,
           "    if not argv or argv[0] not in commands:", "    if True:",
           (T_CLI + "test_plain_argv_never_reaches_argparse",)),
    # the shared tables are bounded: a sweep over many seeds keeps MAX_TABLES
    Mutant("sylvester-tables-unbounded", SYLVESTER,
           "maxsize=MAX_TABLES", "maxsize=None",
           (T_SYLVESTER + "test_sweep_over_many_seeds_keeps_max_tables",)),
    # a value already built is read without the lock, at its own index
    Mutant("sylvester-hit-reads-last", SYLVESTER,
           "            return values[p - 1]\n", "            return values[-1]\n",
           (T_SYLVESTER + "test_u_frozen_values",)),
    # check_identities reports each identity it finds broken
    Mutant("identity-sum-check-dropped", SYLVESTER,
           "            if num * q * nxt != (nxt - q) * den:",
           "            if False:",
           (T_SYLVESTER + "test_check_identities_reports_each_broken_identity",
            T_SYLVESTER + "test_check_identities_match_the_fraction_reference")),
    Mutant("identity-product-check-dropped", SYLVESTER,
           "            if den * q != nxt:", "            if False:",
           (T_SYLVESTER + "test_check_identities_reports_each_broken_identity",
            T_SYLVESTER + "test_check_identities_match_the_fraction_reference")),
    # reciprocal sums on integer pairs: the sum kept in lowest terms, and
    # the volume's count of its coefficients
    Mutant("tuple-sum-skips-second-gcd", EGYPTIAN,
           "            g2 = math.gcd(num, g)\n", "            g2 = 1\n",
           (T_EGYPTIAN + "test_tuple_sum_matches_the_fraction_reference",
            T_GEOMETRY + "test_volume_deficiency_and_index_match_the_fraction_reference")),
    Mutant("volume-counts-only-finite-coefficients", GEOMETRY,
           "_less_finite_sum(len(ls.coefficients) - ls.dim - 1, ls)",
           "_less_finite_sum(len(ls.finite_denominators) - ls.dim - 1, ls)",
           (T_GEOMETRY + "test_volume_deficiency_frozen",
            T_GEOMETRY + "test_volume_deficiency_and_index_match_the_fraction_reference")),
    # bpf_index keeps one check, the paper's index bound, which a lowered
    # bound must trip
    Mutant("bpf-index-bound-unchecked", GEOMETRY,
           "    assert r <= index_bound(ls.dim, v, canonical_q(v)), (", "    assert True, (",
           (T_GEOMETRY + "test_bpf_index_asserts_the_index_bound",)),
    # a report times its run from when it was built
    Mutant("report-clock-restarts-at-finish", REPORT,
           "time.perf_counter() - self.started", "time.perf_counter() - time.perf_counter()",
           (T_ORACLE + "test_report_times_its_run_from_when_it_was_built",)),
    # the dominance kernels on integer pairs, and the generators' exact draws
    Mutant("prefix-dominance-non-strict", MAJORIZATION,
           "yn * c, yd * d\n        if xn * yd < yn * xd:", "yn * c, yd * d\n        if xn * yd <= yn * xd:",
           (T_MAJORIZATION + "test_kernels_match_the_fraction_reference",
            T_MAJORIZATION + "test_prefix_generator_contract")),
    Mutant("suffix-sum-drops-a-cross-term", MAJORIZATION,
           "xn, xd = xn * b + a * xd, xd * b", "xn, xd = xn * b + a, xd * b",
           (T_MAJORIZATION + "test_kernels_match_the_fraction_reference",
            T_MAJORIZATION + "test_suffix_generator_contract")),
    Mutant("conclusion-equality-unreachable", MAJORIZATION,
           "    if ax == ay:\n", "    if False:\n",
           (T_MAJORIZATION + "test_kernels_match_the_fraction_reference",
            T_MAJORIZATION + "test_prefix_generator_contract",
            T_MAJORIZATION + "test_suffix_generator_contract")),
    Mutant("shrink-by-halves", MAJORIZATION,
           "y = [(a * shrink, b * 4) for a, b in y]", "y = [(a * shrink, b * 2) for a, b in y]",
           (T_MAJORIZATION + "test_generators_match_the_fraction_reference[prefix]",)),
    Mutant("suffix-moves-truncate", MAJORIZATION,
           "_DEN = 12 * 4**_MOVES", "_DEN = 12",
           (T_MAJORIZATION + "test_generators_match_the_fraction_reference[suffix]",
            T_MAJORIZATION + "test_generator_golden_pairs")),
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
