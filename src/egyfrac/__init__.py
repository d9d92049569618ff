"""Exact arithmetic for Egyptian fraction bounds.

Everything is exact, with `fractions.Fraction` at the API: greedy and
exhaustive unit-fraction representations, generalized Sylvester sequences,
sharp sum-gap and lcm bounds with their extremal tuples and equality
families, dominance lemmas for nonincreasing sequences, an exhaustive
verification oracle, and the dictionary translating boundary structures on
projective space into deficiency questions.
"""

from .bounds import (
    EqualityCase,
    EqualityFamily,
    classify_equality,
    extremal_gap_tuple,
    extremal_lcm_tuple,
    gap_amount,
    lcm_bound,
    sharp_sum_bound,
)
from .egyptian import (
    ENUMERATE_BUDGET,
    EgyptianTuple,
    as_tuple,
    enumerate_deficiency,
    enumerate_exact,
    greedy,
    iter_exact,
    split_expand,
    tuple_lcm,
    tuple_sum,
)
from .geometry import (
    ONE,
    LogStructure,
    StandardCoefficient,
    bpf_index,
    deficiency,
    finite,
    gap_bound,
    index_bound,
    refined_index_bound,
    volume,
)
from .majorization import (
    PositiveSequence,
    positive_sequence,
    prefix_product_dominates,
    product_dominance_conclusion,
    random_prefix_dominated_pair,
    random_suffix_dominated_pair,
    suffix_sum_dominates,
    sum_dominance_conclusion,
)
from .oracle import (
    DEFAULT_BUDGET,
    lcm_square_check,
    max_lcm_search,
    sweep,
    window_search,
)
from .rationals import (
    SRQ,
    canonical_q,
    floor_frac,
    near_one_check,
    parse_rational,
    rational_str,
    srq_decompose,
)
from .report import (
    Counterexample,
    EqualityWitness,
    SearchStats,
    VerificationReport,
    report_to_dict,
)
from .sylvester import (
    SylvesterTable,
    check_identities,
    sylvester_term,
    sylvester_u,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BUDGET",
    "ENUMERATE_BUDGET",
    "Counterexample",
    "EgyptianTuple",
    "EqualityCase",
    "EqualityFamily",
    "EqualityWitness",
    "LogStructure",
    "ONE",
    "PositiveSequence",
    "SRQ",
    "SearchStats",
    "StandardCoefficient",
    "SylvesterTable",
    "VerificationReport",
    "as_tuple",
    "bpf_index",
    "canonical_q",
    "check_identities",
    "classify_equality",
    "deficiency",
    "enumerate_deficiency",
    "enumerate_exact",
    "extremal_gap_tuple",
    "extremal_lcm_tuple",
    "finite",
    "floor_frac",
    "gap_amount",
    "gap_bound",
    "greedy",
    "index_bound",
    "iter_exact",
    "lcm_bound",
    "lcm_square_check",
    "max_lcm_search",
    "near_one_check",
    "parse_rational",
    "positive_sequence",
    "prefix_product_dominates",
    "product_dominance_conclusion",
    "random_prefix_dominated_pair",
    "random_suffix_dominated_pair",
    "rational_str",
    "refined_index_bound",
    "report_to_dict",
    "sharp_sum_bound",
    "split_expand",
    "srq_decompose",
    "suffix_sum_dominates",
    "sum_dominance_conclusion",
    "sweep",
    "sylvester_term",
    "sylvester_u",
    "tuple_lcm",
    "tuple_sum",
    "volume",
    "window_search",
]
