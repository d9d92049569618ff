"""Command line interface.

Subcommands: greedy, split, enumerate, gap, lcm-bound, extremal, sylvester,
oracle, geometry. Every command honors --format text|json; greedy, split,
enumerate and extremal, whose output is a list of tuples, also take csv, and
any other format is a usage error (exit 1). JSON output is an envelope
{command, inputs, result, version}; rationals travel as 'p/q' strings and
mathematical integers as decimal strings, since the values outgrow 64 bits.

Exit codes: 0 success, 1 usage or domain error, 2 verification failure
(counterexample found or node budget exhausted).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .bounds import (
    EqualityFamily,
    classify_equality,
    extremal_gap_tuple,
    extremal_lcm_tuple,
    gap_amount,
    lcm_bound,
    sharp_sum_bound,
)
from .egyptian import enumerate_exact, greedy, split_expand, tuple_lcm, tuple_sum
from .geometry import (
    ONE,
    LogStructure,
    StandardCoefficient,
    bpf_index,
    deficiency,
    gap_bound,
    index_bound,
    refined_index_bound,
    volume,
)
from .oracle import DEFAULT_BUDGET, sweep
from .rationals import canonical_q, parse_rational, rational_str
from .report import report_to_dict
from .sylvester import sylvester_u


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 instead of 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like '-1', '-1/2', or '-1,0,1/2' follow an option without
        # being mistaken for flags, so '--delta-list -1,0,1' needs no '='
        self._negative_number_matcher = re.compile(
            r"^-\d+(?:/\d+)?(?:,[+-]?\d+(?:/\d+)?)*$"
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _denominators(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _rational_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(part) for part in text.split(","))


def _coefficients(text: str) -> tuple[StandardCoefficient, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if token == "one":
            out.append(ONE)
        elif token.startswith("m:"):
            try:
                out.append(StandardCoefficient(int(token[2:])))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"bad coefficient token {token!r}"
                ) from None
        else:
            raise argparse.ArgumentTypeError(
                f"bad coefficient token {token!r}; use 'm:N' or 'one'"
            )
    return tuple(out)


def _emit(args, inputs: dict, result: dict, lines=None, rows=None) -> None:
    """Print one command's output in the chosen format.

    inputs and result fill the JSON envelope. rows, a list of integer
    tuples, print comma-joined as csv and space-joined as text, unless the
    command passes its own text lines.
    """
    if args.format == "json":
        envelope = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "version": __version__,
        }
        print(json.dumps(envelope, indent=2))
        return
    if args.format == "csv" or lines is None:
        sep = "," if args.format == "csv" else " "
        lines = [sep.join(str(v) for v in row) for row in rows]
    for line in lines:
        print(line)


def _scalars(result: dict, *keys: str) -> list[str]:
    """'key = value' text lines for the keys result holds a value for."""
    return [f"{key} = {result[key]}" for key in keys if result.get(key) is not None]


def _q(q: int | None, x: Fraction) -> int:
    """The given --q, or by default the canonical q of x."""
    return q if q is not None else canonical_q(x)


def _tuple_strs(t) -> list[str]:
    return [str(m) for m in t]


def cmd_greedy(args) -> int:
    t = greedy(args.x)
    result = {"denominators": _tuple_strs(t), "terms": len(t),
              "sum": rational_str(tuple_sum(t))}
    _emit(args, {"x": rational_str(args.x)}, result, rows=[t])
    return 0


def cmd_split(args) -> int:
    n = len(args.denominators)
    if not 1 <= args.at <= n:
        raise ValueError(f"--at {args.at} is outside 1..{n}, the positions of {n} entries")
    t = split_expand(args.denominators, args.at - 1)  # --at is 1-based
    inputs = {"denominators": _tuple_strs(args.denominators), "at": args.at}
    result = {"denominators": _tuple_strs(t), "sum": rational_str(tuple_sum(t))}
    _emit(args, inputs, result, rows=[t])
    return 0


def cmd_enumerate(args) -> int:
    tuples = enumerate_exact(args.sum, args.terms)
    inputs = {"sum": rational_str(args.sum), "terms": args.terms}
    result = {"tuples": [_tuple_strs(t) for t in tuples], "count": len(tuples)}
    _emit(args, inputs, result, rows=tuples)
    return 0


def cmd_gap(args) -> int:
    q = _q(args.q, args.delta)
    inputs = {"delta": rational_str(args.delta), "q": q, "k": args.k}
    result = {
        "delta": rational_str(args.delta),
        "q": q,
        "gap": rational_str(gap_amount(args.delta, q)),
    }
    if args.k is not None:
        result["sharp_sum_bound"] = rational_str(sharp_sum_bound(args.k, args.delta, q))
    _emit(args, inputs, result, _scalars(result, "gap", "sharp_sum_bound"))
    return 0


def cmd_lcm_bound(args) -> int:
    q = _q(args.q, args.delta)
    inputs = {"delta": rational_str(args.delta), "q": q}
    result = {**inputs, "lcm_bound": rational_str(lcm_bound(args.delta, q))}
    _emit(args, inputs, result, _scalars(result, "lcm_bound"))
    return 0


def cmd_extremal(args) -> int:
    q = _q(args.q, args.delta)
    if args.kind == "gap":
        t = extremal_gap_tuple(args.k, args.delta, q)
        bound = sharp_sum_bound(args.k, args.delta, q)
    else:
        t = extremal_lcm_tuple(args.k, args.delta, q)
        bound = lcm_bound(args.delta, q)
    inputs = {"kind": args.kind, "k": args.k, "delta": rational_str(args.delta), "q": q}
    result = {"kind": args.kind, "bound": rational_str(bound), "denominators": None}
    if t is None:
        _emit(args, inputs, result, ["absent"], rows=[])
        return 0
    family = classify_equality(t, args.delta, q).tag
    # a family is matched by its pattern, whose sum is fixed: k - delta for
    # the lcm families, the sharp sum bound for the gap families
    if family is EqualityFamily.NONE:
        total = tuple_sum(t)
    elif family in (EqualityFamily.SYLVESTER_LCM, EqualityFamily.TWO_TERM_LCM):
        total = args.k - args.delta
    else:
        total = sharp_sum_bound(args.k, args.delta, q)
    result["denominators"] = _tuple_strs(t)
    result["sum"] = rational_str(total)
    result["lcm"] = str(tuple_lcm(t))
    result["family"] = family.value
    _emit(args, inputs, result, rows=[t])
    return 0


def cmd_sylvester(args) -> int:
    inputs = {"p": args.p, "q": args.q, "table": args.table}
    # taken before branching, so a bad --p or --q fails the table too
    u_val = sylvester_u(args.p, args.q)
    if args.table:
        us = (sylvester_u(p, args.q) for p in range(1, args.p + 1))
        rows = [(p, u, 1 + u) for p, u in enumerate(us, 1)]
        table = [{"p": p, "u": str(u), "t": str(t)} for p, u, t in rows]
        _emit(args, inputs, {"table": table}, rows=rows)
    else:
        result = {"u": str(u_val), "t": str(1 + u_val)}
        _emit(args, inputs, result, _scalars(result, "u", "t"))
    return 0


def cmd_oracle(args) -> int:
    report = sweep(args.k_max, args.delta_list, args.q_mode, args.budget)
    inputs = {
        "k_max": args.k_max,
        "delta_list": [rational_str(d) for d in args.delta_list],
        "q_mode": args.q_mode,
        "budget": args.budget,
    }
    lines = [
        f"passed = {str(report.passed).lower()}",
        f"cells = {report.parameters['cells']}",
        f"nodes = {report.stats.nodes}",
        f"counterexamples = {len(report.counterexamples)}",
        f"equality_witnesses = {len(report.equality_witnesses)}",
    ]
    if report.budget_exceeded:
        lines.append("budget_exceeded = true")
    for c in report.counterexamples:
        lines.append(f"counterexample: {c.claim} values={list(c.values)} "
                     f"delta={rational_str(c.delta)} q={c.q}")
    _emit(args, inputs, report_to_dict(report), lines)
    return 0 if report.passed else 2


def cmd_geometry(args) -> int:
    ls = LogStructure(args.dim, args.coeffs)
    v = volume(ls)
    t = args.t if args.t is not None else (v if v >= 0 else None)
    inputs = {
        "dim": args.dim,
        "coeffs": [("one" if c.is_one else f"m:{c.m}") for c in args.coeffs],
        "t": rational_str(args.t) if args.t is not None else None,
        "q": args.q,
    }
    result = {
        "volume": rational_str(v),
        "deficiency": rational_str(deficiency(ls)),
        "finite_denominators": _tuple_strs(ls.finite_denominators),
        "ones": ls.ones_count,
        "bpf_index": str(bpf_index(ls)) if v >= 0 else None,
    }
    if t is not None:
        q = _q(args.q, t)
        result["t"] = rational_str(t)
        result["q"] = q
        result["gap_bound"] = rational_str(gap_bound(args.dim, t, q))
        result["index_bound"] = rational_str(index_bound(args.dim, t, q))
        try:
            refined = refined_index_bound(args.dim, ls.ones_count, t, q)
            result["refined_index_bound"] = rational_str(refined)
        except ValueError:
            result["refined_index_bound"] = None
    lines = _scalars(result, "volume", "bpf_index", "gap_bound", "index_bound",
                     "refined_index_bound")
    if v < 0:
        lines.insert(1, "bpf_index = undefined (negative volume)")
    _emit(args, inputs, result, lines)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="egyfrac", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    tuples = ("text", "json", "csv")  # csv is offered where the output is tuples

    def add(name, func, help_text, formats=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=formats, default="text",
            help="output format (default: text)",
        )
        p.set_defaults(func=func, command=name)
        return p

    p = add("greedy", cmd_greedy, "greedy unit-fraction representation of x", tuples)
    p.add_argument("x", type=_rational, help="nonnegative rational, e.g. 5/6")

    p = add("split", cmd_split, "split one denominator via 1/m = 1/(m+1) + 1/(m(m+1))",
            tuples)
    p.add_argument("denominators", type=_denominators, help="comma-separated tuple, e.g. 2,3")
    p.add_argument("--at", type=int, required=True, help="1-based position to split")

    p = add("enumerate", cmd_enumerate, "all k-term representations of a rational", tuples)
    p.add_argument("--sum", type=_rational, required=True, dest="sum")
    p.add_argument("--terms", type=int, required=True)

    p = add("gap", cmd_gap, "forbidden-window width below k - delta")
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--q", type=int, default=None, help="default: canonical q of delta")
    p.add_argument("--k", type=int, default=None, help="also print the sharp sum bound")

    p = add("lcm-bound", cmd_lcm_bound, "lcm bound over the class summing to k - delta")
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--q", type=int, default=None)

    p = add("extremal", cmd_extremal, "tuple attaining a sharp bound, if any", tuples)
    p.add_argument("--kind", choices=("gap", "lcm"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--q", type=int, default=None)

    p = add("sylvester", cmd_sylvester, "generalized Sylvester values u and t = 1 + u")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--table", action="store_true", help="print all rows up to p")

    p = add("oracle", cmd_oracle, "exhaustive bound verification over a grid")
    p.add_argument("--k-max", type=int, required=True, dest="k_max")
    p.add_argument("--delta-list", type=_rational_list, required=True, dest="delta_list")
    p.add_argument("--q-mode", default="canonical", dest="q_mode",
                   help="'canonical' or 'all-upto:N'")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help=f"node budget (default {DEFAULT_BUDGET})")

    p = add("geometry", cmd_geometry, "volume, clearing index, and bounds for a log structure")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--coeffs", type=_coefficients, required=True,
                   help="comma-separated coefficients, e.g. 'm:2,m:3,one'")
    p.add_argument("--t", type=_rational, default=None, help="threshold (default: volume)")
    p.add_argument("--q", type=int, default=None)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser main uses, built by build_parser on the first call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code.

    The parser is built once per process, on the first call, and reused:
    parsing leaves no state in it. build_parser() itself still returns a
    fresh parser.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`): send what is still
        # buffered, flushed again at interpreter exit, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, ZeroDivisionError) as e:
        print(f"egyfrac: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
