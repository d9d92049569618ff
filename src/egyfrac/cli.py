"""Command line interface.

Subcommands: greedy, split, enumerate, gap, lcm-bound, extremal, sylvester,
oracle, geometry. Every command honors --format text|json; greedy, split,
enumerate and extremal, whose output is a list of tuples, also take csv, and
any other format is a usage error (exit 1). JSON output is an envelope
{command, inputs, result, version}, whose inputs are the parsed arguments;
rationals travel as 'p/q' strings and mathematical integers as decimal
strings, since the values outgrow 64 bits.

Exit codes: 0 success, 1 usage or domain error (an enumerate past its
node budget among them), 2 verification failure (counterexample found or
oracle's node budget exhausted).
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
from .rationals import RATIONAL_LITERAL, canonical_q, parse_int, parse_rational
from .report import report_to_dict, wire
from .sylvester import sylvester_u


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 instead of 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like '-1', '-1/2', or '-1,0,1/2' follow an option without
        # being mistaken for flags, so '--delta-list -1,0,1' needs no '='
        literal = RATIONAL_LITERAL.pattern
        self._negative_number_matcher = re.compile(f"(?=-){literal}(?:,{literal})*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(parse, text: str):
    """parse(text), with its ValueError turned into a usage error."""
    try:
        return parse(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


# the argparse types look their parser up when called, not when the cached
# parser is built, so a parser wrapped later, as by a tracer, is the one run
def _int(text: str) -> int:
    return _checked(parse_int, text)


def _rational(text: str) -> Fraction:
    return _checked(parse_rational, text)


def _list_of(convert):
    """An argparse type for comma-separated values, each read by convert."""
    return lambda text: tuple(convert(part) for part in text.split(","))


def _coefficient(token: str) -> StandardCoefficient:
    if token == "one":
        return ONE
    if token.startswith("m:"):
        try:
            return StandardCoefficient(parse_int(token[2:]))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad coefficient token {token!r}") from None
    raise argparse.ArgumentTypeError(f"bad coefficient token {token!r}; use 'm:N' or 'one'")


def _emit(args, result: dict, lines=None, rows=None, **resolved) -> None:
    """Print one command's output in the chosen format.

    JSON's inputs are args less the parser's command, format and func, with
    each value the command resolved, a keyword, in place of the parsed one;
    report.wire converts them and result, both raw. Text prints the
    command's lines, an iterable of strings; rows, an iterable of rows whose
    entries print through str, print comma-joined as csv, and space-joined
    as text when the command passes no lines. Only what a format prints is
    converted, and every line is built before the first is printed, so a
    value past the interpreter's digit limit fails with stdout still empty.
    """
    if args.format == "json":
        envelope = {
            "command": args.command,
            "inputs": {key: resolved.get(key, value) for key, value in vars(args).items()
                       if key not in ("command", "format", "func")},
            "result": result,
            "version": __version__,
        }
        print(json.dumps(wire(envelope), indent=2))
        return
    if args.format == "csv" or lines is None:
        sep = "," if args.format == "csv" else " "
        lines = (sep.join(map(str, row)) for row in rows)
    for line in list(lines):
        print(line)


def _scalars(result: dict, *keys: str):
    """'key = value' text lines, built lazily, for the keys result holds a
    value for."""
    return (f"{key} = {result[key]}" for key in keys if result.get(key) is not None)


def _q(q: int | None, x: Fraction) -> int:
    """The given --q, or by default the canonical q of x."""
    return q if q is not None else canonical_q(x)


def _successor(digits: str) -> str:
    """str(n + 1) from digits == str(n), n >= 0: the trailing 9s carry, so
    n + 1 is never converted itself."""
    stem = digits.rstrip("9")
    head = stem[:-1] + chr(ord(stem[-1]) + 1) if stem else "1"
    return head + "0" * (len(digits) - len(stem))


def cmd_greedy(args) -> int:
    t = greedy(args.x)
    # greedy is exact by construction, so its sum is x
    result = {"denominators": t, "terms": len(t), "sum": args.x}
    _emit(args, result, rows=[t])
    return 0


def cmd_split(args) -> int:
    n = len(args.denominators)
    if not 1 <= args.at <= n:
        raise ValueError(f"--at {args.at} is outside 1..{n}, the positions of {n} entries")
    t = split_expand(args.denominators, args.at - 1)  # --at is 1-based
    _emit(args, {"denominators": t, "sum": tuple_sum(t)}, rows=[t])
    return 0


def cmd_enumerate(args) -> int:
    tuples = enumerate_exact(args.sum, args.terms)
    _emit(args, {"tuples": tuples, "count": len(tuples)}, rows=tuples)
    return 0


def cmd_gap(args) -> int:
    q = _q(args.q, args.delta)
    result = {"delta": args.delta, "q": q, "gap": gap_amount(args.delta, q)}
    if args.k is not None:
        result["sharp_sum_bound"] = sharp_sum_bound(args.k, args.delta, q)
    _emit(args, result, _scalars(result, "gap", "sharp_sum_bound"), q=q)
    return 0


def cmd_lcm_bound(args) -> int:
    q = _q(args.q, args.delta)
    result = {"delta": args.delta, "q": q, "lcm_bound": lcm_bound(args.delta, q)}
    _emit(args, result, _scalars(result, "lcm_bound"), q=q)
    return 0


def cmd_extremal(args) -> int:
    q = _q(args.q, args.delta)
    if args.kind == "gap":
        t = extremal_gap_tuple(args.k, args.delta, q)
        bound = sharp_sum_bound(args.k, args.delta, q)
    else:
        t = extremal_lcm_tuple(args.k, args.delta, q)
        bound = lcm_bound(args.delta, q)
    result = {"kind": args.kind, "bound": bound, "denominators": None}
    if t is None:
        _emit(args, result, ["absent"], rows=[], q=q)
        return 0
    # each constructor asserts its tuple's sum: the sharp sum bound for gap,
    # k - delta for lcm
    result["denominators"] = t
    result["sum"] = bound if args.kind == "gap" else args.k - args.delta
    result["lcm"] = str(tuple_lcm(t))
    result["family"] = classify_equality(t, args.delta, q).tag.value
    _emit(args, result, rows=[t], q=q)
    return 0


def cmd_sylvester(args) -> int:
    # taken before branching, so a bad --p or --q fails the table too
    u_val = sylvester_u(args.p, args.q)
    # each u is converted to decimal once, and t = 1 + u carried from its
    # digits; str(u) still holds u to the interpreter's digit limit
    if args.table:
        us = (str(sylvester_u(p, args.q)) for p in range(1, args.p + 1))
        table = [{"p": p, "u": u, "t": _successor(u)} for p, u in enumerate(us, 1)]
        # a row is p, u, t: JSON carries p as a number, and text converts it
        _emit(args, {"table": table}, rows=map(dict.values, table))
    else:
        u = str(u_val)
        result = {"u": u, "t": _successor(u)}
        _emit(args, result, _scalars(result, "u", "t"))
    return 0


def cmd_oracle(args) -> int:
    report = sweep(args.k_max, args.delta_list, args.q_mode, args.budget)
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
                     f"delta={c.delta} q={c.q}")
    _emit(args, report_to_dict(report), lines)
    return 0 if report.passed else 2


def cmd_geometry(args) -> int:
    ls = LogStructure(args.dim, args.coeffs)
    v = volume(ls)
    t = args.t if args.t is not None else (v if v >= 0 else None)
    result = {
        "volume": v,
        "deficiency": deficiency(ls),
        "finite_denominators": ls.finite_denominators,
        "ones": ls.ones_count,
        "bpf_index": str(bpf_index(ls)) if v >= 0 else None,
    }
    if t is not None:
        q = _q(args.q, t)
        result["t"] = t
        result["q"] = q
        result["gap_bound"] = gap_bound(args.dim, t, q)
        result["index_bound"] = index_bound(args.dim, t, q)
        try:
            result["refined_index_bound"] = refined_index_bound(args.dim, ls.ones_count, t, q)
        except ValueError:
            result["refined_index_bound"] = None
    lines = _scalars(result, "volume", "bpf_index", "gap_bound", "index_bound",
                     "refined_index_bound")
    if v < 0:  # after the volume line
        lines = [next(lines), "bpf_index = undefined (negative volume)", *lines]
    _emit(args, result, lines, coeffs=["one" if c.is_one else f"m:{c.m}" for c in args.coeffs])
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The one parser, built on the first call and reused: parsing leaves
    no state in it."""
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
    p.add_argument("denominators", type=_list_of(_int), help="comma-separated tuple, e.g. 2,3")
    p.add_argument("--at", type=_int, required=True, help="1-based position to split")

    p = add("enumerate", cmd_enumerate, "all k-term representations of a rational", tuples)
    p.add_argument("--sum", type=_rational, required=True, dest="sum")
    p.add_argument("--terms", type=_int, required=True)

    p = add("gap", cmd_gap, "forbidden-window width below k - delta")
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--q", type=_int, default=None, help="default: canonical q of delta")
    p.add_argument("--k", type=_int, default=None, help="also print the sharp sum bound")

    p = add("lcm-bound", cmd_lcm_bound, "lcm bound over the class summing to k - delta")
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--q", type=_int, default=None)

    p = add("extremal", cmd_extremal, "tuple attaining a sharp bound, if any", tuples)
    p.add_argument("--kind", choices=("gap", "lcm"), required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--q", type=_int, default=None)

    p = add("sylvester", cmd_sylvester, "generalized Sylvester values u and t = 1 + u")
    p.add_argument("--p", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--table", action="store_true", help="print all rows up to p")

    p = add("oracle", cmd_oracle, "exhaustive bound verification over a grid")
    p.add_argument("--k-max", type=_int, required=True, dest="k_max")
    p.add_argument("--delta-list", type=_list_of(_rational), required=True, dest="delta_list")
    p.add_argument("--q-mode", default="canonical", dest="q_mode",
                   help="'canonical' or 'all-upto:N'")
    p.add_argument("--budget", type=_int, default=DEFAULT_BUDGET,
                   help=f"node budget (default {DEFAULT_BUDGET})")

    p = add("geometry", cmd_geometry, "volume, clearing index, and bounds for a log structure")
    p.add_argument("--dim", type=_int, required=True)
    p.add_argument("--coeffs", type=_list_of(_coefficient), required=True,
                   help="comma-separated coefficients, e.g. 'm:2,m:3,one'")
    p.add_argument("--t", type=_rational, default=None, help="threshold (default: volume)")
    p.add_argument("--q", type=_int, default=None)

    return parser


def _plain_args(parser: _Parser, argv: list[str]) -> argparse.Namespace | None:
    """argv read from parser's own actions if it takes the plain form, with
    vars() equal to parse_args'; else None, left to parse_args for its
    help, version and error texts.

    The plain form is a command, then tokens that are exactly one of its
    option strings, each with one value (a flag takes none), or values of
    its positionals. A value may start with '-' only where the parser reads
    it as a negative number, and must pass the action's type and choices;
    every required action must be given. build_parser declares no other
    kind of action, and no string default that a type would convert.
    """
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    if not argv or argv[0] not in commands:
        return None
    sub = commands[argv[0]]
    values = {**sub._defaults, **{a.dest: a.default for a in sub._actions
                                  if a.default is not argparse.SUPPRESS}}
    positionals = [a for a in sub._actions if not a.option_strings]
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        action = sub._option_string_actions.get(token)
        if action is None:
            if not positionals:
                return None
            action, text = positionals.pop(0), token
        elif isinstance(action, argparse._StoreConstAction):  # a flag, never required
            values[action.dest] = action.const
            continue
        elif isinstance(action, argparse._StoreAction):
            text = next(tokens, None)
        else:  # -h, --help
            return None
        if text is None or text.startswith("-") and not sub._negative_number_matcher.match(text):
            return None
        try:
            value = action.type(text) if action.type else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        given.add(action)
    if any(a.required and a not in given for a in sub._actions):
        return None
    args = argparse.Namespace()
    vars(args).update(values)  # as Namespace(**values), without a setattr each
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one command with build_parser()'s cached parser; returns its
    exit code. Plain argv is read by _plain_args, anything else by
    argparse, with the same result."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(parser, argv)
    if args is None:
        try:
            args = parser.parse_args(argv)
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
    except ValueError as e:
        print(f"egyfrac: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
