"""Workloads of the egyfrac benchmark: op lists, warm-up and output checks.

Every op goes through the public API. `call` is the timed part and returns
the op's observed output (serialized report, captured CLI stdout, or library
values); `check` compares that output with a value fixed before timing
starts. An op "fails" when it raises, exits non-zero, exhausts its budget,
finds a counterexample or gives a wrong output; the last two also make the
run incorrect.

Workloads (the seed shuffles their order and draws the query parameters):

* window    -- `window_search` on every cell of k 1..7 x delta -1..4 step
               1/2 x q a multiple of the canonical q up to 4 (238 cells).
* lcm-class -- `max_lcm_search` on k 1..7 x delta 0..5 step 1/2 x q a
               multiple of the canonical q up to 2 (119 cells). delta = 11/2
               at k = 6, 7 is left out: it does not finish within minutes
               and the node budget does not stop it.
* query     -- everything that does no exhaustive search: in-process CLI
               calls in text/json/csv, extremal tuples and their families at
               delta up to 18, geometry bounds, identity checks and
               dominance-lemma pairs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent

import egyfrac  # noqa: E402  (the caller puts ROOT/src on sys.path)

if Path(egyfrac.__file__).resolve().parent != ROOT / "src" / "egyfrac":
    raise ImportError(f"egyfrac imported from {egyfrac.__file__}, not {ROOT / 'src'}")

from egyfrac import (  # noqa: E402
    bounds,
    cli,
    egyptian,
    geometry,
    majorization,
    oracle,
    rationals,
    report,
    sylvester,
)

WORKLOADS = ("window", "lcm-class", "query")
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    kind: str                    # 'window', 'lcm-class', 'cli' or 'lib'
    label: str                   # what the op does, for error messages
    call: Callable[[], Any]      # the timed part; returns the output
    check: Callable[[Any], str]  # OK, FAILED or WRONG for one output
    fmt: str = ""                # output format of a CLI op


# -- search workloads -------------------------------------------------------

WINDOW_DELTAS = [Fraction(i, 2) for i in range(-2, 9)]
LCM_DELTAS = [Fraction(i, 2) for i in range(0, 11)]


def grid(deltas, q_max: int) -> list[tuple[int, Fraction, int]]:
    """k 1..7 crossed with each delta and every multiple of its canonical q."""
    return [
        (k, d, q)
        for d in deltas
        for q in range(d.denominator, q_max + 1, d.denominator)
        for k in range(1, 8)
    ]


def cells(workload: str) -> list[tuple[int, Fraction, int]]:
    return grid(WINDOW_DELTAS, 4) if workload == "window" else grid(LCM_DELTAS, 2)


def cell_key(k: int, delta: Fraction, q: int) -> str:
    return f"{k} {delta} {q}"


def search_output(workload: str, k: int, delta: Fraction, q: int) -> str:
    """One search op: the search, its report dict, and the JSON text."""
    search = oracle.window_search if workload == "window" else oracle.max_lcm_search
    return json.dumps(report.report_to_dict(search(k, delta, q)))


def search_summary(text: str) -> dict:
    """The frozen part of a search report: witnesses in order, and max lcm."""
    d = json.loads(text)
    out = {"witnesses": [[w["denominators"], w["family"]] for w in d["equality_witnesses"]]}
    if "details" in d:
        out["max_lcm"] = d["details"]["max_lcm"]
    return out


def _search_op(workload: str, cell, frozen: dict) -> Op:
    def check(text) -> str:
        d = json.loads(text)
        if d["counterexamples"]:
            return WRONG
        if d.get("budget_exceeded"):
            return FAILED
        if not d["passed"] or search_summary(text) != frozen:
            return WRONG
        return OK

    return Op(workload, f"{workload} {cell_key(*cell)}",
              lambda: search_output(workload, *cell), check)


def _search_ops(workload: str, rng: random.Random) -> list[Op]:
    frozen = json.loads(EXPECTED_FILE.read_text())[workload]
    todo = cells(workload)
    rng.shuffle(todo)
    return [_search_op(workload, c, frozen[cell_key(*c)]) for c in todo]


# -- query workload ---------------------------------------------------------

def decimal(n: int) -> str:
    """str(n) for n >= 0 without CPython's int->str digit limit."""
    parts = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        parts.append(f"{low:01000d}")
    return str(n) + "".join(reversed(parts))


def rs(x) -> str:
    """Wire format of a rational, without the digit limit."""
    x = Fraction(x)
    num = ("-" if x < 0 else "") + decimal(abs(x.numerator))
    return num if x.denominator == 1 else f"{num}/{decimal(x.denominator)}"


def strs(t) -> list[str]:
    return [decimal(m) for m in t]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _json_rows(command: str, result: dict):
    if command == "enumerate":
        return result["tuples"]
    if command == "sylvester":
        return [[str(r["p"]), r["u"], r["t"]] for r in result["table"]]
    return [result["denominators"]]


def _cli_op(argv: list[str], fmt: str, scalars: dict, rows=None, json_only=None) -> Op:
    """A CLI call checked against the library's own values.

    scalars are the 'key = value' lines of text output and keys of the JSON
    result; rows are the tuple lines of text/csv output (JSON: the command's
    list field); json_only are further JSON result keys.
    """
    command = argv[0]
    argv = argv + ["--format", fmt]

    def check(out) -> str:
        rc, stdout, _ = out
        if rc != 0:
            return FAILED
        if fmt == "json":
            env = json.loads(stdout)
            res = env["result"]
            good = env["command"] == command and all(
                res.get(k) == v for k, v in {**scalars, **(json_only or {})}.items()
            )
            if rows is not None:
                good = good and _json_rows(command, res) == rows
        elif fmt == "csv":
            good = [line.split(",") for line in stdout.splitlines()] == rows
        else:
            got, got_rows = {}, []
            for line in stdout.splitlines():
                if " = " in line:
                    key, value = line.split(" = ", 1)
                    got[key] = value
                else:
                    got_rows.append(line.split())
            good = got == scalars and got_rows == (rows or [])
        return OK if good else WRONG

    return Op("cli", " ".join(argv), lambda: run_cli(argv), check, fmt)


def _lib_op(label: str, call, expected) -> Op:
    return Op("lib", label, call, lambda out: OK if out == expected else WRONG)


def _half(rng, lo: int, hi: int) -> Fraction:
    """A random multiple of 1/2 in [lo, hi]."""
    return Fraction(rng.randint(2 * lo, 2 * hi), 2)


def _s(delta: Fraction) -> int:
    return math.floor(delta) + 1


def _extremal_tuple(kind: str, k: int, delta: Fraction, q: int):
    """The paper's extremal tuples, written out from the companion values."""
    d = rationals.srq_decompose(delta, q)
    u = sylvester.sylvester_u
    if kind == "gap":
        tail = [(1 + u(i, q)) // d.r for i in range(1, d.s + 1)]
    else:
        tail = [(1 + u(i, q)) // d.r for i in range(1, d.s)] + [u(d.s, q) // d.r]
    return (1,) * (k - d.s) + tuple(tail)


def _family(kind: str, delta: Fraction, q: int) -> str:
    d = rationals.srq_decompose(delta, q)
    if kind == "lcm":
        return "TWO_TERM_LCM" if d.s == 2 and d.r > 1 else "SYLVESTER_LCM"
    if delta < 0:
        return "NEGATIVE_DELTA"
    return "FRACTIONAL_DELTA" if delta < 1 else "SYLVESTER_GAP"


def _extremal_classify(kind: str, k: int, delta: Fraction, q: int):
    make = bounds.extremal_gap_tuple if kind == "gap" else bounds.extremal_lcm_tuple
    t = make(k, delta, q)
    case = bounds.classify_equality(t, delta, q)
    return t, case.tag.value, case.witness == t


def _coefficients(rng, dim: int) -> list[str]:
    """Coefficient tokens with nonnegative volume: 2(dim+1) or more entries,
    each at least 1/2."""
    n = 2 * (dim + 1) + rng.randint(0, 1)
    return ["one" if rng.random() < 0.15 else f"m:{rng.randint(2, 12)}" for _ in range(n)]


def _structure(dim: int, tokens: list[str]) -> geometry.LogStructure:
    coeffs = [geometry.ONE if t == "one" else geometry.finite(int(t[2:])) for t in tokens]
    return geometry.LogStructure(dim, tuple(coeffs))


def _geometry_lib(dim: int, ones: int, t: Fraction, q: int, ls):
    return (
        geometry.gap_bound(dim, t, q),
        geometry.index_bound(dim, t, q),
        geometry.refined_index_bound(dim, ones, t, q),
        geometry.bpf_index(ls),
    )


def _identities(p_max: int, q_max: int):
    rep = sylvester.check_identities(p_max, q_max)
    return rep.passed, rep.stats.nodes, len(rep.counterexamples)


def _pairs(kind: str, seed: int, n: int) -> list:
    make = (majorization.random_prefix_dominated_pair if kind == "prefix"
            else majorization.random_suffix_dominated_pair)
    rng = random.Random(seed)
    return [make(rng) for _ in range(n)]


def _dominance(kind: str, seed: int, n: int) -> list[bool]:
    conclude = (majorization.sum_dominance_conclusion if kind == "prefix"
                else majorization.product_dominance_conclusion)
    return [conclude(x, y) for x, y in _pairs(kind, seed, n)]


# CLI calls on both sides of CPython's 4300-digit int->str limit. When the
# benchmark was added, the second of each pair exited 1 ("Exceeds the
# limit"); such ops count as failed. The benchmark never raises the limit,
# since the in-process CLI would inherit it.
DIGIT_LIMIT_CASES = [
    (["gap", "--delta", "13"], ["gap", "--delta", "14"]),
    (["sylvester", "--p", "15", "--q", "1"], ["sylvester", "--p", "16", "--q", "1"]),
    (["sylvester", "--p", "14", "--q", "2"], ["sylvester", "--p", "15", "--q", "2"]),
]
DEEP_DELTAS = [Fraction(d) for d in (14, 15, 16, 17, 18)] + [
    Fraction(d, 2) for d in (31, 33, 35)
]


def _gap_cli(delta, q, k, fmt) -> Op:
    argv = ["gap", "--delta", str(delta), "--q", str(q)]
    scalars = {"gap": rs(bounds.gap_amount(delta, q))}
    if k is not None:
        argv += ["--k", str(k)]
        scalars["sharp_sum_bound"] = rs(bounds.sharp_sum_bound(k, delta, q))
    return _cli_op(argv, fmt, scalars)


def _sylvester_cli(p, q, fmt) -> Op:
    u = sylvester.sylvester_u(p, q)
    return _cli_op(["sylvester", "--p", str(p), "--q", str(q)], fmt,
                   {"u": decimal(u), "t": decimal(u + 1)})


def _query_ops(rng: random.Random) -> list[Op]:
    fmts = ("text", "json")
    ops: list[Op] = []

    for _ in range(12):
        delta = _half(rng, -1, 11)
        q = delta.denominator * rng.choice((1, 2))
        ops.append(_gap_cli(delta, q, rng.choice((None, rng.randint(1, 8))), rng.choice(fmts)))
    for fmt in fmts:
        for low, high in DIGIT_LIMIT_CASES:
            for argv in (low, high):
                if argv[0] == "gap":
                    ops.append(_gap_cli(Fraction(argv[2]), 1, None, fmt))
                else:
                    ops.append(_sylvester_cli(int(argv[2]), int(argv[4]), fmt))
    for _ in range(8):
        delta = _half(rng, 0, 11)
        q = delta.denominator * rng.choice((1, 2))
        ops.append(_cli_op(["lcm-bound", "--delta", str(delta), "--q", str(q)],
                           rng.choice(fmts), {"lcm_bound": rs(bounds.lcm_bound(delta, q))}))
    for _ in range(12):
        kind = rng.choice(("gap", "lcm"))
        delta = _half(rng, -1 if kind == "gap" else 0, 8)
        k = max(1, _s(delta)) + rng.randint(0, 3)
        q = delta.denominator
        t = _extremal_tuple(kind, k, delta, q)
        bound = bounds.sharp_sum_bound(k, delta, q) if kind == "gap" else bounds.lcm_bound(delta, q)
        ops.append(_cli_op(
            ["extremal", "--kind", kind, "--k", str(k), "--delta", str(delta)],
            rng.choice(("text", "json", "csv")), {}, [strs(t)],
            {"family": _family(kind, delta, q), "bound": rs(bound)},
        ))
    for _ in range(6):
        ops.append(_sylvester_cli(rng.randint(1, 12), rng.randint(1, 3), rng.choice(fmts)))
    for _ in range(4):
        p, q = rng.randint(1, 10), rng.randint(1, 3)
        rows = [[str(i), decimal(sylvester.sylvester_u(i, q)), decimal(sylvester.sylvester_term(i, q))]
                for i in range(1, p + 1)]
        ops.append(_cli_op(["sylvester", "--p", str(p), "--q", str(q), "--table"],
                           rng.choice(fmts), {}, rows))
    for _ in range(6):
        dim = rng.randint(1, 2)
        tokens = _coefficients(rng, dim)
        ls = _structure(dim, tokens)
        v = geometry.volume(ls)
        q = rationals.canonical_q(v)
        scalars = {
            "volume": rs(v),
            "bpf_index": str(geometry.bpf_index(ls)),
            "gap_bound": rs(geometry.gap_bound(dim, v, q)),
            "index_bound": rs(geometry.index_bound(dim, v, q)),
        }
        with contextlib.suppress(ValueError):
            scalars["refined_index_bound"] = rs(
                geometry.refined_index_bound(dim, ls.ones_count, v, q))
        ops.append(_cli_op(["geometry", "--dim", str(dim), "--coeffs", ",".join(tokens)],
                           rng.choice(fmts), scalars))
    for _ in range(8):
        den = rng.randint(2, 40)
        x = Fraction(rng.randint(1, 2 * den), den)
        ops.append(_cli_op(["greedy", str(x)], rng.choice(("text", "json", "csv")), {},
                           [strs(egyptian.greedy(x))], {"sum": rs(x)}))
    for _ in range(4):
        t = sorted(rng.randint(2, 9) for _ in range(rng.randint(1, 4)))
        at = rng.randint(1, len(t))
        ops.append(_cli_op(["split", ",".join(map(str, t)), "--at", str(at)],
                           rng.choice(("text", "json", "csv")), {},
                           [strs(egyptian.split_expand(t, at - 1))]))
    for _ in range(4):
        x = rng.choice((Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4),
                        Fraction(5, 6), Fraction(3, 2)))
        terms = rng.randint(2, 4 if x == 1 else 3)
        tuples = egyptian.enumerate_exact(x, terms)
        ops.append(_cli_op(["enumerate", "--sum", str(x), "--terms", str(terms)],
                           rng.choice(("text", "json", "csv")), {},
                           [strs(t) for t in tuples], {"count": len(tuples)}))

    deep = [(kind, d) for d in DEEP_DELTAS for kind in ("gap", "lcm")]
    shallow = []
    for _ in range(12):
        kind = rng.choice(("gap", "lcm"))
        shallow.append((kind, _half(rng, -1 if kind == "gap" else 0, 12)))
    for kind, delta in deep + shallow:
        q = delta.denominator
        k = max(1, _s(delta)) + rng.randint(0, 2)
        t = _extremal_tuple(kind, k, delta, q)
        ops.append(_lib_op(
            f"extremal_{kind}_tuple+classify_equality k={k} delta={delta} q={q}",
            lambda a=(kind, k, delta, q): _extremal_classify(*a),
            (t, _family(kind, delta, q), True),
        ))
    for _ in range(10):
        dim = rng.randint(1, 3)
        ones = rng.randint(0, dim)
        t = _half(rng, 0, 4)
        q = t.denominator * rng.choice((1, 2))
        ls = _structure(dim, _coefficients(rng, dim))
        expected = (
            bounds.gap_amount(t + dim + 1, q),
            bounds.lcm_bound(t + dim + 1, q),
            bounds.lcm_bound(t + dim - ones + 1, q),
            math.lcm(*ls.finite_denominators),
        )
        ops.append(_lib_op(f"geometry bounds dim={dim} ones={ones} t={t} q={q}",
                           lambda a=(dim, ones, t, q, ls): _geometry_lib(*a), expected))
    for _ in range(4):
        p_max, q_max = rng.randint(2, 8), rng.randint(1, 3)
        ops.append(_lib_op(f"check_identities {p_max} {q_max}",
                           lambda a=(p_max, q_max): _identities(*a), (True, p_max * q_max, 0)))
    for kind in ("prefix", "suffix"):
        for _ in range(20):
            seed = rng.getrandbits(32)
            expected = [x != y for x, y in _pairs(kind, seed, 10)]
            ops.append(_lib_op(f"{kind} dominance seed={seed}",
                               lambda a=(kind, seed): _dominance(*a, 10), expected))

    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The fixed op list of one pass, drawn from the seed."""
    rng = random.Random(seed)
    if workload == "query":
        return _query_ops(rng)
    return _search_ops(workload, rng)


def warm_up(workload: str) -> None:
    """A fixed, seed-independent first call of each code path."""
    if workload in ("window", "lcm-class"):
        search_output(workload, 3, Fraction(1), 1)
        return
    for argv in (["gap", "--delta", "2", "--k", "3"], ["lcm-bound", "--delta", "2"],
                 ["extremal", "--kind", "gap", "--k", "3", "--delta", "2"],
                 ["sylvester", "--p", "5", "--q", "1", "--table"],
                 ["geometry", "--dim", "1", "--coeffs", "m:2,m:3,m:7"],
                 ["greedy", "9/20"], ["split", "2,3", "--at", "2"],
                 ["enumerate", "--sum", "1", "--terms", "3"]):
        for fmt in ("text", "json"):
            run_cli(argv + ["--format", fmt])
    _extremal_classify("lcm", 3, Fraction(2), 1)
    _geometry_lib(1, 0, Fraction(1), 1, _structure(1, ["m:2", "m:3", "m:7", "one"]))
    _identities(2, 1)
    _dominance("prefix", 0, 1)
    _dominance("suffix", 0, 1)
