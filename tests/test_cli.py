"""End-to-end CLI behavior through main(argv): formats, exit codes, env."""

import argparse
import contextlib
import doctest
import functools
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egyfrac import __version__, cli, report
from egyfrac.bounds import EqualityCase, EqualityFamily
from egyfrac.cli import main
from egyfrac.egyptian import enumerate_exact
from egyfrac.rationals import parse_rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_greedy_text(capsys):
    code, out, err = run(capsys, "greedy", "5/6")
    assert code == 0
    assert out == "2 3\n"
    assert err == ""


def test_greedy_json_envelope(capsys):
    code, out, _ = run(capsys, "greedy", "9/20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "result", "version"}
    assert payload["command"] == "greedy"
    assert payload["inputs"] == {"x": "9/20"}
    assert payload["version"] == __version__
    assert payload["result"]["denominators"] == ["3", "9", "180"]
    assert payload["result"]["terms"] == 3
    assert parse_rational(payload["result"]["sum"]) == parse_rational("9/20")


def test_greedy_csv(capsys):
    code, out, _ = run(capsys, "greedy", "5/6", "--format", "csv")
    assert code == 0
    assert out == "2,3\n"


def test_split_one_based_position(capsys):
    code, out, _ = run(capsys, "split", "2,3", "--at", "2")
    assert code == 0
    assert out == "2 4 12\n"
    code, _, err = run(capsys, "split", "2,3", "--at", "3")
    assert code == 1
    assert err.startswith("egyfrac: error:")


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--sum", "1", "--terms", "3",
                       "--format", "csv")
    assert code == 0
    assert out == "2,3,6\n2,4,4\n3,3,3\n"


def test_enumerate_json_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--sum", "1/2", "--terms", "2",
                       "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == 2
    assert result["tuples"] == [["3", "6"], ["4", "4"]]


def test_enumerate_past_its_budget_exits_1(capsys, monkeypatch):
    # the default budget of 10^6 nodes takes seconds to exhaust, so the
    # command is run here against a small one
    monkeypatch.setattr(cli, "enumerate_exact", functools.partial(enumerate_exact, budget=100))
    code, out, err = run(capsys, "enumerate", "--sum", "1", "--terms", "9")
    assert code == 1
    assert out == ""
    assert err.startswith("egyfrac: error: enumeration ran out of its budget of 100 nodes after ")


def test_gap_with_bound(capsys):
    code, out, _ = run(capsys, "gap", "--delta", "2", "--k", "3")
    assert code == 0
    assert out == "gap = 1/42\nsharp_sum_bound = 41/42\n"


def test_module_runs_main_on_its_own_argv():
    # python -m egyfrac.cli: the __main__ guard calls main(), which reads
    # sys.argv itself
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "egyfrac.cli", "gap", "--delta", "2", "--k", "3"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "gap = 1/42\nsharp_sum_bound = 41/42\n", ""
    )


def test_gap_domain_errors(capsys):
    code, _, err = run(capsys, "gap", "--delta", "-2")
    assert code == 1
    assert "delta" in err
    code, _, err = run(capsys, "gap", "--delta", "1/2", "--q", "3")
    assert code == 1


@pytest.mark.parametrize(
    "argv", [("gap", "--delta", "40"), ("sylvester", "--p", "60", "--q", "1")]
)
def test_values_past_the_bit_ceiling_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("egyfrac: error:")
    assert "bit ceiling" in err


@pytest.mark.parametrize("argv, name", [
    (("greedy", "1" + "0" * 30), "x"),
    (("greedy", "2097153/2"), "x"),
    (("extremal", "--kind", "gap", "--k", "1" + "0" * 30, "--delta", "2"), "k"),
    (("extremal", "--kind", "lcm", "--k", "1048577", "--delta", "2"), "k"),
], ids=["greedy-huge", "greedy-past-ceiling", "extremal-gap-huge", "extremal-lcm-past-ceiling"])
def test_counts_past_the_term_ceiling_exit_1(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    value = argv[1] if name == "x" else argv[4]
    assert err == (f"egyfrac: error: {name} = {value} asks for more than "
                   "MAX_TERMS = 1048576 terms\n")


def test_lcm_bound(capsys):
    code, out, _ = run(capsys, "lcm-bound", "--delta", "2")
    assert code == 0
    assert out == "lcm_bound = 6\n"
    code, _, _ = run(capsys, "lcm-bound", "--delta", "-1/2")
    assert code == 1


def test_extremal_present(capsys):
    code, out, _ = run(capsys, "extremal", "--kind", "lcm", "--k", "4",
                       "--delta", "3/2", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["denominators"] == ["1", "1", "3", "6"]
    assert result["bound"] == "6"
    assert result["lcm"] == "6"
    assert result["family"] == "SYLVESTER_LCM"


def test_extremal_absent(capsys):
    code, out, _ = run(capsys, "extremal", "--kind", "gap", "--k", "2",
                       "--delta", "1", "--q", "2")
    assert code == 0
    assert out == "absent\n"
    code, out, _ = run(capsys, "extremal", "--kind", "gap", "--k", "2",
                       "--delta", "1", "--q", "2", "--format", "csv")
    assert code == 0
    assert out == ""


_DEEP_EXTREMAL = {
    # kind: (denominators, sum, lcm, family) at k = 8, delta = 6
    "gap": ("1 2 3 7 43 1807 3263443 10650056950807",
            "226847426110843688722000883/113423713055421844361000442",
            "113423713055421844361000442", "SYLVESTER_GAP"),
    "lcm": ("1 2 3 7 43 1807 3263443 10650056950806", "2", "10650056950806",
            "SYLVESTER_LCM"),
}


def test_greedy_reports_x_as_its_sum(capsys, monkeypatch):
    # greedy is exact by construction, so the reported sum is x itself and
    # the tuple is never summed
    sums = []
    real = cli.tuple_sum

    def counted(t):
        sums.append(1)
        return real(t)

    monkeypatch.setattr(cli, "tuple_sum", counted)
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, "greedy", "7/2", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            result = json.loads(out)["result"]
            assert result == {"denominators": ["1", "1", "1", "2"], "terms": 4, "sum": "7/2"}
        else:
            sep = "," if fmt == "csv" else " "
            assert out == sep.join("1112") + "\n"
    assert sums == []


@pytest.mark.parametrize("kind", ["gap", "lcm"])
def test_extremal_sums_its_tuple_once(capsys, monkeypatch, kind):
    # only in the constructor's assert: classify_equality matches by
    # structure, and the reported sum is the one the requested kind fixes;
    # text and csv print only the tuple, so convert no rational, and json
    # converts delta, the bound and the sum, which for gap is the bound
    # again
    sums, strs = [], []
    real = cli.tuple_sum

    def counted(t):
        sums.append(1)
        return real(t)

    def counted_str(value=""):
        if type(value) is Fraction:
            strs.append(value)
        return str(value)

    monkeypatch.setattr("egyfrac.bounds.tuple_sum", counted)
    monkeypatch.setattr(cli, "tuple_sum", counted)
    monkeypatch.setattr(report, "str", counted_str, raising=False)
    denominators, total, lcm, family = _DEEP_EXTREMAL[kind]
    bound = total if kind == "gap" else lcm  # each tuple attains its bound
    argv = ["extremal", "--kind", kind, "--k", "8", "--delta", "6"]
    for fmt in ("text", "json", "csv"):
        sums.clear()
        strs.clear()
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert len(sums) == (1 if __debug__ else 0), fmt
        assert len(strs) == (3 if fmt == "json" else 0), fmt
        if fmt == "json":
            result = json.loads(out)["result"]
            assert list(result.items()) == [
                ("kind", kind), ("bound", bound),
                ("denominators", denominators.split()),
                ("sum", total), ("lcm", lcm), ("family", family),
            ]
        else:
            sep = "," if fmt == "csv" else " "
            assert out == sep.join(denominators.split()) + "\n"


def test_extremal_sums_an_unclassified_tuple(capsys, monkeypatch):
    monkeypatch.setattr(cli, "classify_equality",
                        lambda t, delta, q: EqualityCase(EqualityFamily.NONE))
    code, out, _ = run(capsys, "extremal", "--kind", "gap", "--k", "3",
                       "--delta", "2", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["sum"], result["family"]) == ("41/42", "NONE")


def test_sylvester_table(capsys):
    code, out, _ = run(capsys, "sylvester", "--p", "3", "--q", "1", "--table")
    assert code == 0
    assert out == "1 1 2\n2 2 3\n3 6 7\n"
    code, out, _ = run(capsys, "sylvester", "--p", "4", "--q", "1",
                       "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"u": "42", "t": "43"}  # big values travel as strings
    code, out, _ = run(capsys, "sylvester", "--p", "3", "--q", "1", "--table",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["table"] == [  # p stays a number
        {"p": 1, "u": "1", "t": "2"}, {"p": 2, "u": "2", "t": "3"},
        {"p": 3, "u": "6", "t": "7"},
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ["sylvester", "--p", "0", "--q", "1"],
    ["sylvester", "--p", "-3", "--q", "0"],
])
def test_sylvester_table_rejects_what_the_single_value_rejects(capsys, argv, fmt):
    single = run(capsys, *argv, "--format", fmt)
    assert single[:2] == (1, "")
    assert single[2].startswith("egyfrac: error: ")
    assert run(capsys, *argv, "--table", "--format", fmt) == single


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(0, 10**60),
    # a head, then a run of trailing 9s that the carry must clear
    st.builds(lambda head, nines: head * 10**nines + 10**nines - 1,
              st.integers(0, 10**6), st.integers(0, 200)),
))
@example(0)
@example(9)
@example(10**300 - 1)
def test_successor_is_the_decimal_of_u_plus_1(u):
    assert cli._successor(str(u)) == str(u + 1)


@pytest.mark.parametrize("q, t", [("9", "10"), ("99", "100"), ("199", "200")])
def test_sylvester_carries_t_from_u(capsys, q, t):
    argv = ["sylvester", "--p", "1", "--q", q]
    assert run(capsys, *argv) == (0, f"u = {q}\nt = {t}\n", "")
    assert run(capsys, *argv, "--table") == (0, f"1 {q} {t}\n", "")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert (code, json.loads(out)["result"]) == (0, {"u": q, "t": t})
    code, out, _ = run(capsys, *argv, "--table", "--format", "json")
    assert (code, json.loads(out)["result"]) == (0, {"table": [{"p": 1, "u": q, "t": t}]})


def test_sylvester_digit_limit_holds_for_u_only(capsys):
    # u is converted by str, so the interpreter's digit limit still refuses
    # u(16, 1), of 6,671 digits; t is carried from u's digits, so a u at
    # the limit prints its t of one digit more
    assert sys.get_int_max_str_digits() == 4300, "the interpreter's default limit"
    nines = "9" * 4300
    t = "1" + "0" * 4300
    assert run(capsys, "sylvester", "--p", "1", "--q", nines) == (
        0, f"u = {nines}\nt = {t}\n", "")
    code, out, _ = run(capsys, "sylvester", "--p", "1", "--q", nines, "--table",
                       "--format", "json")
    assert (code, json.loads(out)["result"]["table"][0]["t"]) == (0, t)
    for table in ((), ("--table",)):
        code, out, err = run(capsys, "sylvester", "--p", "16", "--q", "1", *table)
        assert (code, out) == (1, "")
        assert re.match(r"egyfrac: error: Exceeds the limit \(4300( digits)?\) "
                        "for integer string conversion", err), err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_late_line_past_the_digit_limit_leaves_stdout_empty(capsys, fmt):
    # the gap, 1/u(15, 1) of 3,336 digits, converts; the sharp sum bound at
    # k = 10^1000 has a numerator of about 4,336 digits and does not, so
    # every line must be built before the first is printed
    code, out, err = run(capsys, "gap", "--delta", "13", "--k", "1" + "0" * 1000,
                         "--format", fmt)
    assert (code, out) == (1, "")
    assert re.match(r"egyfrac: error: Exceeds the limit \(4300( digits)?\) "
                    "for integer string conversion", err), err


@pytest.fixture
def converted(monkeypatch):
    """The ints cli and report convert through str, in call order: a
    counting str in each namespace, over the builtin."""
    seen = []
    builtin = str

    def counting(value=""):
        if type(value) is int:
            seen.append(value)
        return builtin(value)

    monkeypatch.setattr(cli, "str", counting, raising=False)
    monkeypatch.setattr(report, "str", counting, raising=False)
    return seen


def _extremal_ints(kind):
    denominators, _, lcm, _ = _DEEP_EXTREMAL[kind]
    return [*map(int, denominators.split()), int(lcm)]


_CONVERTED = [
    # argv, then the ints converted (in any order) in text and csv, which
    # convert only what they print, and in json, whose envelope carries
    # them as strings; extremal converts its lcm in every format
    (["greedy", "7/2"], [1, 1, 1, 2], [1, 1, 1, 2]),
    (["split", "2,3", "--at", "2"], [2, 4, 12], [2, 3, 2, 4, 12]),
    (["enumerate", "--sum", "1", "--terms", "3"],
     [2, 3, 6, 2, 4, 4, 3, 3, 3], [2, 3, 6, 2, 4, 4, 3, 3, 3]),
    (["extremal", "--kind", "gap", "--k", "8", "--delta", "6"],
     _extremal_ints("gap"), _extremal_ints("gap")),
    (["extremal", "--kind", "lcm", "--k", "8", "--delta", "6"],
     _extremal_ints("lcm"), _extremal_ints("lcm")),
]


@pytest.mark.parametrize("argv, printed, envelope", _CONVERTED,
                         ids=["greedy", "split", "enumerate", "extremal-gap", "extremal-lcm"])
def test_each_printed_integer_is_converted_once(capsys, converted, argv, printed, envelope):
    for fmt in ("text", "json", "csv"):  # each of these commands takes csv
        converted.clear()
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert sorted(converted) == sorted(envelope if fmt == "json" else printed), fmt


def test_sylvester_converts_each_u_once_and_no_t(capsys, converted):
    us = [10]  # u(1..5, 10), none equal to a row number or a t
    while len(us) < 5:
        us.append(us[-1] * (us[-1] + 1))
    for table in ((), ("--table",)):
        for fmt in ("text", "json"):
            converted.clear()
            code, out, _ = run(capsys, "sylvester", "--p", "5", "--q", "10", *table,
                               "--format", fmt)
            assert code == 0
            want = us if table else us[-1:]
            if table and fmt == "text":
                want = [*want, 1, 2, 3, 4, 5]  # the row numbers p, printed as text
            assert sorted(converted) == sorted(want), (table, fmt)
            assert str(us[-1] + 1) in out


def test_version_and_usage_errors(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == f"egyfrac {__version__}"
    code, _, err = run(capsys)  # no subcommand
    assert code == 1
    assert "usage" in err
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    code, _, err = run(capsys, "greedy", "1.5")
    assert code == 1
    assert "malformed rational" in err
    code, _, err = run(capsys, "split", "2,x", "--at", "1")
    assert code == 1
    assert "argument denominators: malformed integer literal: 'x'" in err


# integers that Python's int() reads but the wire format refuses: an
# underscore, a space and non-ASCII digits (Arabic-Indic 2 and 7)
@pytest.mark.parametrize("argv, message", [
    (["gap", "--delta", "2", "--k", "1_0"], "argument --k: malformed integer literal: '1_0'"),
    (["gap", "--delta", "2", "--k", " 3"], "argument --k: malformed integer literal: ' 3'"),
    (["split", "2,3", "--at", "\u0662"], "argument --at: malformed integer literal: '\u0662'"),
    (["geometry", "--dim", "1", "--coeffs", "m:\u0667"],
     "argument --coeffs: bad coefficient token 'm:\u0667'"),
    # a coefficient token is not stripped, as an integer is not
    (["geometry", "--dim", "1", "--coeffs", " m:2,m:3 ,m:7"],
     "argument --coeffs: bad coefficient token ' m:2'"),
    (["geometry", "--dim", "1", "--coeffs", "one "],
     "argument --coeffs: bad coefficient token 'one '"),
    (["oracle", "--k-max", "1", "--delta-list", "1", "--q-mode", "all-upto:1_0"],
     "egyfrac: error: malformed q mode: 'all-upto:1_0'"),
], ids=["gap-k-underscore", "gap-k-space", "split-at-digit", "geometry-coeff-digit",
        "geometry-coeff-leading-space", "geometry-coeff-trailing-space",
        "oracle-q-mode-underscore"])
def test_integers_outside_the_wire_format_are_refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert message in err.splitlines()[-1]


def test_zero_denominator_usage_error(capsys):
    code, _, err = run(capsys, "greedy", "1/0")
    assert code == 1
    assert "argument x: zero denominator in '1/0'" in err
    code, _, err = run(capsys, "oracle", "--k-max", "2", "--delta-list", "0,1/0")
    assert code == 1
    assert "argument --delta-list: zero denominator in '1/0'" in err


def test_closed_stdout_pipe_exits_quietly(capsys, monkeypatch):
    # a reader that has gone away, as with `egyfrac oracle ... | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed_pipe:
        monkeypatch.setattr(sys, "stdout", closed_pipe)
        code = main(["oracle", "--k-max", "3", "--delta-list", "-1,0,1/2,1"])
        monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == ""


def test_csv_unsupported_command(capsys):
    code, _, err = run(capsys, "gap", "--delta", "2", "--format", "csv")
    assert code == 1
    assert "csv" in err


def test_csv_refused_before_the_command_runs(capsys, monkeypatch):
    def no_sweep(config):
        raise AssertionError("sweep ran although csv is refused")

    monkeypatch.setattr("egyfrac.cli.sweep", no_sweep)
    code, out, err = run(capsys, "oracle", "--k-max", "6", "--delta-list",
                         "0,1/2,1,3/2,2,5/2,3,7/2,4", "--q-mode", "all-upto:4",
                         "--format", "csv")
    assert code == 1
    assert out == ""
    assert "argument --format: invalid choice: 'csv'" in err


@pytest.mark.parametrize("at", ["0", "3"])
def test_split_position_outside_the_tuple(capsys, at):
    code, out, err = run(capsys, "split", "2,3", "--at", at)
    assert code == 1
    assert out == ""
    assert err == f"egyfrac: error: --at {at} is outside 1..2, the positions of 2 entries\n"


CSV_COMMANDS = {"greedy", "split", "enumerate", "extremal"}


@pytest.mark.parametrize("argv, inputs", [
    (["greedy", "9/20"], {"x": "9/20"}),
    (["split", "2,3", "--at", "2"], {"denominators": ["2", "3"], "at": 2}),
    (["enumerate", "--sum", "1", "--terms", "3"], {"sum": "1", "terms": 3}),
    (["gap", "--delta", "1/2"], {"delta": "1/2", "q": 2, "k": None}),
    (["lcm-bound", "--delta", "5/2", "--q", "4"], {"delta": "5/2", "q": 4}),
    (["extremal", "--kind", "lcm", "--k", "4", "--delta", "3/2"],
     {"kind": "lcm", "k": 4, "delta": "3/2", "q": 2}),
    (["sylvester", "--p", "3", "--q", "2"], {"p": 3, "q": 2, "table": False}),
    (["oracle", "--k-max", "2", "--delta-list", "0,1/2"],
     {"k_max": 2, "delta_list": ["0", "1/2"], "q_mode": "canonical", "budget": 100000000}),
    (["geometry", "--dim", "1", "--coeffs", "m:2,m:3,m:7,one"],
     {"dim": 1, "coeffs": ["m:2", "m:3", "m:7", "one"], "t": "43/42", "q": 42}),
    # forms that argparse reads, not _plain_args: the same inputs, in the
    # same order
    (["gap", "--delta=1/2"], {"delta": "1/2", "q": 2, "k": None}),
    (["oracle", "--k-max=2", "--delta-list=0,1/2"],
     {"k_max": 2, "delta_list": ["0", "1/2"], "q_mode": "canonical", "budget": 100000000}),
    (["geometry", "--dim=1", "--coeffs=m:2,m:3,m:7,one"],
     {"dim": 1, "coeffs": ["m:2", "m:3", "m:7", "one"], "t": "43/42", "q": 42}),
    (["lcm-bound", "--del", "5/2", "--q", "4"], {"delta": "5/2", "q": 4}),
    # coefficients travel as canonical tokens, not as typed
    (["geometry", "--dim", "1", "--coeffs", "m:+2,m:07,one"],
     {"dim": 1, "coeffs": ["m:2", "m:7", "one"], "t": "5/14", "q": 14}),
    # a negative volume resolves no threshold, so t and q stay unset
    (["geometry", "--dim", "1", "--coeffs", "m:2,one"],
     {"dim": 1, "coeffs": ["m:2", "one"], "t": None, "q": None}),
])
def test_json_inputs_and_csv_offer(capsys, argv, inputs):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)["inputs"].items()) == list(inputs.items())  # order too
    code, _, err = run(capsys, *argv, "--format", "csv")
    assert (code == 0) == (argv[0] in CSV_COMMANDS)
    assert ("invalid choice: 'csv'" in err) == (argv[0] not in CSV_COMMANDS)


def test_oracle_pass_json(capsys):
    code, out, _ = run(capsys, "oracle", "--k-max", "3", "--delta-list",
                       "0,1/2,2", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["passed"] is True
    assert result["counterexamples"] == []
    witnessed = {tuple(w["denominators"]) for w in result["equality_witnesses"]}
    assert ("2", "3", "7") in witnessed
    assert ("2", "3", "6") in witnessed
    assert all(w["family"] != "NONE" for w in result["equality_witnesses"])


def test_oracle_budget_flag_exit_2(capsys):
    code, out, _ = run(capsys, "oracle", "--k-max", "4", "--delta-list", "2",
                       "--budget", "5")
    assert code == 2
    assert "budget_exceeded = true" in out


def test_oracle_ignores_the_environment(capsys, monkeypatch):
    # the budget comes from argv alone, so a budget-like variable in the
    # environment leaves the README grid's default-budget run unchanged
    monkeypatch.setenv("EGYFRAC_ORACLE_BUDGET", "5")
    code, out, _ = run(capsys, "oracle", "--k-max", "3", "--delta-list", "-1,0,1/2,1")
    assert code == 0
    assert "nodes = 68" in out.splitlines()


def test_oracle_prints_each_counterexample(capsys, monkeypatch):
    monkeypatch.setattr("egyfrac.oracle._family", lambda t, d: EqualityFamily.NONE)
    argv = ["oracle", "--k-max", "3", "--delta-list", "2"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (2, "")
    assert out.splitlines()[-2:] == [
        f"counterexample: {kind} equality witness left unclassified values=[2, 3, {m}] "
        "delta=2 q=1"
        for kind, m in (("gap", 7), ("lcm", 6))
    ]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (2, "")
    result = json.loads(out)["result"]
    assert result["passed"] is False
    assert result["counterexamples"] == [
        {"claim": f"{kind} equality witness left unclassified",
         "values": values, "delta": "2", "q": 1}
        for kind, values in (("gap", ["2", "3", "7"]), ("lcm", ["2", "3", "6"]))
    ]


def test_oracle_rejects_delta_left_without_q(capsys):
    # delta=1/2 needs q=2, so all-upto:1 would check delta=1 alone
    code, out, err = run(capsys, "oracle", "--k-max", "2", "--delta-list",
                         "1,1/2", "--q-mode", "all-upto:1")
    assert code == 1
    assert out == ""
    assert "leaves no q for delta=1/2" in err


def test_oracle_text_is_byte_deterministic(capsys):
    argv = ("oracle", "--k-max", "3", "--delta-list", "-1,0,1")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # text output carries no timing


def test_oracle_json_deterministic_modulo_millis(capsys):
    argv = ("oracle", "--k-max", "3", "--delta-list", "1,2", "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    p1, p2 = json.loads(out1), json.loads(out2)
    p1["result"]["stats"]["millis"] = p2["result"]["stats"]["millis"] = 0
    assert p1 == p2


def test_geometry_json(capsys):
    code, out, _ = run(capsys, "geometry", "--dim", "2", "--coeffs",
                       "m:2,m:3,m:4,one,one", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["volume"] == "11/12"
    assert result["deficiency"] == "23/12"
    assert result["bpf_index"] == "12"
    assert result["t"] == "11/12"  # defaults to the volume
    assert result["q"] == 12
    assert result["gap_bound"] == "1/359859081592975692"
    assert result["index_bound"] == "599882556"
    assert result["refined_index_bound"] == "156"


def test_geometry_negative_volume(capsys):
    code, out, _ = run(capsys, "geometry", "--dim", "1", "--coeffs", "m:2,one")
    assert code == 0
    assert "volume = -1/2" in out
    assert "bpf_index = undefined (negative volume)" in out
    assert "gap_bound" not in out  # no default threshold below zero


def test_geometry_explicit_threshold(capsys):
    code, out, _ = run(capsys, "geometry", "--dim", "1", "--coeffs",
                       "m:2,m:3,m:7", "--t", "0")
    assert code == 0
    assert "gap_bound = 1/42" in out
    assert "index_bound = 6" in out
    # three ones push the refined bound's deficiency below zero: no value
    argv = ("geometry", "--dim", "1", "--coeffs", "one,one,one", "--t", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "index_bound = 6" in out
    assert "refined_index_bound" not in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["refined_index_bound"] is None


def test_geometry_threshold_off_its_q(capsys):
    # the error names the t and q given, not the deficiency built from them
    code, out, err = run(capsys, "geometry", "--dim", "1", "--coeffs", "m:2",
                         "--t", "1/2", "--q", "3")
    assert (code, out) == (1, "")
    assert err == "egyfrac: error: q*t must be an integer, got q=3, t=1/2\n"


def test_geometry_bad_coefficient(capsys):
    code, _, err = run(capsys, "geometry", "--dim", "1", "--coeffs", "m:x")
    assert code == 1
    assert "bad coefficient token" in err
    code, _, err = run(capsys, "geometry", "--dim", "1", "--coeffs", "two")
    assert code == 1


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples() -> list[tuple[str, str]]:
    """Each `$ egyfrac ...` line in README's code blocks, paired with the
    lines printed under it, up to the next blank line or the block's end."""
    examples = []
    for block in README.read_text().split("```")[1::2]:
        command, printed = None, []
        for line in block.splitlines() + [""]:
            if line.startswith("$ egyfrac "):
                command, printed = line[len("$ egyfrac "):], []
            elif command is not None and line:
                printed.append(line + "\n")
            elif command is not None:
                examples.append((command, "".join(printed)))
                command = None
    return examples


def test_readme_cli_examples(capsys):
    examples = _readme_examples()
    assert len(examples) >= 7
    for command, printed in examples:
        code, out, _ = run(capsys, *shlex.split(command))
        assert (code, out) == (0, printed), command


def test_readme_python_example():
    """README's `python` block, run through doctest; splitting on the fences
    keeps the closing one from being read as expected output."""
    blocks = [block.removeprefix("python\n")
              for block in README.read_text().split("```")[1::2]
              if block.startswith("python\n")]
    assert len(blocks) == 1
    parser = doctest.DocTestParser()
    example = parser.get_doctest(blocks[0], {}, "README", str(README), 0)
    assert len(example.examples) == 6
    assert doctest.DocTestRunner().run(example) == (0, 6)


@pytest.fixture
def fresh_parser():
    """build_parser's cache, emptied before and after the test."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_parser_is_built_once_across_calls(capsys, fresh_parser):
    for argv in (["gap", "--delta", "2", "--k", "3"], ["greedy", "5/6"], ["nonsense"],
                 ["--version"], ["lcm-bound", "--delta", "2", "--format", "json"]):
        main(argv)
    capsys.readouterr()
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()


_ARGS = {
    "greedy": ["9/20"],
    "split": ["2,3", "--at", "2"],
    "enumerate": ["--sum", "1", "--terms", "3"],
    "extremal": ["--kind", "lcm", "--k", "4", "--delta", "3/2"],
    "gap": ["--delta", "2", "--k", "3"],
    "lcm-bound": ["--delta", "5/2", "--q", "4"],
    "sylvester": ["--p", "4", "--q", "2", "--table"],
    "oracle": ["--k-max", "2", "--delta-list", "0,1/2"],
    "geometry": ["--dim", "1", "--coeffs", "m:2,m:3,m:7,one"],
}
_FORMAT_ARGVS = [
    [command, *args, "--format", fmt]
    for command, args in _ARGS.items()
    for fmt in (("text", "json", "csv") if command in CSV_COMMANDS else ("text", "json"))
]
ORDER_ARGVS = _FORMAT_ARGVS + [
    [],  # usage error: no subcommand
    ["gap", "--delta"],  # usage error: missing value
    ["--version"],
    ["--help"],
    ["extremal", "--help"],
    ["gap", "--delta", "-2"],  # domain error
    ["gap", "--delta", "2", "--format", "csv"],  # csv refusal
]


def _outcome(argv):
    """main(argv)'s exit code, stdout (oracle's millis zeroed) and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, re.sub(r'"millis": \d+', '"millis": 0', out.getvalue()), err.getvalue()


def test_outputs_do_not_depend_on_call_order(fresh_parser):
    forward = [_outcome(argv) for argv in ORDER_ARGVS]
    backward = [_outcome(argv) for argv in reversed(ORDER_ARGVS)][::-1]
    for argv, ahead, behind in zip(ORDER_ARGVS, forward, backward):
        assert ahead == behind, argv
    codes = [code for code, _, _ in forward]
    assert codes.count(0) == len(ORDER_ARGVS) - 4  # the usage, domain and csv errors


# the fuzz's values. Each option draws from its own values, which hold the
# edges 0 and -1 and, where it is refused or answered at once, _HUGE (a
# huge all-upto:N is bounded only by the budget, which may be the default
# 10^8); one time in eight it draws a bad value instead: outside the wire
# format, a zero denominator or, for a few options, a bad token of their
# own
_HUGE = "1" + "0" * 30
_BAD = ["1/0", "1_0", " 3", "3.5", "\u0662"]
_SMALL_INTS = ["0", "1", "2", "3", "-1"]
_INTS = [*_SMALL_INTS, "7", _HUGE]
_SMALL_RATIONALS = ["0", "1", "1/2", "5/6", "3/2", "7/2", "1/12", "-1/2", "-1", "-2"]
_RATIONALS = [*_SMALL_RATIONALS, _HUGE, "1/" + _HUGE]

# per command, each option, its values and its bad values ("" is the
# positional argument; a tuple of values is drawn as a list of one to three
# joined by commas; a flag has no values)
_FUZZ_OPTIONS = {
    "greedy": [("", _RATIONALS, _BAD)],
    "split": [("", tuple(_INTS), _BAD), ("--at", _INTS, _BAD)],
    "enumerate": [("--sum", _SMALL_RATIONALS, _BAD), ("--terms", _SMALL_INTS, _BAD)],
    "gap": [("--delta", _RATIONALS, _BAD), ("--q", _INTS, _BAD), ("--k", _INTS, _BAD)],
    "lcm-bound": [("--delta", _RATIONALS, _BAD), ("--q", _INTS, _BAD)],
    "extremal": [("--kind", ["gap", "lcm"], ["sum"]), ("--k", _INTS, _BAD),
                 ("--delta", _RATIONALS, _BAD), ("--q", _INTS, _BAD)],
    "sylvester": [("--p", _INTS, _BAD), ("--q", _INTS, _BAD), ("--table", None, None)],
    "oracle": [("--k-max", _SMALL_INTS, _BAD), ("--delta-list", tuple(_RATIONALS), _BAD),
               ("--q-mode", ["canonical", "all-upto:2", "all-upto:12", "all-upto:0"],
                ["all-upto: 2", "all-upto:1_0", "all-upto:\u0662", "upto"]),
               ("--budget", ["1", "100", "10000", "0", "-1"], _BAD)],
    "geometry": [("--dim", _INTS, _BAD),
                 ("--coeffs", ("one", "m:1", "m:2", "m:3", "m:7", "m:" + _HUGE),
                  ["m:0", "m:-1", "m:\u0667", "m: 2", "m:1_0", "two", " m:2", "one "]),
                 ("--t", _RATIONALS, _BAD), ("--q", _INTS, _BAD)],
}


@st.composite
def _cli_argv(draw):
    def one_in_eight():
        return draw(st.integers(0, 7)) == 0

    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [command]
    for option, values, bad in _FUZZ_OPTIONS[command]:
        if one_in_eight():  # left out, required or not
            continue
        if values is None:
            argv.append(option)
            continue
        count = draw(st.integers(1, 3)) if isinstance(values, tuple) else 1
        text = ",".join(draw(st.sampled_from(bad if one_in_eight() else values))
                        for _ in range(count))
        argv += [option, text] if option else [text]
    formats = ("text", "json", "csv") if command in CSV_COMMANDS else ("text", "json")
    if one_in_eight():
        formats = ("csv", "xml")
    return argv + ["--format", draw(st.sampled_from(formats))]


@settings(max_examples=500, deadline=None)
@given(_cli_argv())
def test_fuzzed_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert any(line.startswith(("egyfrac: error:", "usage:"))
                   for line in err.getvalue().splitlines())
    if code == 2:
        assert argv[0] == "oracle"


def test_parser_declares_only_what_the_plain_reader_reads():
    # _plain_args reads help, single-value and store_true actions, and
    # takes defaults as they are
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for sub in commands.choices.values():
        for action in sub._actions:
            assert (isinstance(action, (argparse._HelpAction, argparse._StoreTrueAction))
                    or type(action) is argparse._StoreAction and action.nargs is None), action
            assert not (isinstance(action.default, str) and action.type is not None), action


_NOT_PLAIN = {
    "empty": [], "version": ["--version"], "top-help": ["-h"], "unknown-command": ["nonsense"],
    "help": ["gap", "-h"], "long-help": ["gap", "--help"],
    "version-after-command": ["gap", "--delta", "2", "--version"],
    "separator": ["gap", "--", "--delta", "2"], "equals": ["gap", "--delta=2"],
    "prefix": ["gap", "--del", "2"], "unknown-option": ["gap", "--delta", "2", "--x", "1"],
    "missing-value": ["gap", "--delta"], "option-as-value": ["gap", "--delta", "--k", "3"],
    "missing-required": ["gap"], "missing-required-option": ["split", "2,3"],
    "invalid-format": ["gap", "--delta", "2", "--format", "xml"],
    "csv-refused": ["gap", "--delta", "2", "--format", "csv"],
    "invalid-kind": ["extremal", "--kind", "sum", "--k", "2", "--delta", "1"],
    "refused-by-type": ["gap", "--delta", "2", "--k", "1_0"],
    "dash-value": ["gap", "--delta", "-x"], "extra-positional": ["greedy", "1", "2"],
    "spaced-negative": ["greedy", "-1 2"], "lone-dash": ["greedy", "-"],
    "flag-then-value": ["sylvester", "--p", "3", "--q", "1", "--table", "x"],
}


@pytest.mark.parametrize("argv", _NOT_PLAIN.values(), ids=_NOT_PLAIN.keys())
def test_argparse_reads_what_is_not_plain(argv):
    # help, version, '--', '--opt=value', an abbreviated or unknown option, a
    # missing value or required option, a refused value or choice, an extra
    # positional and a value read as an option all go to argparse
    assert cli._plain_args(cli.build_parser(), argv) is None


_STRAYS = ["-1", "-1/2", "-x", "", " ", "-1 2"]


@st.composite
def _perturbed_argv(draw):
    """_cli_argv(), as drawn or with one change: '--' inserted, help or
    version appended, an option cut to a prefix or joined to its value by
    '=', a valued option repeated, a stray token inserted, or a token
    dropped."""
    argv = draw(_cli_argv())
    options = [i for i, token in enumerate(argv) if token.startswith("--")]
    valued = [i for i in options if argv[i] != "--table"]  # --format among them
    change = draw(st.sampled_from(
        ["none", "separator", "help", "prefix", "equals", "repeat", "stray", "drop"]))
    if change == "separator":
        argv.insert(draw(st.integers(0, len(argv))), "--")
    elif change == "help":
        argv.append(draw(st.sampled_from(["-h", "--help", "--version"])))
    elif change == "prefix":
        i = draw(st.sampled_from(options))
        argv[i] = argv[i][:draw(st.integers(2, len(argv[i]) - 1))]
    elif change == "equals":
        i = draw(st.sampled_from(valued))
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif change == "repeat":
        i = draw(st.sampled_from(valued))
        argv += [argv[i], draw(st.sampled_from([argv[i + 1], "2", "json"]))]
    elif change == "stray":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_STRAYS)))
    elif change == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@settings(max_examples=500, deadline=None)
@given(_perturbed_argv())
@example(["gap", "--delta", "-1/2", "--q", "2", "--format", "json"])
@example(["sylvester", "--p", "3", "--q", "1", "--table", "--table", "--format", "text"])
@example(["gap", "--delta", "2", "--format", "xml"])
@example(["gap", "--format", "json"])
def test_plain_reading_matches_argparse(argv):
    parser = cli.build_parser()
    plain = cli._plain_args(parser, argv)
    if plain is not None:
        try:
            parsed = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv}, which was read plainly")
        assert vars(plain) == vars(parsed)
    with mock.patch.object(cli, "_plain_args", lambda parser, argv: None):
        by_argparse = _outcome(argv)
    assert _outcome(argv) == by_argparse


# one argv of each shape the query benchmark runs through main, less its
# --format: every command, negative deltas and sylvester's --table
_QUERY_SHAPES = [
    ["gap", "--delta", "-1/2", "--q", "2", "--k", "3"],
    ["gap", "--delta", "-1", "--q", "1"],
    ["lcm-bound", "--delta", "5/2", "--q", "4"],
    ["extremal", "--kind", "gap", "--k", "2", "--delta", "-1"],
    ["extremal", "--kind", "lcm", "--k", "4", "--delta", "3/2"],
    ["sylvester", "--p", "12", "--q", "3"],
    ["sylvester", "--p", "4", "--q", "2", "--table"],
    ["geometry", "--dim", "2", "--coeffs", "m:2,m:3,m:4,one,one"],
    ["greedy", "5/6"],
    ["split", "2,3,9", "--at", "3"],
    ["enumerate", "--sum", "3/4", "--terms", "3"],
]


def test_plain_argv_never_reaches_argparse(capsys, monkeypatch):
    # a reader that never fires would pass every other test and gain nothing
    def refuse(self, args=None, namespace=None):
        raise AssertionError(f"argparse read {args}")

    def formats(command):
        return ("text", "json", "csv") if command in CSV_COMMANDS else ("text", "json")

    argvs = [
        *(shlex.split(command) for command, _ in _readme_examples()),
        *_FORMAT_ARGVS,
        *([*argv, "--format", fmt] for argv, *_ in _CONVERTED for fmt in formats(argv[0])),
        *([*argv, "--format", fmt] for argv in _QUERY_SHAPES for fmt in formats(argv[0])),
    ]
    monkeypatch.setattr(cli._Parser, "parse_args", refuse)
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
