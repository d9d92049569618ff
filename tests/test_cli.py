"""End-to-end CLI behavior through main(argv): formats, exit codes, env."""

import doctest
import json
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from egyfrac import __version__, cli
from egyfrac.bounds import EqualityCase, EqualityFamily
from egyfrac.cli import main
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


def test_gap_with_bound(capsys):
    code, out, _ = run(capsys, "gap", "--delta", "2", "--k", "3")
    assert code == 0
    assert out == "gap = 1/42\nsharp_sum_bound = 41/42\n"


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


@pytest.mark.parametrize("kind", ["gap", "lcm"])
def test_extremal_sums_its_tuple_once(capsys, monkeypatch, kind):
    # only in the constructor's assert: classify_equality matches by
    # structure, and the reported sum is the value of the matched family
    sums = []
    real = cli.tuple_sum

    def counted(t):
        sums.append(1)
        return real(t)

    monkeypatch.setattr("egyfrac.bounds.tuple_sum", counted)
    monkeypatch.setattr(cli, "tuple_sum", counted)
    denominators, total, lcm, family = _DEEP_EXTREMAL[kind]
    bound = total if kind == "gap" else lcm  # each tuple attains its bound
    argv = ["extremal", "--kind", kind, "--k", "8", "--delta", "6"]
    for fmt in ("text", "json", "csv"):
        sums.clear()
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert len(sums) == (1 if __debug__ else 0), fmt
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
     {"dim": 1, "coeffs": ["m:2", "m:3", "m:7", "one"], "t": None, "q": None}),
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
    monkeypatch.setattr("egyfrac.oracle.classify_equality",
                        lambda t, delta, q: EqualityCase(EqualityFamily.NONE))
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
    """main's parser cache, emptied before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_is_built_once_across_calls(capsys, monkeypatch, fresh_parser):
    builds = []
    real = cli.build_parser

    def counted():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["gap", "--delta", "2", "--k", "3"], ["greedy", "5/6"], ["nonsense"],
                 ["--version"], ["lcm-bound", "--delta", "2", "--format", "json"]):
        main(argv)
    capsys.readouterr()
    assert len(builds) == 1
    assert real() is not real()  # called directly, it still builds a fresh one


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
ORDER_ARGVS = [
    [command, *args, "--format", fmt]
    for command, args in _ARGS.items()
    for fmt in (("text", "json", "csv") if command in CSV_COMMANDS else ("text", "json"))
] + [
    [],  # usage error: no subcommand
    ["gap", "--delta"],  # usage error: missing value
    ["--version"],
    ["--help"],
    ["extremal", "--help"],
    ["gap", "--delta", "-2"],  # domain error
    ["gap", "--delta", "2", "--format", "csv"],  # csv refusal
]


def test_outputs_do_not_depend_on_call_order(capsys, fresh_parser):
    def outcome(argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, re.sub(r'"millis": \d+', '"millis": 0', out), err

    forward = [outcome(argv) for argv in ORDER_ARGVS]
    backward = [outcome(argv) for argv in reversed(ORDER_ARGVS)][::-1]
    for argv, ahead, behind in zip(ORDER_ARGVS, forward, backward):
        assert ahead == behind, argv
    codes = [code for code, _, _ in forward]
    assert codes.count(0) == len(ORDER_ARGVS) - 4  # the usage, domain and csv errors
