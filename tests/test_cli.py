"""End-to-end CLI behavior through main(argv): formats, exit codes, env."""

import json
import os
import sys

import pytest

from egyfrac import __version__
from egyfrac.cli import BUDGET_ENV_VAR, main
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


def test_sylvester_table(capsys):
    code, out, _ = run(capsys, "sylvester", "--p", "3", "--q", "1", "--table")
    assert code == 0
    assert out == "1 1 2\n2 2 3\n3 6 7\n"
    code, out, _ = run(capsys, "sylvester", "--p", "4", "--q", "1",
                       "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"u": "42", "t": "43"}  # big values travel as strings


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


def test_oracle_budget_env(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "5")
    code, _, _ = run(capsys, "oracle", "--k-max", "4", "--delta-list", "2")
    assert code == 2
    # explicit flag wins over the environment
    code, _, _ = run(capsys, "oracle", "--k-max", "4", "--delta-list", "2",
                     "--budget", "100000")
    assert code == 0
    monkeypatch.setenv(BUDGET_ENV_VAR, "not-a-number")
    code, _, err = run(capsys, "oracle", "--k-max", "2", "--delta-list", "0")
    assert code == 1
    assert err.startswith("egyfrac: error:")


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
