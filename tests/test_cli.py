"""CLI contract: exit codes, determinism, serialization round-trips."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grax import serde, suites
from grax.algebra import GroupAlgebraElement, GroupAlgebraMatrix, nrd
from grax.cli import main
from grax.fitting import Budget, fit_matrix
from grax.groups import group_from_catalog
from grax.suites import suite_oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_command(capsys):
    code, out, _ = run_cli(capsys, "group", "--name", "S3", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["result"]["irreducible_degrees"] == [1, 1, 2]
    assert doc["schema"] == "grax-report/1"


def test_unknown_group_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "group", "--name", "NoSuchGroup")
    assert code == 2
    assert "usage error" in err


def test_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "suite", "--name", "nonsense")
    assert code == 2


def test_nrd_command_matches_library(capsys, tmp_path):
    G = group_from_catalog("S3")
    M = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [1, 1, 1, 1, 1, 1])]])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(serde.gam_to_json(M)))
    code, out, _ = run_cli(capsys, "nrd", "--group", "S3",
                           "--matrix", f"@{path}", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["values"] == ["6", "0", "0"]


def test_cyclo_command_all_pass(capsys):
    code, out, _ = run_cli(capsys, "cyclo", "--fmax", "8", "--ellmax", "5",
                           "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["all_pass"] is True


def test_cyclo_direct_convention_fails(capsys):
    code, out, _ = run_cli(capsys, "cyclo", "--f", "5", "--ell", "2",
                           "--convention", "direct", "--no-timestamp")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"


@pytest.mark.parametrize("argv, message", [
    (["--ell", "3"], "--ell needs --f"),
    (["--f", "7"], "--f needs --ell"),
])
def test_cyclo_f_and_ell_come_together(capsys, argv, message):
    # one of the two alone must not fall back to the whole family table
    code, out, err = run_cli(capsys, "cyclo", *argv, "--no-timestamp")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "2", "-1"])
def test_suite_scale_outside_zero_one_is_usage_error(capsys, scale):
    # --scale shrinks the case counts: a factor in (0, 1], or exit 2
    code, out, err = run_cli(capsys, "suite", "--name", "oracle", "--scale", scale,
                             "--no-timestamp")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --scale") and "Traceback" not in err


def test_group_is_named_by_its_catalog_name_alone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["group", "--name", "C", "--params", "6", "--no-timestamp"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --params" in capsys.readouterr().err
    for name in ("S3", "S4", "A4", "Q8", "C6", "D4", "C2xC3"):
        G = group_from_catalog(name)
        assert serde.json_to_group(serde.group_to_json(G)) is G
    with pytest.raises(ValueError, match="unknown catalog group 'C'"):
        serde.json_to_group({"name": "C", "params": [6]})


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, want", [
    (["group", "--name", "S3"], 0),
    (["cyclo", "--f", "5", "--ell", "2", "--convention", "direct"], 1),
])
def test_closed_stdout_keeps_the_exit_code(argv, want, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv + ["--no-timestamp"]) == want
    assert capsys.readouterr().err == ""


def test_out_into_a_missing_directory_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "group", "--name", "S3", "--no-timestamp",
                             "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


class _FullDevice(io.StringIO):
    """A stdout on a full device: every write raises ENOSPC."""

    def write(self, text):
        raise OSError(28, "No space left on device")


def test_unwritable_stdout_is_one_line_on_stderr(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullDevice())
    assert main(["group", "--name", "S3", "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err == "usage error: cannot write the report to stdout: " \
                  "[Errno 28] No space left on device\n"


def test_suite_determinism(capsys):
    argv = ["suite", "--name", "pairing", "--seed", "7", "--scale", "0.02",
            "--no-timestamp"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_fit_oracle_check(capsys, tmp_path):
    G = group_from_catalog("C3")
    rng = random.Random(0)
    M = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [rng.randrange(-3, 4) for _ in range(3)])
             for _ in range(2)] for _ in range(2)])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(serde.gam_to_json(M)))
    code, out, _ = run_cli(capsys, "fit", "--group", "C3", "--matrix", f"@{path}",
                           "--a", "1", "--oracle-check", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["fitting"]["hnf"] == doc["result"]["oracle"]["hnf"]


def test_fit_oracle_check_on_a_rational_matrix_is_usage_error(capsys):
    # the classical oracle is defined on matrices over Z[G]; on this one its
    # ideal (Z) and fit_matrix's (1/2 Z) differ, which is no mathematical failure
    matrix = '{"entries": [[{"0": "1"}, {}], [{"0": "1/2"}, {"0": "1/2"}]]}'
    code, out, err = run_cli(capsys, "fit", "--group", "C1", "--matrix", matrix, "--a", "2",
                             "--oracle-check", "--no-timestamp")
    assert code == 2 and out == ""
    assert err == "usage error: the classical oracle applies to integral matrices only\n"


def test_epsilon_command(capsys, tmp_path):
    G = group_from_catalog("C1")
    M = GroupAlgebraMatrix.from_int_grid(G, [[2], [3]])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(serde.gam_to_json(M)))
    code, out, _ = run_cli(capsys, "epsilon", "--group", "C1",
                           "--matrix", f"@{path}", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["nonzero_components"] == [True]


def test_serde_roundtrips():
    G = group_from_catalog("Q8")
    rng = random.Random(1)
    M = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(
                G, [rng.randrange(-4, 5) for _ in range(8)]) for _ in range(2)]
            for _ in range(2)])
    back = serde.json_to_gam(json.loads(json.dumps(serde.gam_to_json(M))))
    assert back.group.name == "Q8"
    assert all((a - b).is_zero() for r1, r2 in zip(M.entries, back.entries)
               for a, b in zip(r1, r2))
    x = nrd(M)
    x2 = serde.json_to_central(json.loads(json.dumps(serde.central_to_json(x))))
    assert x2 == x


def test_rational_strings():
    from fractions import Fraction
    assert serde.rat_to_str(Fraction(-3, 2)) == "-3/2"
    assert serde.rat_to_str(Fraction(4)) == "4"
    assert serde.str_to_rat("-3/2") == Fraction(-3, 2)


def test_group_serialization_roundtrip():
    for name in ("C6", "C2xC3", "D4", "Q8"):
        G = group_from_catalog(name)
        back = serde.json_to_group(json.loads(json.dumps(serde.group_to_json(G))))
        assert back is G


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("GRAX_BUDGET", json.dumps({"max_matrix_size": 1, "rounds": 2}))
    code, out, _ = run_cli(capsys, "xi", "--group", "S3", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["denominator"] >= 1
    assert "1x1 elements" in doc["result"]["provenance"][0]
    assert len(doc["result"]["provenance"]) == 1  # no 2x2 pass under the env budget


def test_zero_candidates_tries_no_element(capsys, monkeypatch):
    monkeypatch.delenv("GRAX_BUDGET", raising=False)
    code, out, _ = run_cli(capsys, "xi", "--group", "S3", "--no-timestamp",
                           "--budget", json.dumps({"max_candidates": 0}))
    assert code == 0
    assert json.loads(out)["result"]["provenance"] == [
        "1x1 elements: support<=2 height<=1 (truncated: 0 of 72 tried)",
        "1x1 group elements: 6",
        "2x2 monomial matrices (truncated: 0 of 21 tried)"]


@pytest.mark.parametrize("budget, key", [
    ({"max_candidates": 2.9, "rounds": 1.5}, "max_candidates"),
    ({"max_matrix_size": True}, "max_matrix_size"),
    ({"max_candidates": -1}, "max_candidates"),
    ({"support": "2"}, "support"),
], ids=["floats", "boolean", "negative", "string"])
def test_budget_values_are_nonnegative_integers(capsys, monkeypatch, budget, key):
    monkeypatch.delenv("GRAX_BUDGET", raising=False)
    code, out, err = run_cli(capsys, "xi", "--group", "S3", "--budget", json.dumps(budget))
    assert code == 2
    assert out == ""
    assert f"budget value {key!r}" in err
    monkeypatch.setenv("GRAX_BUDGET", json.dumps(budget))
    code, out, err = run_cli(capsys, "xi", "--group", "S3")
    assert code == 2 and f"budget value {key!r}" in err


_S3_ONE = json.dumps({"entries": [[{"0": "1"}]]})


@pytest.mark.parametrize("argv", [
    ["nrd", "--group", "S3", "--matrix", _S3_ONE],
    ["adjoint", "--group", "S3", "--matrix", _S3_ONE],
    ["wedge", "--group", "S3", "--elements", _S3_ONE],
    ["pair", "--group", "S3", "--homs", _S3_ONE, "--elements", _S3_ONE],
    ["epsilon", "--group", "S3", "--matrix", _S3_ONE],
    ["det", "--group", "S3", "--op", "free", "--basis", _S3_ONE],
    ["cyclo", "--f", "7", "--ell", "3"],
], ids=lambda argv: argv[0])
def test_budget_flag_only_where_a_budget_is_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", '{"bogus": 1}'])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["1_0", " 3", "+3", "\u0663", "3 ", "03"],
                         ids=["underscore", "leading-space", "plus-sign", "non-ascii-digit",
                              "trailing-space", "leading-zero"])
def test_group_label_is_decimal_digits(capsys, label):
    # int() reads each of these as a label of C12; with a leading zero,
    # {"3": .., "03": ..} would name one label twice
    code, out, err = run_cli(capsys, "nrd", "--group", "C12", "--matrix",
                             json.dumps({"entries": [[{label: "1"}]]}))
    assert code == 2
    assert out == ""
    assert "labels are decimal digits" in err


def test_cyclo_coefficient_count_is_checked():
    # one coefficient for conductor 5 used to give a value printing as 1
    # that compared unequal to 1
    with pytest.raises(ValueError, match="expected 4 coefficients"):
        serde.json_to_cyclo({"n": 5, "coeffs": ["1"]})
    with pytest.raises(ValueError, match="conductor must be positive"):
        serde.json_to_cyclo({"n": 0, "coeffs": []})
    assert serde.json_to_cyclo({"n": 5, "coeffs": ["1", "0", "0", "0"]}) == 1


def _s3_matrix(entry, **shape):
    return json.dumps({"group": "S3", "entries": [[entry]], **shape})


@pytest.mark.parametrize("matrix, message", [
    (_s3_matrix({"-1": "1"}), "outside 0..5"),
    (_s3_matrix({"6": "1"}), "outside 0..5"),
    (_s3_matrix({"0": {"n": 3, "coeffs": ["1"]}}), "expected 2 coefficients"),
    (_s3_matrix({"0": "1"}, rows=2, cols=1), "declares 2x1"),
    (_s3_matrix({"0": "1"}, rows=1, cols=3), "declares 1x3"),
    (_s3_matrix(5), "is a JSON object"),
    (json.dumps({"group": "Q8", "entries": [[{"0": "1", "5": "1"}]]}), "names group 'Q8'"),
    (json.dumps({"group": "S3", "entries": [5]}), "list of rows"),
    (json.dumps({"group": "S3", "entries": 5}), "list of rows"),
    (json.dumps([1]), "JSON object"),
    (_s3_matrix({"0": [1]}), "cyclotomic number"),
    (_s3_matrix({"0": 1.5}), "cyclotomic number"),
    (_s3_matrix({"0": {"n": 4, "coeffs": 5}}), "cyclotomic number"),
    (json.dumps({"group": ["S3"], "entries": [[{"0": "1"}]]}), "a group is"),
    (_s3_matrix({"0": "1/0"}), "zero denominator"),
    (_s3_matrix({"0": {"n": 2.7, "coeffs": ["3"]}}), "cyclotomic number"),
    (_s3_matrix({"0": {"n": 1000000000000000003, "coeffs": ["1"]}}), "too large"),
    (json.dumps({"group": "C1000", "entries": [[{"0": "1"}]]}), "cyclic order"),
    (_s3_matrix({"0": "1.5"}), '"p/q" string'),
    (_s3_matrix({"0": " 1_0.5 "}), '"p/q" string'),
    (_s3_matrix({"0": "1e4000000"}), '"p/q" string'),
    (_s3_matrix({"0": "+1"}), '"p/q" string'),
    (_s3_matrix({"0": "1/-2"}), '"p/q" string'),
    (_s3_matrix({"0": "\u0661"}), '"p/q" string'),
    (_s3_matrix({"0": {"n": 3, "coeffs": ["1", "0.5"]}}), '"p/q" string'),
    (_s3_matrix({"0": True}), '"p/q" string'),
], ids=["negative-label", "label-past-order", "short-coefficients", "rows-disagree",
        "cols-disagree", "entry-not-object", "other-group", "row-not-list",
        "entries-not-list", "top-level-array", "coefficient-list", "coefficient-float",
        "coeffs-not-list", "group-not-name", "zero-denominator", "float-conductor",
        "huge-conductor", "huge-group", "decimal-string", "underscore-padded-decimal",
        "exponent", "plus-sign", "negative-denominator", "non-ascii-digit",
        "decimal-in-coeffs", "boolean"])
def test_malformed_matrix_is_usage_error(capsys, matrix, message):
    code, out, err = run_cli(capsys, "nrd", "--group", "S3", "--matrix", matrix)
    assert code == 2
    assert out == ""
    assert "usage error" in err and message in err


def test_central_of_other_group_is_usage_error(capsys):
    # S3 and C3 both have three characters, so only the group check tells them apart
    code, out, err = run_cli(capsys, "annihilate", "--group", "C3",
                             "--matrix", json.dumps({"group": "C3", "entries": [[{"0": "2"}]]}),
                             "--x", json.dumps({"group": "S3", "values": ["1", "1", "1"]}))
    assert code == 2
    assert out == ""
    assert "names group 'S3'" in err


@pytest.mark.parametrize("x, message", [
    ({"values": ["1", "2", "1"]}, "Galois consistency fails for sigma_2 at character 1"),
    ({"values": [{"n": 5, "coeffs": ["0", "1", "0", "0"]}, "1", "1"]},
     "conductor does not divide the exponent"),
], ids=["galois-inconsistent", "foreign-conductor"])
def test_inconsistent_central_is_usage_error(capsys, x, message):
    code, out, err = run_cli(capsys, "annihilate", "--group", "C3",
                             "--matrix", json.dumps({"entries": [[{"0": "2"}]]}),
                             "--x", json.dumps(x))
    assert code == 2
    assert out == ""
    assert "usage error" in err and message in err


def test_json_without_group_reads_in_the_cli_group(capsys):
    code, out, _ = run_cli(capsys, "nrd", "--group", "S3", "--matrix",
                           json.dumps({"entries": [[{"0": "1", "5": "1"}]]}))
    assert code == 0
    assert json.loads(out)["result"]["values"] == ["2", "0", "0"]


_C4_ZETA = {"n": 4, "coeffs": ["0", "1"]}


@pytest.mark.parametrize("argv", [
    ["adjoint", "--group", "C4", "--matrix", json.dumps(
        {"group": "C4", "entries": [[{"0": _C4_ZETA}, {"0": "1"}], [{"1": "1"}, {"0": "2"}]]})],
    ["det", "--group", "C4", "--op", "free",
     "--basis", json.dumps({"group": "C4", "entries": [[{"0": _C4_ZETA}]]})],
    ["fit", "--group", "C4", "--matrix", json.dumps({"entries": [[{"0": _C4_ZETA}]]}),
     "--a", "0"],
    ["fit", "--group", "Q8", "--matrix", json.dumps({"entries": [[{"0": _C4_ZETA}]]}),
     "--a", "0", "--budget", json.dumps({"max_matrix_size": 1})],
    ["rubin", "--group", "C4",
     "--element", json.dumps({"entries": [[{"0": "2", "1": "2", "2": "-2", "3": "-2"},
                                           {"0": "2", "1": "-2", "2": "-2", "3": "2"}]]}),
     "--gens", json.dumps({"entries": [[{"0": _C4_ZETA}, {}], [{}, {"0": "2"}]]})],
    ["pair", "--group", "Q8", "--homs", json.dumps({"entries": [[{"0": _C4_ZETA}]]}),
     "--elements", json.dumps({"entries": [[{"0": "1"}]]})],
    ["wedge", "--group", "C4",
     "--elements", json.dumps({"entries": [[{"0": _C4_ZETA}, {"1": "1"}]]})],
    ["epsilon", "--group", "C4",
     "--matrix", json.dumps({"entries": [[{"0": _C4_ZETA}], [{"0": "1"}]]})],
    ["det", "--group", "C4", "--op", "ses",
     "--theta", json.dumps({"entries": [[{"0": _C4_ZETA}, {}]]}),
     "--phi", json.dumps({"entries": [[{}], [{"0": "1"}]]}),
     "--section", json.dumps({"entries": [[{}, {"0": "1"}]]})],
], ids=["adjoint", "det-free", "fit", "fit-nonabelian", "rubin-gens", "pair", "wedge", "epsilon",
        "det-ses"])
def test_non_rational_matrix_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "rational coefficients" in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["C2", "S3", "1/2", "-3", "1/0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["group", "entries", "rows", "cols", "n", "coeffs", "name",
                         "params", "0", "1", "2", "-1"]) | st.text(max_size=3),
        inner, max_size=3),
    max_leaves=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_JSON)
def test_fuzzed_matrix_json_is_read_or_rejected(doc):
    # any JSON value, as the whole document or as its entries, is read (0) or
    # refused as a usage error (2); nothing raises.  "--matrix=" keeps argparse
    # from taking a value such as -1e+16 for an option.
    for matrix in (doc, {"group": "C2", "entries": doc}):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["nrd", "--group", "C2", "--matrix=" + json.dumps(matrix)])
        assert code in (0, 2)


def test_unknown_det_op_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["det", "--group", "C2", "--op", "bogus", "--theta", _S3_ONE])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_oracle_suite_passes_its_budget_to_fit_matrix(monkeypatch):
    # criterion 1 over Z[C_n]: the budget sizes the replacement pool of
    # fit_matrix, so it must reach every call
    seen = []

    def spy(M, a, budget=Budget(), xi=None):
        seen.append(budget)
        return fit_matrix(M, a, budget, xi)

    monkeypatch.setattr(suites, "fit_matrix", spy)
    budget = Budget(coeff_height=2)
    assert suite_oracle(seed=0, cases=3, budget=budget).passed
    assert seen and all(b is budget for b in seen)
    code = main(["suite", "--name", "oracle", "--scale", "0.01", "--no-timestamp",
                 "--budget", '{"coeff_height": 2}'])
    assert code == 0 and seen[-1] == budget


def test_cli_runs_leave_the_field_oracle_unimported():
    """grax.linalg is the tests' oracle only: the reports that read ranks
    (epsilon, the two-term checks), an exact sequence and a descent run
    without importing it, in a fresh interpreter."""
    from test_golden import CASES
    argvs = [CASES[name] + ["--no-timestamp"]
             for name in ("epsilon_q8", "det_two_term_s3", "det_ses_d4", "cyclo_f7_l3")]
    code = ("import io, sys, contextlib\n"
            "from grax.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "assert 'grax.linalg' not in sys.modules, 'grax.linalg was imported'\n")
    env = {k: v for k, v in os.environ.items() if k != "GRAX_BUDGET"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
