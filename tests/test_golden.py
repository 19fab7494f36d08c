"""Golden CLI reports: each command's --no-timestamp report must match the
recorded bytes in tests/golden/reports exactly.

The inputs live in tests/golden/inputs.  A report changes only when a
change of results is intended; record the new bytes by running the same
argv through `python -m grax ... --no-timestamp` and say why in CHANGES.md.
"""

from pathlib import Path

import pytest

from grax.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _in(name):
    return f"@{GOLDEN / 'inputs' / name}"


CASES = {
    "nrd_s3": ["nrd", "--group", "S3", "--matrix", _in("s3_2x2.json")],
    "adjoint_q8": ["adjoint", "--group", "Q8", "--matrix", _in("q8_2x2.json")],
    "det_ses_d4": ["det", "--group", "D4", "--op", "ses",
                   "--theta", _in("d4_ses_theta.json"), "--phi", _in("d4_ses_phi.json"),
                   "--section", _in("d4_ses_section.json")],
    "det_tensor_c4": ["det", "--group", "C4", "--op", "tensor", "--basis", _in("c4_2x2.json"),
                      "--basis2", _in("c4_2x2.json")],
    "det_two_term_s3": ["det", "--group", "S3", "--op", "two-term",
                        "--theta", _in("s3_tt_theta.json"),
                        "--comparison", _in("s3_tt_comparison.json"),
                        "--ker-section", _in("s3_tt_section.json"),
                        "--cok-section", _in("s3_tt_section.json")],
    "fit_c4": ["fit", "--group", "C4", "--matrix", _in("c4_3x2.json"), "--a", "1",
               "--oracle-check"],
    "fit_c4_a2": ["fit", "--group", "C4", "--matrix", _in("c4_3x2.json"), "--a", "2",
                  "--oracle-check"],
    # a proper sublattice of index 24 over C8: the modular phase of the HNF
    # and the oracle's Leibniz minors read as class coordinates
    "fit_c8_oracle": ["fit", "--group", "C8", "--matrix", _in("c8_3x3.json"), "--a", "1",
                      "--oracle-check"],
    "fit_q8_3x2": ["fit", "--group", "Q8", "--matrix", _in("q8_3x2.json"), "--a", "1"],
    "fit_s3": ["fit", "--group", "S3", "--matrix", _in("s3_2x2.json"), "--a", "1",
               "--budget", '{"max_matrix_size": 2, "max_candidates": 2000}'],
    "epsilon_q8": ["epsilon", "--group", "Q8", "--matrix", _in("q8_3x2.json")],
    "rubin_c4": ["rubin", "--group", "C4", "--element", _in("c4_rubin_element.json"),
                 "--gens", _in("c4_rubin_gens.json")],
    "cyclo_f7_l3": ["cyclo", "--f", "7", "--ell", "3"],
    "suite_nrd_props": ["suite", "--name", "nrd-props", "--scale", "0.1"],
    "xi_q8": ["xi", "--group", "Q8", "--budget", '{"max_candidates": 2000}'],
    "xi_s4": ["xi", "--group", "S4"],
    "annihilate_s3": ["annihilate", "--group", "S3", "--matrix", _in("s3_2x2.json"),
                      "--x", "order"],
    # delta fails first at the translate [[g]], g the transposition labelled 1:
    # x nrd(g) is not integral
    "annihilate_s3_translate": ["annihilate", "--group", "S3", "--matrix", _in("s3_1x1_one.json"),
                                "--x", '{"group": "S3", "values": ["1", "1", "1"]}'],
    # delta fails first at the member -1 - g of its 1x1 family, with the same g
    "annihilate_s3_witness": ["annihilate", "--group", "S3", "--matrix", _in("s3_2x2.json"),
                              "--x", '{"group": "S3", "values": ["3", "-3", "0"]}'],
    "wedge_d4": ["wedge", "--group", "D4", "--elements", _in("d4_wedge_2x3.json")],
    "pair_s3": ["pair", "--group", "S3", "--homs", _in("s3_pair_homs_1x3.json"),
                "--elements", _in("s3_pair_elements_2x3.json")],
    "pair_q8": ["pair", "--group", "Q8", "--homs", _in("q8_2x2.json"),
                "--elements", _in("q8_2x2.json")],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, capsys, monkeypatch):
    monkeypatch.delenv("GRAX_BUDGET", raising=False)
    code = main(CASES[case] + ["--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "reports" / f"{case}.json").read_text(encoding="utf-8")
