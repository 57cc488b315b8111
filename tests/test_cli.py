"""Command-line surface: JSON shapes, exit codes, and file round-trips.

Commands run in process through main(argv); exit code 2 covers both usage
errors (argparse raises SystemExit) and domain errors (returned).
"""

import contextlib
import io
import json

import pytest

from linfam import cli
from linfam.gf import field
from linfam.families import Family, Restriction, enumerate_coset

s2 = field(2)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def run_json(argv):
    rc, out, err = run(argv)
    assert rc == 0, err
    return json.loads(out)


# --- count ------------------------------------------------------------------

def test_count_values():
    doc = run_json(["count", "--kind", "mqt", "--q", "2", "--n", "3", "--t", "1"])
    assert doc["value"] == 24
    doc = run_json(["count", "--kind", "mqt", "--q", "3", "--n", "2", "--t", "1"])
    assert doc["value"] == 6
    doc = run_json(["count", "--kind", "gauss", "--q", "2", "--m", "4", "--d", "2"])
    assert doc["value"] == 35
    doc = run_json(["count", "--kind", "rank", "--q", "2", "--n", "2", "--m", "2",
                    "--d", "1"])
    assert doc["value"] == 9
    doc = run_json(["count", "--kind", "avoid", "--q", "2", "--n", "3", "--k", "1",
                    "--d", "1"])
    assert doc["value"] == 6


def test_count_fraction_values_print_as_strings():
    doc = run_json(["count", "--kind", "phi", "--q", "2", "--m", "1", "--n", "1",
                    "--t", "0"])
    assert doc["value"] == "1/2"


def test_count_error_exits():
    rc, _, err = run(["count", "--kind", "gauss", "--q", "2", "--m", "4", "--d", "7"])
    assert rc == 2 and "error" in err
    rc, _, err = run(["count", "--kind", "mqt", "--q", "3", "--n", "2"])
    assert rc == 2 and "--t is required" in err
    rc, _, _ = run(["count", "--kind", "nonsense", "--q", "2"])
    assert rc == 2    # argparse rejects the choice


# --- spectrum ---------------------------------------------------------------

def test_spectrum_json():
    doc = run_json(["spectrum", "--q", "2", "--m", "1", "--n", "1", "--t", "0"])
    assert doc["trace_check"] is True
    assert doc["lambda"] == [{"d": 0, "num": "1", "den": "1"},
                             {"d": 1, "num": "-1", "den": "1"}]
    assert doc["mult"] == ["1", "1"]


def test_budget_exhaustion_exit_code():
    # 41 eigenvalues of 41 formula terms each: 1681 items
    rc, _, err = run(["spectrum", "--q", "2", "--m", "40", "--n", "40", "--t", "0",
                      "--budget-items", "100"])
    assert rc == 3 and "budget exceeded" in err


# --- fourier ----------------------------------------------------------------

def test_fourier_function_file(tmp_path):
    fn = tmp_path / "fn.txt"
    fn.write_text("2,1,1\n1\n0\n")   # indicator of the zero map
    doc = run_json(["fourier", "--function", str(fn)])
    assert doc["q"] == 2 and (doc["n"], doc["m"]) == (1, 1)
    coeffs = {entry["X"]: entry["c"] for entry in doc["spectrum"]}
    assert len(coeffs) == 2
    assert all(c == ["1/2"] for c in coeffs.values())


def test_fourier_family_file(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text(Family.full_space(s2, 1, 1).to_text())
    doc = run_json(["fourier", "--family", str(fam)])
    nonzero = [e for e in doc["spectrum"] if e["c"] != ["0"]]
    assert len(nonzero) == 1


def test_fourier_requires_exactly_one_input(tmp_path):
    fn = tmp_path / "fn.txt"
    fn.write_text("2,1,1\n1\n0\n")
    assert run(["fourier"])[0] == 2
    assert run(["fourier", "--function", str(fn), "--family", str(fn)])[0] == 2
    assert run(["fourier", "--function", str(tmp_path / "missing.txt")])[0] == 2


# --- regularity -------------------------------------------------------------

COL_E1 = Restriction(s2, 2, 2, cols=[((1, 0), (1, 0))])


def _decompose(tmp_path, family_text, extra):
    fam = tmp_path / "family.txt"
    fam.write_text(family_text)
    ju, lg = tmp_path / "junta.json", tmp_path / "log.json"
    doc = run_json(["regularity", "--family", str(fam),
                    "--out-junta", str(ju), "--out-log", str(lg)] + extra)
    return doc, json.loads(ju.read_text()), json.loads(lg.read_text())


def test_regularity_full_space(tmp_path):
    doc, junta, log = _decompose(
        tmp_path, Family.full_space(s2, 2, 2).to_text(), ["--r", "1", "--s", "1"])
    assert doc["components"] == 1 and doc["outside_measure"] == "0"
    assert doc["good_leaves"] == 1
    assert junta["components"] == [{"cols": [], "rows": []}]
    assert log["nodes"][0]["status"] == "good"


def test_regularity_coset_family(tmp_path):
    text = Family(s2, 2, 2, enumerate_coset(COL_E1)).to_text()
    doc, junta, log = _decompose(
        tmp_path, text, ["--r", "2", "--s", "1", "--eps", "1/16"])
    assert doc["components"] == 1 and doc["outside_measure"] == "0"
    assert junta["components"] == [{"cols": [[[1, 0], [1, 0]]], "rows": []}]
    assert [nd["status"] for nd in log["nodes"]] == ["internal", "good"]


def test_regularity_empty_family(tmp_path):
    doc, junta, log = _decompose(tmp_path, "2,2,2\n", ["--r", "1", "--s", "1"])
    assert doc["components"] == 0 and doc["outside_measure"] == "0"
    assert junta["components"] == []


# --- bootstrap --------------------------------------------------------------

def test_bootstrap_full_space_holds(tmp_path):
    fam = tmp_path / "full33.txt"
    fam.write_text(Family.full_space(s2, 3, 3).to_text())
    doc = run_json(["bootstrap", "--family", str(fam), "--b", "0", "--N", "1",
                    "--delta", "1", "--beta", "3/2"])
    assert doc["holds"] is True and doc["witness"] is None
    assert doc["beta_cap"] == "2"


def test_bootstrap_rejects_lumpy_family(tmp_path):
    fam = tmp_path / "coset.txt"
    fam.write_text(Family(s2, 2, 2, enumerate_coset(COL_E1)).to_text())
    rc, _, err = run(["bootstrap", "--family", str(fam), "--b", "0", "--N", "1",
                      "--delta", "1/4", "--beta", "2"])
    assert rc == 2 and "quasiregular" in err


# --- extremal ---------------------------------------------------------------

def test_extremal_claims():
    doc = run_json(["extremal", "--claim", "canonical", "--q", "2", "--n", "3",
                    "--t", "1"])
    assert doc["status"] == "confirmed" and doc["value"] == "24"

    doc = run_json(["extremal", "--claim", "singer", "--q", "2", "--n", "3"])
    assert doc["status"] == "confirmed" and doc["value"] == "7"

    doc = run_json(["extremal", "--claim", "determinant", "--q", "3", "--n", "2",
                    "--t", "1"])
    assert doc["status"] == "confirmed" and doc["value"] == "3"

    doc = run_json(["extremal", "--claim", "derange", "--q", "2", "--n", "3",
                    "--t", "1", "--tau", "q=2;n=3;m=3;rows=010;100;001"])
    assert doc["status"] == "confirmed"

    doc = run_json(["extremal", "--claim", "optimum", "--q", "2", "--n", "2",
                    "--t", "1", "--mode", "exhaustive"])
    assert doc["status"] == "exploratory" and doc["value"] == doc["bound"] == "2"


def test_extremal_flag_requirements():
    assert run(["extremal", "--claim", "canonical", "--q", "2", "--n", "3"])[0] == 2
    assert run(["extremal", "--claim", "derange", "--q", "2", "--n", "3",
                "--t", "1"])[0] == 2


# --- verify and global flags ------------------------------------------------

def test_verify_unknown_suite():
    rc, _, err = run(["verify", "--suite", "bogus"])
    assert rc == 2 and "unknown suite" in err


def test_no_command_is_a_usage_error():
    assert run([])[0] == 2
