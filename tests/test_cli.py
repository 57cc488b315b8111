"""Command-line surface: JSON shapes, exit codes, and file round-trips.

Commands run in process through main(argv); exit code 2 covers both usage
errors (argparse raises SystemExit) and domain errors (returned).
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from linfam import cli, verify
from linfam.budget import Budget
from linfam.gf import field
from linfam.families import Family, Restriction, enumerate_coset
from linfam.matspace import Mat, agreement_dim, rank

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
    # prime powers above field()'s table cap stay countable
    doc = run_json(["count", "--kind", "gauss", "--q", "8192", "--m", "2",
                    "--d", "1"])
    assert doc["value"] == 8193
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
    for argv in (["--kind", "rank", "--q", "1", "--n", "2", "--m", "2",
                  "--d", "1"],
                 ["--kind", "gauss", "--q", "6", "--m", "2", "--d", "1"]):
        rc, out, err = run(["count"] + argv)
        assert rc == 2 and out == "" and "not a prime power" in err
    rc, _, _ = run(["count", "--kind", "nonsense", "--q", "2"])
    assert rc == 2    # argparse rejects the choice


COUNT_KINDS = {"gauss": ("m", "d"), "rank": ("n", "m", "d"), "mqt": ("n", "t"),
               "phi": ("m", "n", "t"), "avoid": ("n", "k", "d")}


def test_count_stdout_golden():
    # every kind at q = 2 and 9 with each parameter in -1..4, out-of-range
    # values included, then each kind with one required flag left out
    argvs = []
    for q, (kind, names) in itertools.product((2, 9), COUNT_KINDS.items()):
        for vals in itertools.product(range(-1, 5), repeat=len(names)):
            argvs.append([f"--{nm}={v}" for nm, v in zip(names, vals)]
                         + ["--kind", kind, "--q", str(q)])
        for left_out in names:
            argvs.append([f"--{nm}=2" for nm in names if nm != left_out]
                         + ["--kind", kind, "--q", str(q)])
    h = hashlib.sha256()
    for argv in argvs:
        h.update(json.dumps(run(["count"] + argv)).encode())
    assert len(argvs) == 1466
    assert h.hexdigest() == (
        "62809a1341e204d132fa8c2fb1b62cd3cc52624b45be05b05e0daf527607a44a")


def test_count_prime_power_test_keeps_budget():
    # 10^12 + 39 is prime: trial division runs to 10^6, past one clock check
    argv = ["count", "--kind", "mqt", "--q", "1000000000039", "--n", "2",
            "--t", "1"]
    rc, out, err = run(argv + ["--budget-seconds", "0"])
    assert rc == 3 and out == "" and "prime power test" in err
    assert run_json(argv) == {"kind": "mqt", "q": 1000000000039, "n": 2,
                              "t": 1, "value": 1000000000077000000001482}


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


def test_fourier_keeps_the_budget(tmp_path):
    fn = tmp_path / "fn.txt"
    fn.write_text("2,1,1\n1\n0\n")
    rc, out, err = run(["fourier", "--function", str(fn), "--budget-seconds", "0"])
    assert rc == 3 and out == ""
    assert "budget exceeded: butterfly transform exceeded 0.0s" in err


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


@pytest.mark.parametrize("text", ["", "2,1,1\n1/0\n0\n", "2,1\n1\n0\n"])
def test_fourier_rejects_malformed_function_file(tmp_path, text):
    fn = tmp_path / "fn.txt"
    fn.write_text(text)
    rc, out, err = run(["fourier", "--function", str(fn)])
    assert rc == 2 and out == "" and err.startswith("error:")


def _function_file(q, n, m, irrational, seed):
    """A function file written line by line: seeded random fractions, or
    p - 1 seeded coordinates per value when irrational."""
    rng = random.Random(seed)
    coords = field(q).p - 1 if irrational else 1
    lines = [f"{q},{n},{m}"]
    for _ in range(q ** (n * m)):
        lines.append(",".join(str(Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
                              for _ in range(coords)))
    return "\n".join(lines) + "\n"


def _context_family_file(seed):
    """Half the members of a q = 3 coset cut by one column and one row
    constraint, both with their pivot on the second coordinate."""
    s3 = field(3)
    ctx = Restriction(s3, 3, 3, cols=[((0, 1, 2), (1, 0, 2))],
                      rows=[((0, 2, 1), (1, 0, 1))])
    coset = enumerate_coset(ctx)
    members = random.Random(seed).sample(coset, len(coset) // 2)
    return Family(s3, 3, 3, members, ctx).to_text()


# sha256 of `linfam fourier` stdout for fixed inputs: the JSON depends on
# the transform's values only, never on how the tables are stored
FOURIER_GOLDEN = [
    ("function", lambda: _function_file(2, 2, 3, False, 1),
     "934b6b5f48dc6a57fb1f348f0bb55c164305ec7e3217d7ae1d97a4d01034552a"),
    ("function", lambda: _function_file(3, 1, 3, False, 2),
     "f8cd7c8065d90c9fd80d37ee864f7cee5401d257199b05a0641ae241855bd97f"),
    ("function", lambda: _function_file(4, 2, 1, False, 3),
     "59a37f5f3012cf706146bca41e683fbb7f653ae2467912e094778c0ee4ee6717"),
    ("function", lambda: _function_file(5, 1, 2, False, 4),
     "3b08784274107f8b841ea595535801c7f938a9ce13e7754ebbf1166db727c4ec"),
    ("function", lambda: _function_file(3, 2, 1, True, 5),
     "732878a6d9bf95dcfbc265799648b5602b8a1ec375fd90fa9bc8361df9790a7d"),
    ("function", lambda: _function_file(5, 1, 2, True, 6),
     "11380c53f3f96e920f56e99121c080ab0f93a702fa25545c15e401abb7a2a655"),
    ("family", lambda: _context_family_file(7),
     "36ad2e83d3ed264055f858096a1dfab75104c41b5ef111141e43c0b3f347830b"),
]


@pytest.mark.parametrize("kind,text,sha", FOURIER_GOLDEN, ids=[
    "q2", "q3", "q4", "q5", "q3-irrational", "q5-irrational", "q3-family"])
def test_fourier_stdout_golden(tmp_path, kind, text, sha):
    path = tmp_path / "input.txt"
    path.write_text(text())
    rc, out, err = run(["fourier", f"--{kind}", str(path)])
    assert rc == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == sha


# sha256 of `linfam extremal` stdout at fixed points, one per claim that
# walks the prefix-fixing family, at q = 2 and q > 2
EXTREMAL_GOLDEN = [
    (["canonical", "2", "4", "2"],
     "d77e8e60d559d72dee59f4a76145f5d3532ac684a6660781c99d6e50cac38413"),
    (["canonical", "3", "3", "1"],
     "e0b5a07cefe7fed99674eadb021a671a157c5b6b68fdd44fe9985f8400f0fd8d"),
    (["canonical", "4", "3", "1"],
     "09bc768a25e9c72c2e88a46fd91884070d962309f3fb1d06a6f651296678f539"),
    (["determinant", "3", "3", "1"],
     "10c71efe7e14662b4958ef6173b69ac3c2ebe427dcb843612011c8eeefecc4c6"),
    (["determinant", "5", "2", "1"],
     "a09d1da3797c7664ff9f3b98ca72fef41d70192a24ed4d8972c575e37511f59c"),
    (["determinant", "3", "2", "2"],
     "be437651de69a0fb7779b1e44ed8c1ef3facecafbe1a99ebd60c33793ca38051"),
    (["derange", "2", "5", "2", "--tau",
      "q=2;n=5;m=5;rows=10000;00100;00001;01100;01011"],
     "a9283716e11cdfa304ead445a7b91239f64648666cd68b62c980f504fe8ed424"),
    (["derange", "4", "3", "1", "--tau", "q=4;n=3;m=3;rows=322;110;230"],
     "b4c1dd22d8d1916e290f65c95085e65cf99c3d72ff52b408e6b3eedcf7d9695d"),
    (["derange", "3", "3", "2", "--tau", "q=3;n=3;m=3;rows=122;001;100"],
     "db86e34283643947299639b3b157b5c9281c3e749803e3eb5c80f102e00efc50"),
    (["optimum", "2", "3", "2", "--mode", "sample"],
     "17fd4f4977ad78e476748241d5b5bbdfa1c757d49dc48b27a791842efaa29a1b"),
    (["optimum", "5", "2", "1", "--mode", "sample"],
     "7ea60eb3142e823928e516718bd9bed4faa48f7da3bf1529f2f11fac0b99a572"),
]


@pytest.mark.parametrize("args,sha", EXTREMAL_GOLDEN,
                         ids=["-".join(a[:4]) for a, _ in EXTREMAL_GOLDEN])
def test_extremal_stdout_golden(args, sha):
    claim, q, n, t, *rest = args
    rc, out, err = run(["extremal", "--claim", claim, "--q", q, "--n", n,
                        "--t", t] + rest)
    assert rc == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == sha


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


def _planted_family_file(q, n, m, context, noise, seed):
    """A seeded sample of a noise fraction of the coset (the whole space
    without a context), plus every coset member sending e_m to e_1 and
    every one whose last row is e_1^T, so captures exist on both sides."""
    spec = field(q)
    e = lambda k, i: tuple(int(j == i) for j in range(k))
    ctx = (Restriction(spec, n, m, cols=[(e(m, 0), e(n, n - 1))]) if context
           else Restriction.empty(spec, n, m))
    coset = enumerate_coset(ctx)
    members = set(random.Random(seed).sample(coset, int(len(coset) * noise)))
    for P in (Restriction(spec, n, m, cols=[(e(m, m - 1), e(n, 0))]),
              Restriction(spec, n, m, rows=[(e(n, n - 1), e(m, 0))])):
        members.update(M for M in coset if P.matches(M))
    return Family(spec, n, m, members, ctx).to_text()


# sha256 of `linfam regularity` stdout, junta file and log file at r = 2:
# the log fixes the node order, so these pin how captures open children
REGULARITY_GOLDEN = [
    ((2, 3, 3, False, "1/10"), ["--s", "1", "--eps", "1/4"], (
        "a58187d042f5adacada264d9224d013039fe5dedc0c3119d8f9cddbaecf96960",
        "e538cde922ae3b3f0f7a510fc9aebaf9ccff985f2c581e15fb6e4c1a72e39c63",
        "259a2249a6a63d5f5d97f0858b6dc33cb0329e0728d2f943fc2c1251f0fa19c9")),
    ((2, 3, 3, False, "1/10"), ["--s", "2", "--eps", "1/8"], (
        "15967093a84cfeec0ddda71af5774414d22caac88fb60977c8124c2e5bd39ee2",
        "c0ae62399f29772723ba265699001b22f29f6db20eca0e6fddf8725304e5cbd1",
        "8c84f4c764e2ce7f1378954d755551f315d5af9d9d2a103b2ecb21492eab04e2")),
    ((2, 3, 3, True, "3/10"), ["--s", "2", "--eps", "1/16"], (
        "b146d292ead0ccd2d4eab867f7a47e46c80cefa7579a3d456f68d3b0620d3ea2",
        "398a0d1509e07905c1ab69216b447982d52ac8c51ca0c5a9efe7f5a8e10a0d0f",
        "b9ab7ffccf49b6ec1543dc050f336fc3f7d018c4d23f154efbd8e7c1c351da02")),
    ((3, 2, 3, False, "1/10"), ["--s", "1", "--eps", "1/6"], (
        "781c8733a66895450280d8219c6dca297f8cdc02f62a0a1fd93c37c93b165238",
        "a3181222973301730d5d1abf73e5d80f0adb8658b78bab8f704a661cf91f4e2f",
        "a9449afd40976ed2a686eb41f41f78bc0d81701ad1ae48b37785e9c3092ffad6")),
    ((3, 2, 3, False, "3/10"), ["--s", "2", "--eps", "1/6"], (
        "0bc38ca68e100558874b6c3c478c8113672e84fba1c0049f2ccac6501633b4e0",
        "230ead74595c41dd913b1ed0ad8fbb355f67ca9a045b671a039a992facb9e0fa",
        "a35093063b0315132fcc5e76966510859e099007a2f312acde4f536f6b77afbe")),
    ((3, 2, 3, True, "1/10"), ["--s", "1", "--eps", "1/6"], (
        "3de0eff600eb702601a6290b64f9d8ace92bda38442483f38d6672794e0ffd48",
        "052d2981618fe07185d47cbd39321ca2b043c9f1a6b54ca2a51091cd6acee791",
        "745908355325cecaa306134f5a0f42d41ebc2d0af7d2c6ebfe55ef9335b1f625")),
    ((3, 2, 3, True, "1/10"), ["--s", "2"], (
        "4714efdf20b07c3b9061b52b423e6b2bf88b60eb824839743d6de92819d20e94",
        "668ac720cb216638e1012c8f09c7b474c568789860bff2bef5a63c3e7d9e5e94",
        "983d742777e0eaf1a0a6cdfa6b06723fd34b47ab38af72d6b26d3bda7f851af3")),
]


@pytest.mark.parametrize("fam,extra,shas", REGULARITY_GOLDEN, ids=[
    "q2-s1", "q2-s2", "q2-context-s2", "q3-s1", "q3-s2", "q3-context-s1",
    "q3-context-s2"])
def test_regularity_output_golden(tmp_path, monkeypatch, fam, extra, shas):
    q, n, m, context, noise = fam
    (tmp_path / "family.txt").write_text(
        _planted_family_file(q, n, m, context, Fraction(noise), 1))
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(["regularity", "--family", "family.txt", "--r", "2",
                        "--out-junta", "junta.json", "--out-log", "log.json"]
                       + extra)
    assert rc == 0, err
    got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in
                (out, (tmp_path / "junta.json").read_text(),
                 (tmp_path / "log.json").read_text()))
    assert got == shas


# --- bootstrap --------------------------------------------------------------

def test_bootstrap_full_space_holds(tmp_path):
    fam = tmp_path / "full33.txt"
    fam.write_text(Family.full_space(s2, 3, 3).to_text())
    doc = run_json(["bootstrap", "--family", str(fam), "--b", "0", "--N", "1",
                    "--delta", "1", "--beta", "3/2"])
    assert doc["holds"] is True and doc["witness"] is None
    assert doc["beta_cap"] == "2"


def test_bootstrap_keeps_the_budget(tmp_path):
    fam = tmp_path / "full33.txt"
    fam.write_text(Family.full_space(s2, 3, 3).to_text())
    rc, out, err = run(["bootstrap", "--family", str(fam), "--b", "0", "--N", "1",
                        "--delta", "1", "--beta", "3/2", "--budget-seconds", "0"])
    assert rc == 3 and out == "" and "density scan exceeded" in err


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

    doc = run_json(["extremal", "--claim", "singer", "--q", "2", "--n", "1"])
    assert doc["status"] == "confirmed" and doc["value"] == "1"

    doc = run_json(["extremal", "--claim", "determinant", "--q", "3", "--n", "2",
                    "--t", "1"])
    assert doc["status"] == "confirmed" and doc["value"] == "3"

    doc = run_json(["extremal", "--claim", "derange", "--q", "2", "--n", "3",
                    "--t", "1", "--tau", "q=2;n=3;m=3;rows=010;100;001"])
    assert doc["status"] == "confirmed"

    doc = run_json(["extremal", "--claim", "optimum", "--q", "2", "--n", "2",
                    "--t", "1", "--mode", "exhaustive"])
    assert doc["status"] == "exploratory" and doc["value"] == doc["bound"] == "2"


# sha256 of `linfam extremal --claim singer` stdout: the member count and
# the zero-agreement verdict at q = 2 and q > 2
SINGER_GOLDEN = [
    ("2", "3", "852be5f746c1fa999023d007a66a307624ba70df0b20ad105e2077b6d4c862d7"),
    ("3", "2", "68a7ed79934f448e2e44bf05df8a7d30394b2bd960c769a0a5e1ed273b699835"),
    ("4", "2", "10a60e3103a857dea7009a5ab7779631217875b0022e6d9be49066cccc930ff5"),
    ("2", "5", "d941536bdd90162189d6f2f5c08aed6cd82f9aafb2af0feab327eb79b0b82292"),
]


@pytest.mark.parametrize("q,n,sha", SINGER_GOLDEN,
                         ids=[f"q{q}-n{n}" for q, n, _ in SINGER_GOLDEN])
def test_extremal_singer_stdout_golden(q, n, sha):
    rc, out, err = run(["extremal", "--claim", "singer", "--q", q, "--n", n])
    assert rc == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_first_clash_matches_pairwise_scan(q):
    # random invertible members; a pair clashes when it agrees on a nonzero
    # vector, and the scan reports the first such pair in index order
    spec, rng = field(q), random.Random(3200 + q)
    seen = set()
    for n in (2, 3):
        for _ in range(30):
            members, size = set(), rng.randrange(2, 6)
            while len(members) < size:
                M = Mat.from_index(spec, n, n, rng.randrange(q ** (n * n)))
                if rank(M) == n:
                    members.add(M)
            fam = Family(spec, n, n, members)
            ms = sorted(members, key=Mat.index)
            want = next(((i, j) for i, j in itertools.combinations(
                range(len(ms)), 2) if agreement_dim(ms[i], ms[j])), ())
            assert cli._first_clash(fam, Budget()) == [ms[i] for i in want], ms
            seen.add(want)
    # clash-free sets, and clashes found past the first pair
    assert () in seen and (0, 1) in seen and seen - {(), (0, 1)}, seen


def test_extremal_singer_keeps_the_budget():
    # 511 listed vectors: the clash scan checks the clock once per vector
    rc, out, err = run(["extremal", "--claim", "singer", "--q", "2", "--n", "9",
                        "--budget-seconds", "0"])
    assert rc == 3 and out == ""
    assert "singer pair scan exceeded 0.0s time budget after 0 of 511" in err


# a typo in an argument is a usage error (2), never a failed claim (1)
MALFORMED = [
    ["extremal", "--claim", "derange", "--q", "2", "--n", "2", "--t", "1",
     "--tau", "q=2;m=2;rows=10;01"],
    ["extremal", "--claim", "derange", "--q", "2", "--n", "2", "--t", "1",
     "--tau", "q=2;n=two;m=2;rows=10;01"],
    ["extremal", "--claim", "derange", "--q", "2", "--n", "2", "--t", "5",
     "--tau", "q=2;n=2;m=2;rows=10;01"],
    ["extremal", "--claim", "singer", "--q", "2", "--n", "0"],
    ["extremal", "--claim", "singer", "--q", "2", "--n", "-1"],
    ["extremal", "--claim", "optimum", "--q", "2", "--n", "2", "--t", "0",
     "--mode", "exhaustive"],
    ["extremal", "--claim", "optimum", "--q", "2", "--n", "2", "--t", "0",
     "--mode", "spectral"],
    ["regularity", "--r", "1", "--s", "1", "--eps", "1/0"],
    ["bootstrap", "--b", "0", "--N", "1", "--delta", "1/0", "--beta", "3/2"],
    ["bootstrap", "--b", "0", "--N", "1", "--delta", "1", "--beta", "1/0"],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=[
    "tau-without-n", "tau-non-integer-n", "derange-t-above-n",
    "singer-n-zero", "singer-n-negative", "exhaustive-t-zero",
    "spectral-t-zero",
    "eps-zero-denominator",
    "delta-zero-denominator", "beta-zero-denominator"])
def test_malformed_arguments_exit_2(tmp_path, monkeypatch, argv):
    (tmp_path / "family.txt").write_text(Family.full_space(s2, 2, 2).to_text())
    monkeypatch.chdir(tmp_path)
    if argv[0] != "extremal":
        argv = argv + ["--family", "family.txt"]
    rc, out, err = run(argv)
    assert rc == 2 and out == "" and err.startswith("error:")


def test_regularity_rejects_out_of_field_constraint(tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("3,1,2\ncol 10 -> 5\n")
    rc, out, err = run(["regularity", "--family", str(fam), "--r", "1", "--s", "1",
                        "--out-junta", str(tmp_path / "junta.json"),
                        "--out-log", str(tmp_path / "log.json")])
    assert rc == 2 and out == "" and "outside 0..2" in err
    assert not (tmp_path / "junta.json").exists()


def test_regularity_rejects_malformed_family_header(tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("2,2\n")
    rc, out, err = run(["regularity", "--family", str(fam), "--r", "1", "--s", "1"])
    assert rc == 2 and out == "" and err.startswith("error: malformed family file")


def test_derange_past_the_walk():
    # the fixed-prefix family at (7, 2, 2) has 10,239,344,640 members
    doc = run_json(["extremal", "--claim", "derange", "--q", "2", "--n", "7",
                    "--t", "2", "--tau", "q=2;n=7;m=7;rows=0100000;0010000;"
                    "0001000;0000100;0000010;0000001;1000000"])
    assert doc["value"] == "5914001408" and doc["bound"] == "980561920"
    assert doc["status"] == "confirmed"
    # at q > 2 tau is ranked by RREF, with no q^(2 ceil(n/2))-entry table
    shift = ";".join("0" * (i + 1) + "1" + "0" * (6 - i) for i in range(7))
    doc = run_json(["extremal", "--claim", "derange", "--q", "9", "--n", "8",
                    "--t", "3", "--tau", f"q=9;n=8;m=8;rows={shift};20000000"])
    assert doc["value"] == "22455640716935284218746142438612192"
    assert doc["bound"] == "5614731365906736663414067854533241"
    assert doc["status"] == "confirmed"


def test_extremal_flag_requirements():
    assert run(["extremal", "--claim", "canonical", "--q", "2", "--n", "3"])[0] == 2
    assert run(["extremal", "--claim", "derange", "--q", "2", "--n", "3",
                "--t", "1"])[0] == 2


# --- verify and global flags ------------------------------------------------

def test_verify_unknown_suite():
    rc, _, err = run(["verify", "--suite", "bogus"])
    assert rc == 2 and "unknown suite" in err


def test_verify_criteria_keep_the_item_budget():
    # criterion 2's Parseval corpus reaches 2^7-entry butterflies, each
    # needing 2^7 * 7 * 2 = 1792 items
    rc, out, err = run(["verify", "--suite", "fourier", "--budget-items", "1000"])
    assert rc == 3 and out == ""
    assert "butterfly transform needs 1792 items, budget is 1000" in err


def test_verify_prints_a_line_per_criterion_and_a_summary(monkeypatch):
    def stub(k, ok):
        return lambda seed, budget: {"criterion": k, "pass": ok, "seed": seed}

    monkeypatch.setattr(verify, "CRITERIA", {1: stub(1, True), 2: stub(2, False)})
    monkeypatch.setattr(verify, "SUITES", {"good": (1,)})
    rc, out, _ = run(["verify", "--suite", "good", "--seed", "7"])
    assert rc == 0 and out.splitlines() == [
        '{"criterion": 1, "pass": true, "seed": 7}',
        '{"suite": "good", "criteria": 1, "pass": true}']
    rc, out, _ = run(["verify", "--suite", "all"])
    assert rc == 1 and out.splitlines() == [
        '{"criterion": 1, "pass": true, "seed": 0}',
        '{"criterion": 2, "pass": false, "seed": 0}',
        '{"suite": "all", "criteria": 2, "pass": false}']


def test_seed_belongs_to_verify_alone():
    argv = ["count", "--kind", "mqt", "--q", "2", "--n", "3", "--t", "1"]
    assert run(argv)[0] == 0
    assert run(argv + ["--seed", "1"])[0] == 2


def test_no_command_is_a_usage_error():
    assert run([])[0] == 2
