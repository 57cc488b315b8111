"""The acceptance gate: each numbered criterion runs end to end with a fresh
default budget, and reports one pass/fail line.

Run with -s (or read the captured stdout) to see the per-criterion lines.
Slow by design: the whole file is a few minutes of exact arithmetic.
"""

import pytest

from linfam import verify
from linfam.budget import Budget
from linfam.errors import BudgetExceeded

# wall-clock ceilings, seconds, where a criterion declares one
TIME_LIMITS = {1: 120.0, 2: 300.0, 9: 900.0}


def _run(k):
    rep = verify.run_criterion(k)
    verdict = "PASS" if rep["pass"] else "FAIL"
    print(f"criterion {k} ({rep['name']}): {verdict} "
          f"[{rep['checks']} checks, {rep['elapsed']:.1f}s]")
    assert rep["pass"], (rep["name"], rep["failed"])
    limit = TIME_LIMITS.get(k)
    if limit is not None:
        assert rep["elapsed"] < limit, (k, rep["elapsed"], limit)
    return rep


def test_criterion_01_counting_oracle_equivalence():
    _run(1)


def test_criterion_02_fourier_exactness():
    _run(2)


def test_criterion_03_spectral_identities():
    _run(3)


def test_criterion_04_bilinear_decomposition():
    _run(4)


def test_criterion_05_hypercontractivity_and_rank_nullity():
    _run(5)


def test_criterion_06_quasiregularity_consequences():
    _run(6)


def test_criterion_07_regularity_postconditions():
    _run(7)


def test_criterion_08_extremal_desk_scale():
    _run(8)


def test_criterion_09_derangement_counts():
    _run(9)


def test_criterion_10_ratio_bound_soundness():
    _run(10)


def test_suite_runner_covers_every_criterion():
    assert sorted(verify.CRITERIA) == list(range(1, 11))
    listed = sorted(k for ks in verify.SUITES.values() for k in ks)
    assert listed == list(range(1, 11))


def test_criterion_06_keeps_the_budget():
    # its first budgeted call is the transform of a reduced family
    with pytest.raises(BudgetExceeded, match="^butterfly transform exceeded 0s"):
        verify.run_criterion(6, budget=Budget(seconds=0))


@pytest.mark.parametrize("k,layer", [(2, "butterfly transform"),
                                     (4, "eigenvalue formula"),
                                     (5, "butterfly transform")])
def test_transform_criteria_keep_the_budget(k, layer):
    with pytest.raises(BudgetExceeded, match=f"^{layer} exceeded 0s"):
        verify.run_criterion(k, budget=Budget(seconds=0))
