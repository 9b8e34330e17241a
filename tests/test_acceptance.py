"""Acceptance gate: every built-in verification criterion must hold.

Each test prints the one-line PASS/FAIL record of its criterion and
fails with that record as the message, so a red run shows exactly which
guarantee broke and by how much.  The two fault-injection tests prove
the cross-checks can actually catch a wrong implementation: they flip a
sign in the resolvent denominator and truncate the series expansion to
zero levels, and require the affected criteria to fail.  The last two
tests hold that the `verify` table and the panel share one comparison,
and that a run builds the panel only for the criteria that read it.
"""

import numpy as np
import pytest

from fkin import verification
from fkin.kinetics import TruncationPolicy
from fkin.verification import (check_closed_vs_oracles, run_all,
                               verify_problem)

CRITERIA = (
    "ml-reductions",
    "laplace-pair",
    "closed-vs-oracles",
    "closed-specializations",
    "gaussian-limit",
    "mass-conservation",
    "far-field-decay",
    "stable-density",
    "stepper-order",
    "residual-defect",
)


@pytest.fixture(scope="module")
def report():
    results = {r.name: r for r in run_all()}
    assert set(results) == set(CRITERIA)
    return results


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(report, name):
    result = report[name]
    print(result)
    assert result.passed, str(result)


def test_wrong_denominator_sign_is_caught():
    results = run_all(filter="closed-vs-oracles", denominator_sign=-1.0)
    assert results and all(not r.passed for r in results), \
        "sign flip in the image denominator went unnoticed"


def test_zero_truncation_is_caught():
    tp = TruncationPolicy(l_max=0)
    for name in ("closed-vs-oracles", "residual-defect"):
        results = run_all(filter=name, truncation=tp)
        assert results and all(not r.passed for r in results), \
            f"zero-level truncation went unnoticed by {name}"


@pytest.mark.parametrize("row", [
    {"inversion_rel": float("nan"), "stepper_rels": [1e-5, 1e-5, 1e-5]},
    {"inversion_rel": 1e-9, "stepper_rels": [1e-5, 1e-5, float("nan")]},
], ids=["inversion", "stepper"])
def test_nan_error_is_caught(row):
    # a nan compares False against any tolerance; it must fail the row
    row = dict(row, name="nan-row", error=None)
    assert not check_closed_vs_oracles([row]).passed


def test_verify_table_and_panel_share_one_comparison():
    # the verify table at dt = 1/512 is the panel row's finest grid
    name = "three-term-general"
    problem = dict(verification.canonical_problems())[name]
    row, = [r for r in verification._triangle_data() if r["name"] == name]
    report = verify_problem(problem, verification._TPTS, dt=1.0 / 512.0)
    assert report.route == row["route"]
    assert float(np.max(report.inverted_rel)) == row["inversion_rel"]
    assert float(np.max(report.stepped_rel)) == row["stepper_rels"][-1]


def test_panel_is_built_only_for_its_criteria(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the panel was built")

    monkeypatch.setattr(verification, "_triangle_data", refuse)
    results = run_all(filter="gaussian-limit")
    assert [r.name for r in results] == ["gaussian-limit"]
    assert results[0].passed
