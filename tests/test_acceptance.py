"""Acceptance gate: one test per numbered check in resplit.acceptance.

Each test runs its check through ``Check.run``, as ``resplit verify`` does, so
the wall-clock gates of checks 1, 3, 4, 6 and 9 apply here too.  Each check is
seeded, so a failure here reproduces exactly under the CLI and vice versa.
The statistical ones take seconds to minutes each.  In a full tier-1 run on a
2-core Xeon with Python 3.11 and numpy 2.4, checks 6, 9, 7 and 3 took 51 s,
39 s, 21 s and 19 s; the whole module takes about two and a half minutes,
most of it in those four.
"""
from __future__ import annotations

from resplit import acceptance


def _run(number: int, tmp_path) -> None:
    check = next(c for c in acceptance.CHECKS if c.number == number)
    passed, detail = check.run(tmp_path)
    assert passed, f"check {number} ({check.title}): {detail}"


def test_check_01_baseline_trajectory_accounting(tmp_path):
    _run(1, tmp_path)


def test_check_03_stage_estimator_vs_exact_law(tmp_path):
    _run(3, tmp_path)


def test_check_04_two_stage_bias_variance_composition(tmp_path):
    _run(4, tmp_path)


def test_check_05_agreement_with_exhaustive_enumeration(tmp_path):
    _run(5, tmp_path)


def test_check_06_rare_regime_engine_comparison(tmp_path):
    _run(6, tmp_path)


def test_check_07_cross_engine_agreement_common_regime(tmp_path):
    _run(7, tmp_path)


def test_check_08_pool_sizing_worked_examples(tmp_path):
    _run(8, tmp_path)


def test_check_09_mitigation_selection_trend(tmp_path):
    _run(9, tmp_path)


def test_check_10_artifact_determinism(tmp_path):
    _run(10, tmp_path)


def test_registry_numbering_and_quick_subset():
    numbers = [c.number for c in acceptance.CHECKS]
    assert numbers == [1, *range(3, 11)]  # number 2 is retired
    quick = {c.number for c in acceptance.CHECKS if c.quick}
    assert quick == {1, 8, 10}
    gates = {c.number: c.gate_s for c in acceptance.CHECKS if c.gate_s is not None}
    assert gates == {1: 1.0, 3: 30.0, 4: 120.0, 6: 600.0, 9: 900.0}


def test_run_fails_a_passing_check_over_its_gate(tmp_path):
    check = acceptance.Check(0, "instant", True, lambda work: (True, "ok"), gate_s=0.0)
    passed, detail = check.run(tmp_path)
    assert not passed
    assert detail.startswith("ok time=") and detail.endswith(" of 0s")
