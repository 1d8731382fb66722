"""Acceptance gate: one test per numbered check in resplit.acceptance.

These are the same functions ``resplit verify`` runs.  Each is seeded, so a
failure here reproduces exactly under the CLI and vice versa.  The statistical
ones take seconds to minutes each.  Run alone on a 2-core Xeon with Python
3.11 and numpy 2.4, checks 6, 9, 7 and 3 took 82 s, 55 s, 33 s and 20 s;
the whole module takes about four minutes, most of it in those four.
"""
from __future__ import annotations

from resplit import acceptance


def _run(number: int, tmp_path) -> None:
    check = next(c for c in acceptance.CHECKS if c.number == number)
    passed, detail = check.fn(tmp_path)
    assert passed, f"check {number} ({check.title}): {detail}"


def test_check_01_baseline_trajectory_accounting(tmp_path):
    _run(1, tmp_path)


def test_check_02_splitting_resolution_floor(tmp_path):
    _run(2, tmp_path)


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
    assert numbers == list(range(1, 11))
    quick = {c.number for c in acceptance.CHECKS if c.quick}
    assert quick == {1, 2, 8, 10}
