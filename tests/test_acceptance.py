"""Acceptance gate: one test per numbered check in resplit.acceptance.

The tests are made from ``acceptance.CHECKS`` itself, so the registry is the
only list of checks.  Each is a plain function named after its check's number
and title, so check 3, "stage estimator vs exact law", runs as
``test_check_03_stage_estimator_vs_exact_law`` and keeps that test id when
other checks come or go.  Each test runs its check through ``Check.run``, as
``resplit verify`` does, so the wall-clock gates of checks 3, 4, 6 and 9
apply here too.  Each check is seeded, so a failure here reproduces exactly
under the CLI and vice versa.  In a full tier-1 run on a 2-core x86_64 host
with Python 3.11 and numpy 2.4, checks 3, 6, 9 and 4 took 10.7 s, 10.1 s,
8.7 s and 4.8 s; the whole module takes about 45 s.
"""
from __future__ import annotations

import re

from resplit import acceptance


def _check_test(check: acceptance.Check):
    """The test that runs ``check``, named after its number and title."""
    def test(tmp_path):
        passed, detail = check.run(tmp_path)
        assert passed, f"check {check.number} ({check.title}): {detail}"
    slug = re.sub(r"[^a-z0-9]+", "_", check.title).strip("_")
    test.__name__ = test.__qualname__ = f"test_check_{check.number:02d}_{slug}"
    return test


for _test in map(_check_test, acceptance.CHECKS):
    globals()[_test.__name__] = _test


def test_registry_numbering_and_quick_subset():
    numbers = [c.number for c in acceptance.CHECKS]
    assert numbers == [3, 4, 5, 6, 7, 9, 10]  # numbers 1, 2 and 8 are retired
    quick = {c.number for c in acceptance.CHECKS if c.quick}
    assert quick == {10}
    gates = {c.number: c.gate_s for c in acceptance.CHECKS if c.gate_s is not None}
    assert gates == {3: 30.0, 4: 120.0, 6: 600.0, 9: 900.0}


def test_run_fails_a_passing_check_over_its_gate(tmp_path):
    check = acceptance.Check(0, "instant", True, lambda work: (True, "ok"), gate_s=0.0)
    passed, detail = check.run(tmp_path)
    assert not passed
    assert detail.startswith("ok time=") and detail.endswith(" of 0s")
