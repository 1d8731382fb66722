import math
import os
import subprocess
import sys

import numpy as np
import pytest

import resplit

from resplit.analysis import (
    ChainPrediction,
    chain_prediction,
    exact_stage_moments,
    geometric_spread,
    wilson_interval,
)
from resplit.smc import LevelRecord, SmcConfig, SmcReport, predict_diagnostics


class TestStagePrediction:
    def test_hand_values(self):
        # one stage at p = 0.2 stopped at s = 20 successes: (1 - p) / s = 0.04
        report = SmcReport(
            levels=(LevelRecord(0, 100, 20, 0.2, 0, True),),
            estimate=0.2,
            cost_steps_used=0,
            budget_exhausted=False,
            extinction_level=None,
        )
        diag = predict_diagnostics(report, SmcConfig(success_target=20))
        assert diag.stage_rel_bias == pytest.approx((0.04,))
        assert diag.rel_bias == pytest.approx(0.04)
        assert diag.rel_var == pytest.approx(0.04)


class TestExactStageOracle:
    def test_geometric_closed_form(self):
        # single-success stopping: E[1/A] for A ~ Geometric(p) is -p ln p / (1 - p)
        for p in (0.1, 0.25, 0.5, 0.9):
            closed = -p * math.log(p) / (1.0 - p)
            assert exact_stage_moments(p, 1)[0] == pytest.approx(closed, rel=1e-10)

    def test_matches_brute_force_summation(self):
        # independent route: direct PMF accumulation with a fixed huge cutoff
        p, s = 0.2, 20
        total = 0.0
        second = 0.0
        for f in range(0, 10_000):
            w = math.comb(s + f - 1, s - 1) * p**s * (1 - p) ** f
            total += w * s / (s + f)
            second += w * (s / (s + f)) ** 2
        mean, var = exact_stage_moments(p, s)
        assert mean == pytest.approx(total, abs=1e-11)
        assert var == pytest.approx(second - total * total, abs=1e-11)

    def test_cutoff_stability(self):
        a = exact_stage_moments(0.05, 20, tol=1e-12)[0]
        b = exact_stage_moments(0.05, 20, tol=1e-14)[0]
        assert a == pytest.approx(b, abs=5e-12)

    def test_close_to_leading_order(self):
        # exact value sits near p * (1 + (1-p)/s) once s is moderately large
        p, s = 0.2, 20
        mean = exact_stage_moments(p, s)[0]
        approx = p * (1.0 + (1.0 - p) / s)
        assert mean == pytest.approx(approx, rel=2e-3)
        assert mean > p  # stopping at successes overshoots upward

    def test_sure_stage(self):
        mean, var = exact_stage_moments(1.0, 7)
        assert mean == 1.0 and var == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            exact_stage_moments(0.0, 5)
        with pytest.raises(ValueError):
            exact_stage_moments(0.5, 0)


class TestChainPrediction:
    def test_two_equal_stages_hand_arithmetic(self):
        got = chain_prediction([(0.04, 0.04), (0.04, 0.04)])
        assert got.rel_bias == pytest.approx(1.04**2 - 1.0)  # 0.0816
        assert got.rel_var == pytest.approx((1.04**2 + 0.04) ** 2 - 1.04**4)

    def test_accepts_a_generator_of_pairs(self):
        # per-stage (q, q) pairs, q = (1 - p) / s, streamed from a generator
        # as predict_diagnostics passes them
        got = chain_prediction(((1.0 - p) / 20, (1.0 - p) / 20) for p in (0.2, 0.2))
        assert got.rel_bias == pytest.approx(1.04**2 - 1.0)
        assert got.rel_var == pytest.approx((1.04**2 + 0.04) ** 2 - 1.04**4)

    def test_single_stage_passthrough(self):
        got = chain_prediction([(0.03, 0.05)])
        assert got.rel_bias == pytest.approx(0.03)
        assert got.rel_var == pytest.approx((1.03**2 + 0.05) - 1.03**2)
        assert got.rel_var == pytest.approx(0.05)

    def test_monte_carlo_cross_check(self):
        # two independent noisy factors with known first two moments
        rng = np.random.default_rng(42)
        b, v = 0.05, 0.02
        n = 200_000
        f1 = 1.0 + b + math.sqrt(v) * rng.standard_normal(n)
        f2 = 1.0 + b + math.sqrt(v) * rng.standard_normal(n)
        prod = f1 * f2
        got = chain_prediction([(b, v), (b, v)])
        assert prod.mean() - 1.0 == pytest.approx(got.rel_bias, abs=3e-3)
        assert prod.var() == pytest.approx(got.rel_var, rel=0.03)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chain_prediction([])

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            chain_prediction([(0.0, -1e-9)])

    def test_is_frozen_record(self):
        got = chain_prediction([(0.1, 0.1)])
        assert isinstance(got, ChainPrediction)
        with pytest.raises(AttributeError):
            got.rel_bias = 0.0


class TestIntervalHelpers:
    def test_wilson_contains_truth_mostly(self):
        rng = np.random.default_rng(7)
        p, n, reps = 0.3, 200, 400
        covered = 0
        for _ in range(reps):
            hits = rng.binomial(n, p)
            lo, hi = wilson_interval(hits, n)
            covered += lo <= p <= hi
        assert covered / reps > 0.9

    def test_wilson_zero_hits_positive_width(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and 0.0 < hi < 0.2

    def test_wilson_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)

    def test_geometric_spread(self):
        assert geometric_spread([2.0, 2.0, 2.0]) == pytest.approx(1.0)
        vals = [1.0, math.e**2]
        # std of logs with ddof=1: sqrt(2) for {0, 2}
        assert geometric_spread(vals) == pytest.approx(math.exp(math.sqrt(2.0)))
        with pytest.raises(ValueError):
            geometric_spread([1.0, -1.0])
        with pytest.raises(ValueError):
            geometric_spread([1.0])


def test_engines_import_without_scipy():
    # scipy backs only the exact oracles and intervals; importing an engine must not load it
    src = os.path.dirname(os.path.dirname(resplit.__file__))
    code = (
        "import sys, resplit.smc, resplit.mc, resplit.policy, resplit.cli; "
        "sys.exit('scipy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
