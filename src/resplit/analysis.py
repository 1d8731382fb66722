"""Estimator diagnostics: stopping-bias/variance predictions and exact stage oracles.

A stage that keeps drawing attempts until it has seen ``s`` successes reports
``p_hat = s / A`` with ``A`` the (random) attempt count.  The prediction
formulas here give the leading-order relative bias and variance of that ratio
and of products of independent stages; ``exact_stage_moments`` sums the
underlying negative-binomial series directly and serves as an independent
reference the sampling engines can be checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ChainPrediction",
    "chain_prediction",
    "exact_stage_moments",
    "geometric_spread",
    "wilson_interval",
]


def exact_stage_moments(p: float, success_target: int, *, tol: float = 1e-12) -> tuple[float, float]:
    """Exact ``(mean, variance)`` of ``s / A`` by series summation, tail-certified below ``tol``.

    For ``success_target=1`` the mean is the geometric-law value ``-p ln p / (1-p)``.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"stage probability must be in (0, 1], got {p}")
    if success_target < 1:
        raise ValueError(f"success_target must be >= 1, got {success_target}")
    s = success_target
    if p == 1.0:
        return 1.0, 0.0
    from scipy import stats  # deferred: only the acceptance checks need scipy

    # A = s + F with F ~ NegBin(s, p) counting pre-success failures.  Each term
    # of E[(s/A)^m], m = 1, 2, carries weight (s/(s+f))^m <= 1, so the
    # truncated tail is bounded by the survival mass, which we grow the cutoff
    # until it certifies below tol.
    cutoff = int(stats.nbinom.isf(tol / 4.0, s, p)) + 16
    for _ in range(64):
        if float(stats.nbinom.sf(cutoff, s, p)) < tol:
            break
        cutoff *= 2
    else:  # pragma: no cover - isf would have to be wildly off
        raise RuntimeError(f"could not certify series tail below {tol} for p={p}, s={s}")
    f = np.arange(cutoff + 1)
    weights = np.exp(stats.nbinom.logpmf(f, s, p))
    ratio = s / (s + f)
    mean, second = float(weights @ ratio), float(weights @ (ratio * ratio))
    return mean, max(second - mean * mean, 0.0)


@dataclass(frozen=True, slots=True)
class ChainPrediction:
    """Relative bias/variance of a product of independent stage estimators."""

    rel_bias: float
    rel_var: float


def chain_prediction(stages: Iterable[tuple[float, float]]) -> ChainPrediction:
    """Compose per-stage ``(rel_bias, rel_var)`` pairs into the product estimator's.

    Exact under stage independence:

    - bias factor: ``prod(1 + b_k) - 1``
    - variance:    ``prod((1 + b_k)^2 + v_k) - prod(1 + b_k)^2``
    """
    bias_prod = 1.0
    second_prod = 1.0
    count = 0
    for b, v in stages:
        if v < 0.0:
            raise ValueError(f"relative variance must be >= 0, got {v}")
        m = 1.0 + b
        bias_prod *= m
        second_prod *= m * m + v
        count += 1
    if count == 0:
        raise ValueError("chain_prediction needs at least one stage")
    return ChainPrediction(
        rel_bias=bias_prod - 1.0,
        rel_var=second_prod - bias_prod * bias_prod,
    )


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion (well-behaved at 0 hits)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits {hits} outside [0, {trials}]")
    from scipy import stats  # deferred: only the acceptance checks need scipy

    z = float(stats.norm.ppf(0.975))
    phat = hits / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if hits == 0 else max(centre - half, 0.0)
    hi = 1.0 if hits == trials else min(centre + half, 1.0)
    return lo, hi


def geometric_spread(values: Sequence[float]) -> float:
    """Geometric standard deviation ``exp(std(log x))`` of strictly positive values."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two values")
    if np.any(arr <= 0.0):
        raise ValueError("geometric spread requires strictly positive values")
    return float(np.exp(np.std(np.log(arr), ddof=1)))
