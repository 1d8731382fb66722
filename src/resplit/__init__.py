"""Rare-event estimation by budget-aware fixed-level splitting.

Subpackages by role:

- :mod:`resplit.core`      engine-agnostic primitives (budget, checkpoints, RNG streams)
- :mod:`resplit.netmodel`  delay-critical network model with persistence-triggered failure
- :mod:`resplit.smc`       the splitting estimator and its budget/stopping machinery
- :mod:`resplit.mc`        naive Monte Carlo baseline at matched step budget
- :mod:`resplit.policy`    checkpoint-based lookahead selection of mitigation policies
- :mod:`resplit.analysis`  stopping-bias/variance predictions and exact stage oracles
- :mod:`resplit.config`    experiment configuration loading and validation
- :mod:`resplit.cli`       ``resplit`` command line (run / sweep / policy / verify)
- :mod:`resplit.acceptance`  seeded end-to-end checks behind ``resplit verify``
"""
__version__ = "0.1.0"

__all__ = ["__version__"]
