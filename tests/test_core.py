import dataclasses
import hashlib

import numpy as np
import pytest

from resplit.core import (
    BudgetLedger,
    Checkpoint,
    LevelSchedule,
    derive_seed,
    horizon_step_count,
    stream,
)


def test_horizon_step_count():
    assert horizon_step_count(60.0, 0.05) == 1200
    with pytest.raises(ValueError):
        horizon_step_count(1.0, 0.3)  # not an integral number of steps
    with pytest.raises(ValueError):
        horizon_step_count(1.0, -0.1)


class TestBudgetLedger:
    def test_exhaustion(self):
        led = BudgetLedger(5)
        led.used = 4
        assert not led.exhausted
        led.used = 5
        assert led.exhausted

    def test_unlimited(self):
        led = BudgetLedger(None)
        led.used = 10**9
        assert not led.exhausted

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            BudgetLedger(0)


class TestLevelSchedule:
    def test_default_shape(self):
        sched = LevelSchedule(thresholds=(0.0, 0.1, 1.0, 1.5, 2.0))
        assert sched.stage_count == 4
        assert sched.target(0) == 0.1
        assert sched.target(3) == 2.0

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            LevelSchedule(thresholds=(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            LevelSchedule(thresholds=(0.0, 1.0, 0.5))
        with pytest.raises(ValueError):
            LevelSchedule(thresholds=(0.0,))

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            LevelSchedule(thresholds=(0.0, 1.0), labels=("a",))
        sched = LevelSchedule(thresholds=(0.0, 1.0), labels=("ok", "failed"))
        assert sched.labels == ("ok", "failed")

    def test_target_bounds(self):
        sched = LevelSchedule(thresholds=(0.0, 1.0))
        with pytest.raises(IndexError):
            sched.target(1)


class TestCheckpoint:
    def test_validation(self):
        cp = Checkpoint(snapshot=(1, 2.0), level_index=1, hit_step=7, coordinate=1.3)
        assert cp.hit_step == 7
        with pytest.raises(ValueError):
            Checkpoint(snapshot=None, level_index=-1, hit_step=0, coordinate=0.0)
        with pytest.raises(ValueError):
            Checkpoint(snapshot=None, level_index=0, hit_step=-2, coordinate=0.0)

    def test_frozen_dataclass(self):
        cp = Checkpoint((1, 2.0), 1, 7, 1.3)
        assert repr(cp) == "Checkpoint(snapshot=(1, 2.0), level_index=1, hit_step=7, coordinate=1.3)"
        assert cp == Checkpoint((1, 2.0), 1, 7, 1.3) != Checkpoint((1, 2.0), 1, 7, 1.4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cp.coordinate = 0.0
        # replace() builds through __init__, so it keeps the fields it is not given
        # and validates the ones it is
        assert dataclasses.replace(cp, coordinate=0.3) == Checkpoint((1, 2.0), 1, 7, 0.3)
        with pytest.raises(ValueError):
            dataclasses.replace(cp, level_index=-1)


class TestStreams:
    def test_same_key_same_draws(self):
        a = stream(123, "propagate", 2).random(8)
        b = stream(123, "propagate", 2).random(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        base = stream(123, "propagate", 2).random(4)
        assert not np.array_equal(base, stream(124, "propagate", 2).random(4))
        assert not np.array_equal(base, stream(123, "propagate", 3).random(4))
        assert not np.array_equal(base, stream(123, "resample", 2).random(4))

    def test_known_value_frozen(self):
        # guards against silent changes to the keying scheme
        g = stream(20260814, "unit", 0, 1)
        assert g.integers(0, 1 << 32) == 61152112

    def test_derive_seed_stable_and_sensitive(self):
        s = derive_seed(99, "delay_threshold", 0.1, 3)
        assert s == derive_seed(99, "delay_threshold", 0.1, 3)
        assert s != derive_seed(99, "delay_threshold", 0.1, 4)
        assert s != derive_seed(98, "delay_threshold", 0.1, 3)
        assert 0 <= s < 1 << 63
        # integral floats hash like the ints they equal (grid values from JSON)
        assert derive_seed(5, 2.0) == derive_seed(5, 2)


def numpy_stream(master_seed, purpose, *indices):
    """``stream``'s definition, built by numpy alone."""
    code = int.from_bytes(hashlib.blake2b(purpose.encode(), digest_size=8).digest(), "little")
    entropy = (master_seed & ((1 << 63) - 1), code, *indices)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def same_generator(a, b):
    key_a = a.bit_generator.state["state"]["key"]
    key_b = b.bit_generator.state["state"]["key"]
    return np.array_equal(key_a, key_b) and np.array_equal(a.random(6), b.random(6))


# below, at and past the 2**32 where a seed takes a second word, and random 63-bit seeds
SEEDS = (0, 2**32 - 1, 2**32, 2**63 - 1, -1,
         *np.random.default_rng(20).integers(0, 2**63, size=4).tolist())


class TestStreamMatchesNumpy:
    """``stream`` is numpy's ``SeedSequence`` keying, in Philox keys and in
    draws, and a function of its key alone: no call changes another's result."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_consecutive_calls(self, seed):
        for purpose, indices in (("mc", ()), ("lookahead", (0,)), ("lookahead", (2**40, 3))):
            for _ in range(2):
                assert same_generator(stream(seed, purpose, *indices),
                                      numpy_stream(seed, purpose, *indices))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_purposes(self, seed):
        for purpose in ("level-propagate", "level-select", "level-propagate", "resample"):
            assert same_generator(stream(seed, purpose, 2), numpy_stream(seed, purpose, 2))

    def test_index_of_many_words(self):
        for indices in ((2**1100,), (2**40,) * 20, (2**1100, 3)):
            assert same_generator(stream(7, "wide", *indices), numpy_stream(7, "wide", *indices))

    @pytest.mark.parametrize("seed", [5, 2**40 + 5])
    def test_negative_index_raises(self, seed):
        with pytest.raises(ValueError):
            stream(seed, "neg", -1)
        with pytest.raises(ValueError):
            stream(seed, "neg", 2**40, -(2**40))

    @pytest.mark.parametrize("seed", [9, 2**50 + 9])
    def test_generators_from_successive_calls_are_independent(self, seed):
        live = [stream(seed, "pair", i) for i in range(3)]
        refs = [numpy_stream(seed, "pair", i) for i in range(3)]
        # interleaved draws: no generator's draws move another's
        for _ in range(4):
            for g, ref in zip(live, refs):
                assert np.array_equal(g.standard_normal(5), ref.standard_normal(5))
        assert len({id(g.bit_generator) for g in live}) == 3
