"""Retry backoff: bounded, exponential, deterministically jittered."""

import time

import pytest

from exec_fakes import fake_factory
from repro.exec.engine import ExperimentEngine, RetryBackoff
from repro.exec.spec import RunOptions


class TestRetryBackoff:
    def test_deterministic_for_same_key_and_attempt(self):
        backoff = RetryBackoff()
        assert backoff.delay("sim:wl", 3) == backoff.delay("sim:wl", 3)

    def test_jitter_separates_keys(self):
        backoff = RetryBackoff()
        assert backoff.delay("sim-a:wl", 2) != backoff.delay("sim-b:wl", 2)

    def test_exponential_growth_up_to_cap(self):
        backoff = RetryBackoff(base_s=0.05, cap_s=2.0, jitter=0.0)
        delays = [backoff.delay("k", attempt) for attempt in range(1, 9)]
        assert delays[:4] == [0.05, 0.1, 0.2, 0.4]
        assert delays[-1] == 2.0  # capped
        assert all(a <= b for a, b in zip(delays, delays[1:]))

    def test_jitter_stays_within_fraction(self):
        backoff = RetryBackoff(base_s=1.0, cap_s=1.0, jitter=0.25)
        for key in ("a", "b", "c", "d"):
            delay = backoff.delay(key, 1)
            assert 0.75 <= delay <= 1.0

    def test_zero_config_is_zero_delay(self):
        backoff = RetryBackoff(base_s=0.0, cap_s=0.0, jitter=0.0)
        assert backoff.delay("k", 5) == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"base_s": -0.1},
        {"cap_s": -1.0},
        {"jitter": 1.5},
        {"jitter": -0.1},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryBackoff(**kwargs)


class TestEngineUsesBackoff:
    def test_inprocess_retries_wait_between_attempts(self, monkeypatch):
        """The serial engine must consult the backoff schedule between
        attempts of a raising cell."""
        sleeps = []
        monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
        engine = ExperimentEngine(
            options=RunOptions(retries=2),
            backoff=RetryBackoff(base_s=0.05, cap_s=2.0, jitter=0.0),
        )
        grid = engine.run_grid(
            [fake_factory("fake-raise", flavor="raise")], ["E-I"],
        )
        [failure] = grid.failures
        assert failure.attempts == 3
        assert sleeps == [0.05, 0.1]  # between attempts, not after last
