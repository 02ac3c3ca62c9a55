"""Backoff schedule."""

import pytest

from repro.resilience import Backoff


class TestBackoff:
    def test_exponential_and_capped(self):
        backoff = Backoff(base=0.1, factor=2.0, max_delay=0.4, jitter=0.0)
        assert [round(backoff.next_delay(), 3) for _ in range(5)] == [
            0.1, 0.2, 0.4, 0.4, 0.4,
        ]
        assert backoff.failures == 5
        backoff.reset()
        assert backoff.next_delay() == pytest.approx(0.1)

    def test_seeded_jitter_is_reproducible(self):
        a = Backoff(jitter=0.25, seed=9)
        b = Backoff(jitter=0.25, seed=9)
        assert [a.next_delay() for _ in range(4)] == [
            b.next_delay() for _ in range(4)
        ]

    def test_jitter_never_lowers_delay(self):
        backoff = Backoff(base=0.5, factor=1.0, max_delay=0.5, jitter=0.5)
        for _ in range(20):
            delay = backoff.next_delay()
            assert 0.5 <= delay <= 0.75

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Backoff(base=0.0)
        with pytest.raises(ValueError):
            Backoff(jitter=2.0)
