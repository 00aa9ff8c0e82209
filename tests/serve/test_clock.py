"""The live service's wall clock (repro.serve.clock)."""

import time

import pytest

from repro.serve.clock import WallClock


class TestWallClock:
    def test_starts_near_zero(self):
        assert abs(WallClock().now()) < 1.0

    def test_monotone_nondecreasing(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_advances_with_real_time(self):
        clock = WallClock(speed=1000.0)
        before = clock.now()
        time.sleep(0.01)
        assert clock.now() - before >= 1.0  # >= 1ms real at 1000x

    def test_speed_scales_time(self):
        slow = WallClock(speed=1.0)
        fast = WallClock(speed=1e6)
        time.sleep(0.001)
        assert fast.now() > slow.now()

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError, match="speed"):
            WallClock(speed=0.0)
