"""The live service's wall clock.

The engine reads one time: :attr:`repro.sim.state.PlatformState.time`,
the logical cursor that only ``PlatformState.advance`` moves.  A live
server additionally needs a reading of *now* to stamp admit frames that
declare no arrival; :class:`WallClock` supplies it, scaled by a
``speed`` factor mapping wall seconds to simulation time units
(``speed=60`` plays one simulated minute per wall second — the
"compressed time" of the parity tests).  Replay mode never constructs
one: every frame declares its arrival.

``WallClock`` is the repository's *only* sanctioned wall-time reader for
serve logic (lint rule RPR104 exempts this module alone); replays never
touch the OS clock at all.
"""

from __future__ import annotations

import time

__all__ = ["WallClock"]


class WallClock:
    """Live time: ``now()`` follows the OS monotonic clock, scaled.

    Parameters
    ----------
    speed:
        Simulation time units per wall second.  ``speed=1`` runs in real
        time; larger values compress (the live smoke and the sim/live
        parity suite replay hours of trace in seconds).
    """

    def __init__(self, speed: float = 1.0) -> None:
        if speed <= 0:
            raise ValueError(f"speed must be > 0, got {speed}")
        self.speed = speed
        self._origin = time.perf_counter()

    def now(self) -> float:
        """Simulation time since construction (the service epoch)."""
        return (time.perf_counter() - self._origin) * self.speed
