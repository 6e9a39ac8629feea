"""Store-wait predictor.

Paper Section 2.1: "a store-wait predictor, which is a 1024x1 bit table
that speculates whether a load should be issued if there are earlier,
unresolved stores that may share the same address as the load."

A load whose bit is set waits for all older stores to resolve before
issuing.  A load whose bit is clear issues eagerly; if an older store
to the same address then completes after the load, the load (and
everything younger) must be replayed — a *store replay trap*, which on
the 21264 flushes the pipeline.  The bit is set when a load causes such
a trap, and the whole table is cleared periodically so stale bits do
not permanently serialise loads.

The paper found that leaving this predictor out of sim-initial caused a
"precipitous" error on C-R, whose call frames produce many store→load
pairs to the same stack slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.tournament import PredictorStats

__all__ = ["StoreWaitConfig", "StoreWaitPredictor"]


@dataclass
class StoreWaitConfig:
    entries: int = 1024
    #: The table is flash-cleared every this many *cycles* on the real
    #: hardware; our trace-driven models clear on a retired-instruction
    #: cadence instead, which tracks cycles to within the IPC.
    clear_interval: int = 16384


class StoreWaitPredictor:
    """1024x1-bit wait table, indexed by load PC."""

    def __init__(self, config: StoreWaitConfig | None = None):
        self.config = config or StoreWaitConfig()
        if self.config.entries & (self.config.entries - 1):
            raise ValueError("store-wait entries must be a power of two")
        self._mask = self.config.entries - 1
        self._bits = bytearray(self.config.entries)
        self._since_clear = 0
        self.stats = PredictorStats()

    def should_wait(self, pc: int) -> bool:
        """Whether the load at ``pc`` must wait for older stores."""
        self.stats.lookups += 1
        return bool(self._bits[(pc >> 2) & self._mask])

    def record_trap(self, pc: int) -> None:
        """The load at ``pc`` caused a store replay trap: set its bit."""
        self.stats.mispredictions += 1
        self._bits[(pc >> 2) & self._mask] = 1

    def tick(self, retired: int = 1) -> None:
        """Advance the periodic clear timer by ``retired`` instructions."""
        self._since_clear += retired
        if self._since_clear >= self.config.clear_interval:
            self._since_clear = 0
            for i in range(len(self._bits)):
                self._bits[i] = 0


#: Declarative profiler hooks (see :mod:`repro.obs.profiler`).
PROFILE_COMPONENTS = {
    "StoreWaitPredictor": {
        "should_wait": "issue/store-wait",
        "record_trap": "mem/store-wait",
        "tick": "retire/store-wait",
    },
}
