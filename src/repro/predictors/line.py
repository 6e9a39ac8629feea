"""The 21264 line predictor.

The fetch stage does not wait for branch resolution — or even for
branch *prediction* — to choose the next fetch address.  A line
predictor, indexed by the current fetch octaword, directly predicts the
next octaword to fetch (an I-cache set pointer plus the offset of an
octaword within the line).  The slot-stage branch predictor can
*override* the line prediction for conditional/unconditional branches
(not jumps) when it predicts taken, can compute the target early (the
undocumented adder between fetch and slot — the paper's ``addr``
feature), and disagrees with the line prediction.

Initialisation matters: the paper reports choosing the initialisation
bits (``01``) that minimised error.  We expose that as ``init_mode``:
``"sequential"`` primes every entry to predict fall-through (the
behaviour the 01 encoding selects for never-seen lines), while
``"zero"`` predicts octaword zero until trained — the naive choice that
inflates cold-start mispredictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.tournament import PredictorStats

__all__ = ["LinePredictorConfig", "LinePredictor"]

_OCTAWORD = 16


@dataclass
class LinePredictorConfig:
    entries: int = 1024
    init_mode: str = "sequential"  # "sequential" or "zero"
    #: Like the branch history, the line predictor is trained
    #: speculatively and repaired on mispredictions; non-speculative
    #: update (paper `spec` feature off) delays training.
    speculative_update: bool = True
    update_delay: int = 4


class LinePredictor:
    """Predicts the next fetch octaword from the current one."""

    def __init__(self, config: LinePredictorConfig | None = None):
        self.config = config or LinePredictorConfig()
        if self.config.init_mode not in ("sequential", "zero"):
            raise ValueError(
                f"unknown init_mode {self.config.init_mode!r}"
            )
        if self.config.entries & (self.config.entries - 1):
            raise ValueError("line predictor entries must be a power of two")
        self._mask = self.config.entries - 1
        self._table: dict[int, int] = {}
        self._pending: list[tuple[int, int]] = []
        self.stats = PredictorStats()

    def predict(self, octaword: int) -> int:
        """Predicted next fetch octaword after fetching ``octaword``."""
        prediction = self._table.get((octaword // _OCTAWORD) & self._mask)
        if prediction is not None:
            return prediction
        if self.config.init_mode == "sequential":
            return octaword + _OCTAWORD
        return 0

    def predict_and_train(self, octaword: int, actual_next: int) -> int:
        """Predict the successor of ``octaword``; train toward truth.

        Returns the prediction made before training.  ``actual_next``
        must already be octaword aligned.
        """
        index = (octaword // _OCTAWORD) & self._mask
        prediction = self._table.get(index)
        if prediction is None:
            prediction = self.predict(octaword)
        self.stats.lookups += 1
        if prediction != actual_next:
            self.stats.mispredictions += 1
        if self.config.speculative_update:
            self._table[index] = actual_next
        else:
            # Training only lands `update_delay` fetches later; a tight
            # loop re-queries the entry before the update arrives.
            self._pending.append((index, actual_next))
            if len(self._pending) > self.config.update_delay:
                settled_index, settled_next = self._pending.pop(0)
                self._table[settled_index] = settled_next
        return prediction


#: Declarative profiler hooks (see :mod:`repro.obs.profiler`).  The
#: line predictor is also consulted from control resolution; its
#: exclusive time is pooled under the fetch phase, where most calls
#: originate.
PROFILE_COMPONENTS = {
    "LinePredictor": {
        "predict_and_train": "fetch/line-pred",
    },
}
