"""The 21264 I-cache way predictor.

The two-way set-associative I-cache is accessed as if direct mapped
using a predicted way; a way misprediction costs a two-cycle bubble
(and retraining).  The paper found `eon`'s unusually high way-
misprediction rate exposed a modelling bug — sim-initial charged an
*extra* cycle for every way-predictor access; that bug lives in
:mod:`repro.core.bugs`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.predictors.tournament import PredictorStats

__all__ = ["WayPredictorConfig", "WayPredictor"]

_OCTAWORD = 16


@dataclass
class WayPredictorConfig:
    entries: int = 1024
    ways: int = 2


class WayPredictor:
    """Predicts which I-cache way the next fetch will hit in."""

    def __init__(self, config: WayPredictorConfig | None = None):
        self.config = config or WayPredictorConfig()
        if self.config.entries & (self.config.entries - 1):
            raise ValueError("way predictor entries must be a power of two")
        self._mask = self.config.entries - 1
        self._table: dict[int, int] = {}
        self.stats = PredictorStats()

    def predict(self, octaword: int) -> int:
        """Predicted way for the fetch of ``octaword`` (0 when cold)."""
        return self._table.get((octaword // _OCTAWORD) & self._mask, 0)

    def predict_and_train(self, octaword: int, actual_way: int) -> int:
        """Predict the way and retrain with the way actually hit."""
        if not 0 <= actual_way < self.config.ways:
            raise ValueError(f"way {actual_way} out of range")
        index = (octaword // _OCTAWORD) & self._mask
        prediction = self._table.get(index, 0)
        self.stats.lookups += 1
        if prediction != actual_way:
            self.stats.mispredictions += 1
        self._table[index] = actual_way
        return prediction


#: Declarative profiler hooks (see :mod:`repro.obs.profiler`).
PROFILE_COMPONENTS = {
    "WayPredictor": {
        "predict_and_train": "fetch/way-pred",
    },
}
