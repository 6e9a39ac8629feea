"""The 21264 tournament branch predictor (local / global / choice).

Paper Section 2.1: the local predictor holds 1024 10-bit local
histories indexing a 1024-entry table of 3-bit counters; the global
predictor indexes a 4K-entry table of 2-bit counters with a 12-bit
global history; the choice predictor picks local vs. global per branch
from a 4K-entry table of 2-bit counters indexed by PC.

Speculative history update (the paper's ``spec`` feature) matters: the
21264 updates the global history shift register *speculatively* at
prediction time and repairs it on mis-speculation recovery.  Because
our timing models replay an in-order trace with known outcomes, a
speculatively maintained (and repaired) history is always the
architecturally correct history at prediction time.  A *non*-
speculative implementation only shifts outcomes in at retirement, so
predictions are made with a history that is missing the last few
in-flight branches.  We model that directly: with ``speculative_update
= False``, lookups use the history as of ``update_delay`` branches ago.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.predictors.saturating import CounterTable

__all__ = ["TournamentConfig", "TournamentPredictor", "PredictorStats"]


@dataclass
class TournamentConfig:
    """Sizing of the three component predictors (defaults = 21264)."""

    local_histories: int = 1024
    local_history_bits: int = 10
    local_counters: int = 1024
    local_counter_bits: int = 3
    global_history_bits: int = 12
    global_counters: int = 4096
    global_counter_bits: int = 2
    choice_counters: int = 4096
    choice_counter_bits: int = 2
    speculative_update: bool = True
    #: Branches typically unresolved in flight when histories are only
    #: updated at retirement.  Only used when speculative_update=False.
    update_delay: int = 6


@dataclass
class PredictorStats:
    lookups: int = 0
    mispredictions: int = 0

    @property
    def accuracy(self) -> float:
        if self.lookups == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.lookups

    def reset(self) -> None:
        self.lookups = 0
        self.mispredictions = 0


class TournamentPredictor:
    """Predicts conditional-branch directions; trained on true outcomes."""

    def __init__(self, config: TournamentConfig | None = None):
        self.config = config or TournamentConfig()
        cfg = self.config
        self._local_history = [0] * cfg.local_histories
        self._local_hist_mask = (1 << cfg.local_history_bits) - 1
        self._local_index_mask = cfg.local_histories - 1
        self._local = CounterTable(
            cfg.local_counters, cfg.local_counter_bits,
            initial=(1 << cfg.local_counter_bits) // 2,
        )
        self._global = CounterTable(
            cfg.global_counters, cfg.global_counter_bits,
            initial=(1 << cfg.global_counter_bits) // 2,
        )
        self._choice = CounterTable(
            cfg.choice_counters, cfg.choice_counter_bits,
            initial=(1 << cfg.choice_counter_bits) // 2,
        )
        self._ghist_mask = (1 << cfg.global_history_bits) - 1
        self._ghist = 0
        # The histories visible to a non-speculative design lag the
        # true ones by the branches still in flight: outcomes pass
        # through a fixed-length queue before being applied.  The local
        # histories lag the same way (the 21264 updates them in the
        # fetch stage, speculatively).
        self._retired_ghist = 0
        self._pending: deque[bool] = deque()
        self._pending_local: deque = deque()  # (local index, outcome)
        self.stats = PredictorStats()

    # ------------------------------------------------------------------

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc`` (no training)."""
        lidx = (pc >> 2) & self._local_index_mask
        lhist = self._local_history[lidx]
        local_taken = self._local.predict_taken(lhist)
        # The history visible at prediction time.
        ghist = (
            self._ghist if self.config.speculative_update
            else self._retired_ghist
        )
        global_taken = self._global.predict_taken(ghist)
        use_global = self._choice.predict_taken(pc >> 2)
        return global_taken if use_global else local_taken

    def predict_and_train(self, pc: int, taken: bool) -> bool:
        """Predict, record stats, and train with the true outcome.

        Returns the prediction made *before* training.
        """
        cfg = self.config
        speculative = cfg.speculative_update
        lidx = (pc >> 2) & self._local_index_mask
        lhist = self._local_history[lidx]
        local_taken = self._local.predict_taken(lhist)
        ghist = self._ghist if speculative else self._retired_ghist
        global_taken = self._global.predict_taken(ghist)
        use_global = self._choice.predict_taken(pc >> 2)
        prediction = global_taken if use_global else local_taken

        self.stats.lookups += 1
        if prediction != taken:
            self.stats.mispredictions += 1

        # Train the components.  The choice predictor only trains when
        # the components disagree, toward whichever was right.
        if local_taken != global_taken:
            self._choice.update(pc >> 2, global_taken == taken)
        self._local.update(lhist, taken)
        # The global table trains with the history used for prediction:
        # the true one under the real (speculative) scheme; a
        # non-speculative design trains at retire with the retired
        # history, which matches what the delayed lookups will see.
        self._global.update(ghist, taken)

        # Advance histories with the true outcome.
        if speculative:
            self._local_history[lidx] = (
                ((lhist << 1) | int(taken)) & self._local_hist_mask
            )
        else:
            self._pending_local.append((lidx, taken))
            while len(self._pending_local) > cfg.update_delay:
                settled_lidx, settled_taken = self._pending_local.popleft()
                history = self._local_history[settled_lidx]
                self._local_history[settled_lidx] = (
                    ((history << 1) | int(settled_taken))
                    & self._local_hist_mask
                )
        self._ghist = ((self._ghist << 1) | int(taken)) & self._ghist_mask
        if not speculative:
            self._pending.append(taken)
            while len(self._pending) > cfg.update_delay:
                retired = self._pending.popleft()
                self._retired_ghist = (
                    ((self._retired_ghist << 1) | int(retired))
                    & self._ghist_mask
                )
        return prediction


#: Declarative profiler hooks (see :mod:`repro.obs.profiler`).
PROFILE_COMPONENTS = {
    "TournamentPredictor": {
        "predict_and_train": "control/bpred",
    },
}
