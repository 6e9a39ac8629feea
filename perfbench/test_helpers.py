"""Self-tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench``.
They need nothing but the standard library and pytest.
"""

import json
import os
import time

import pytest

from helpers import (
    DEFAULT_SEED,
    HELD_OUT_SEED,
    MIN_TAIL,
    OK,
    REFERENCE_CHUNK_S,
    HostSpeed,
    cell_digest,
    cell_status,
    digest_mismatches,
    grid_digests,
    job_status,
    min_samples_for,
    percentile,
    self_times,
    tally,
)

HERE = os.path.dirname(os.path.abspath(__file__))


# -- percentiles ---------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert percentile(range(99), 90) is None
    assert percentile(range(100), 90) == 89
    assert min_samples_for(90) == 100


def test_percentile_reports_no_tail_for_small_runs():
    assert percentile([], 50) is None
    assert percentile([3.0] * (2 * MIN_TAIL), 50) == 3.0
    assert percentile([3.0] * (2 * MIN_TAIL - 1), 50) is None


def test_percentile_is_nearest_rank_on_unsorted_input():
    samples = list(range(200, 0, -1))
    assert percentile(samples, 90) == 180
    assert percentile(samples, 50) == 100


# -- span self time ------------------------------------------------------

def span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0),
             span(2, 0, 5.0, 9.0), span(3, 2, 6.0, 7.0)]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once_and_clips():
    # Children from two threads may overlap; a child may outlive its
    # parent's recorded end by clock skew.
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 2.0, 6.0),
             span(2, 0, 4.0, 12.0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(2.0)


# -- failure accounting --------------------------------------------------

def test_refused_failed_timed_out_and_mismatched_jobs_count_as_failed():
    statuses = [
        job_status(),
        job_status(refused=True),
        job_status(state="failed"),
        job_status(timed_out=True),
        job_status(text="a", expected="b"),
        job_status(text="a", expected="a"),
    ]
    assert statuses == [OK, "refused", "failed", "timeout", "mismatch", OK]
    assert tally(statuses) == (6, 4, {
        "refused": 1, "failed": 1, "timeout": 1, "mismatch": 1,
    })


def test_failed_missing_short_and_mismatched_cells_count_as_failed():
    statuses = [
        cell_status(),
        cell_status(failed=True),
        cell_status(present=False),
        cell_status(instructions=9, trace_len=10),
        cell_status(digest="x", expected="y"),
        cell_status(digest="x", expected="x", instructions=10,
                    trace_len=10),
    ]
    assert statuses == [OK, "failed", "missing", "instructions",
                        "mismatch", OK]
    assert tally(statuses) == (6, 4, {
        "failed": 1, "missing": 1, "instructions": 1, "mismatch": 1,
    })


# -- digests -------------------------------------------------------------

def result_entry():
    return {
        "simulator": "sim-alpha", "workload": "C-Ca",
        "cycles": 51234.5, "instructions": 25505,
        "stats": {"branch_lookups": 4000, "dcache_misses": 12,
                  "extra": {}},
        "cpi_stack": None,
        "provenance": {"host": "a", "version": "1.0.0"},
        "telemetry": {"wall_s": 0.5},
    }


def test_digest_ignores_provenance_and_telemetry():
    a, b = result_entry(), result_entry()
    b["provenance"] = {"host": "b", "version": "2.0.0"}
    b["telemetry"] = {"wall_s": 0.9}
    assert cell_digest(a) == cell_digest(b)


def test_digest_check_trips_on_one_perturbed_stat():
    reference = grid_digests([result_entry()])
    perturbed = result_entry()
    perturbed["stats"]["dcache_misses"] += 1
    assert digest_mismatches(grid_digests([perturbed]), reference) == [
        "sim-alpha/C-Ca"
    ]
    assert digest_mismatches(reference, reference) == []


def test_digest_check_reports_missing_and_extra_cells():
    reference = {"a/x": "1", "b/x": "2"}
    assert digest_mismatches({"a/x": "1", "c/x": "3"}, reference) == [
        "b/x", "c/x"
    ]


# -- host speed ----------------------------------------------------------

class StepClock:
    """A clock under which chunk ``i`` lasts ``durations[i]``."""

    def __init__(self, durations):
        self.durations = list(durations)
        self.now = 0.0
        self.running = False

    def __call__(self):
        if self.running:
            self.now += self.durations.pop(0)
        self.running = not self.running
        return self.now


def test_host_speed_scales_by_the_mean_chunk_of_the_batches():
    ref = REFERENCE_CHUNK_S
    speed = HostSpeed(chunk=lambda: None, clock=StepClock(
        [ref, ref, ref, 2 * ref, 2 * ref, 5 * ref]
    ))
    assert speed.sample(3) == 0
    assert speed.sample(3) == 1
    assert speed.latest == 1
    # Batch 0's chunks take the reference time: host time is kept.
    assert speed.scale(0, 0) == pytest.approx(1.0)
    # A host three times as slow on average thirds what it measured,
    # though most of its chunks were only twice as slow.
    assert speed.scale(1) == pytest.approx(1 / 3)
    assert speed.scale() == pytest.approx(0.5)
    assert speed.spent == pytest.approx(12 * ref)


def test_host_speed_keeps_the_chunks_drawn_during_a_phase_as_one_batch():
    speed = HostSpeed(chunk=lambda: None)
    with speed.during(0.001):
        time.sleep(0.05)
    assert speed.latest == 0
    assert len(speed.batches[0]) >= 2
    # Drawn alongside the phase, so not spent outside it.
    assert speed.spent == 0.0


# -- committed references ------------------------------------------------

def test_references_cover_the_default_and_held_out_seeds():
    # Table 2's kernels are hand-written, and serve-jobs simulates the
    # shipped SPEC2000 proxies for every seed: one reference each.
    # workload -> (seeds, cells per seed)
    expected = {
        "table2-serial": ({DEFAULT_SEED}, 7 * 4),
        "table3-jobs2": ({DEFAULT_SEED, HELD_OUT_SEED}, 10 * 4),
        "serve-jobs": ({DEFAULT_SEED}, 10 * 2),
    }
    for workload, (seeds, cells) in expected.items():
        with open(os.path.join(HERE, "refs", f"{workload}.json"),
                  encoding="utf-8") as handle:
            refs = json.load(handle)
        assert set(refs) == {str(seed) for seed in seeds}, workload
        assert all(len(got) == cells for got in refs.values()), workload
