"""The on-disk result cache: keys, hits, misses, invalidations."""

import json
import os
import stat

import pytest

from exec_fakes import fake_factory
from repro.exec.cache import (
    CacheKey,
    ResultCache,
    fingerprint_trace,
    instr_signature,
)
from repro.functional.trace import DynInstr
from repro.exec.spec import RunOptions
from repro.obs.registry import MetricsRegistry
from repro.result import RunStats, SimResult


def clone_instr(dyn, **overrides) -> DynInstr:
    """A copy of one DynInstr with selected constructor fields changed."""
    fields = dict(
        seq=dyn.seq, index=dyn.index, pc=dyn.pc, opcode=dyn.opcode,
        dest=dyn.dest, srcs=dyn.srcs, taken=dyn.taken,
        next_pc=dyn.next_pc, eaddr=dyn.eaddr, size=dyn.size,
        slot=dyn.slot,
    )
    fields.update(overrides)
    return DynInstr(**fields)


def make_key(**overrides) -> CacheKey:
    payload = dict(
        simulator="sim-alpha",
        config_hash="deadbeefdeadbeef",
        workload="C-R",
        program_digest="abc123",
        model_digest="0f" * 32,
    )
    payload.update(overrides)
    return CacheKey(**payload)


def make_result() -> SimResult:
    stats = RunStats(branch_mispredicts=3)
    stats.extra["window_size"] = 64
    return SimResult("sim-alpha", "C-R", cycles=100.0, instructions=50,
                     stats=stats, cpi_stack={"base": 1.0, "memory": 1.0})


class TestCacheKey:
    def test_digest_is_stable(self):
        assert make_key().digest() == make_key().digest()

    def test_any_component_changes_digest(self):
        base = make_key().digest()
        assert make_key(simulator="sim-outorder").digest() != base
        assert make_key(config_hash="0" * 16).digest() != base
        assert make_key(workload="M-D").digest() != base
        assert make_key(program_digest="zzz").digest() != base
        assert make_key(model_digest="1e" * 32).digest() != base


class TestFingerprint:
    def test_same_trace_same_fingerprint(self, harness):
        trace = harness.workloads.trace("C-R")
        assert fingerprint_trace(trace) == fingerprint_trace(trace)

    def test_different_workloads_differ(self, harness):
        assert fingerprint_trace(harness.workloads.trace("C-R")) != \
            fingerprint_trace(harness.workloads.trace("E-I"))

    def test_prefix_trace_differs(self, harness):
        trace = harness.workloads.trace("C-R")
        assert fingerprint_trace(trace) != fingerprint_trace(trace[:-1])

    def test_unconsumed_content_cannot_split_the_fingerprint(
        self, harness
    ):
        """Two traces every simulator times identically must hash
        identically: ``size`` is never read by a timing model, and
        ``seq``/``index`` restate trace position."""
        trace = harness.workloads.trace("C-R")
        resized = [clone_instr(d, size=d.size + 4) for d in trace]
        assert fingerprint_trace(resized) == fingerprint_trace(trace)

    @pytest.mark.parametrize("field,value", [
        ("pc", 0x7777_0000),
        ("taken", True),
        ("next_pc", 0x7777_0004),
        ("eaddr", 0x1_0000),
        ("slot", 3),
        ("dest", "r31"),
        ("srcs", ("r30", "r29")),
    ])
    def test_every_consumed_field_splits_the_fingerprint(
        self, harness, field, value
    ):
        trace = list(harness.workloads.trace("C-R"))
        middle = len(trace) // 2
        target = trace[middle]
        if getattr(target, field) == value:
            target = trace[middle + 1]
            middle += 1
        assert getattr(target, field) != value, "pick a changing value"
        mutated = list(trace)
        mutated[middle] = clone_instr(target, **{field: value})
        assert fingerprint_trace(mutated) != fingerprint_trace(trace)

    def test_signature_ignores_position_and_size(self, harness):
        dyn = harness.workloads.trace("C-R")[0]
        twin = clone_instr(dyn, seq=9_999, index=9_999, size=dyn.size + 8)
        assert instr_signature(twin) == instr_signature(dyn)


class TestResultCache:
    def test_miss_then_hit_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = make_key()
        assert cache.get(key) is None
        cache.put(key, make_result())
        restored = cache.get(key)
        assert restored is not None
        assert restored.to_dict() == make_result().to_dict()
        assert cache.stats() == {
            "hits": 1, "misses": 1, "invalidations": 0,
            "stores": 1, "entries": 1,
        }

    def test_corrupt_entry_is_invalidated(self, tmp_path):
        """Undecodable JSON, and valid JSON that is not an entry
        object, are both deleted and recomputed, never raised."""
        cache = ResultCache(tmp_path)
        key = make_key()
        for count, text in enumerate(("{ not json", "[1, 2]"), 1):
            cache.put(key, make_result())
            path = os.path.join(cache.root, key.digest() + ".json")
            with open(path, "w") as handle:
                handle.write(text)
            assert cache.get(key) is None
            assert cache.invalidations == count
            assert not os.path.exists(path)

    def test_key_mismatch_is_invalidated(self, tmp_path):
        """A digest collision (or hand-edited entry) must not be
        trusted: the full key is compared, not just the filename."""
        cache = ResultCache(tmp_path)
        key = make_key()
        other = make_key(workload="M-D")
        payload = {
            "format": "repro-result-cache/2",
            "key": other.to_dict(),
            "result": make_result().to_dict(),
        }
        path = os.path.join(cache.root, key.digest() + ".json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert cache.get(key) is None
        assert cache.invalidations == 1

    def test_put_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = make_key()
        cache.put(key, make_result())
        updated = make_result()
        updated.cycles = 999.0
        cache.put(key, updated)
        assert cache.get(key).cycles == 999.0
        assert len(cache) == 1

    def test_traffic_mirrored_into_metrics(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        key = make_key()
        cache.get(key)
        cache.put(key, make_result())
        cache.get(key)
        path = os.path.join(cache.root, key.digest() + ".json")
        with open(path, "w") as handle:
            handle.write("{ not json")
        cache.get(key)
        counters = registry.snapshot()["counters"]
        assert counters["exec.cache.misses"] == 2
        assert counters["exec.cache.stores"] == 1
        assert counters["exec.cache.hits"] == 1
        assert counters["exec.cache.invalidations"] == 1

    def test_put_is_durable(self, tmp_path, monkeypatch):
        """Each put fsyncs the entry and then its directory, so a cell
        whose put returned survives power loss and a resumed grid may
        skip it."""
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                          else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        cache = ResultCache(tmp_path)
        cache.put(make_key(), make_result())
        assert synced == ["file", "dir"]
        cache.put(make_key(workload="M-D"), make_result())
        assert synced == ["file", "dir"] * 2
        assert sorted(os.listdir(tmp_path)) == sorted(
            key.digest() + ".json"
            for key in (make_key(), make_key(workload="M-D"))
        )


class TestEngineCaching:
    def test_second_run_is_all_hits(self, tmp_path, harness):
        from repro.exec.engine import ExperimentEngine

        factories = [fake_factory("fake-a"), fake_factory("fake-b", cpi=3.0)]
        names = ["C-R", "M-D"]
        engine = ExperimentEngine(
            harness.workloads, RunOptions(cache=ResultCache(tmp_path))
        )
        first = engine.run_grid(factories, names)
        assert engine.cache.stats()["misses"] == 4
        second = engine.run_grid(factories, names)
        assert engine.cache.hits == 4
        # Cache hits are stamped with their settling source; only the
        # canonical form (telemetry blanked) is byte-stable.
        assert second.to_json(canonical=True) == \
            first.to_json(canonical=True)
        assert all(
            second.get(sim, name).telemetry.source == "cache"
            for sim in second.simulators() for name in names
        )

    def test_config_change_misses(self, tmp_path, harness):
        from repro.exec.engine import ExperimentEngine

        engine = ExperimentEngine(
            harness.workloads, RunOptions(cache=str(tmp_path))
        )
        engine.run_grid([fake_factory("fake-a", cpi=2.0)], ["C-R"])
        engine.run_grid([fake_factory("fake-a", cpi=9.0)], ["C-R"])
        assert engine.cache.hits == 0
        assert engine.cache.misses == 2


class TestDramBackendKeying:
    def test_backend_choice_changes_key_and_identical_replays_warm(
        self, tmp_path, harness
    ):
        """``RunOptions.dram_backend`` rewrites the simulator config,
        so it must land in the provenance config hash — and therefore
        the cache key: the same backend replays warm, a different
        backend misses instead of serving another model's cycles."""
        from repro.core.simalpha import SimAlpha

        def run(backend):
            return harness.run_grid(
                [SimAlpha], ["M-D"],
                RunOptions(cache=str(tmp_path), dram_backend=backend),
            ).get("sim-alpha", "M-D")

        cold = run("ideal")
        assert cold.telemetry.source != "cache"
        warm = run("ideal")
        assert warm.telemetry.source == "cache"
        assert warm.cycles == cold.cycles
        other = run("sdram")
        assert other.telemetry.source != "cache"


class TestGc:
    def put_at(self, cache, key, mtime):
        """Store an entry and pin its mtime (the recency gc reads)."""
        cache.put(key, make_result())
        path = os.path.join(cache.root, key.digest() + ".json")
        os.utime(path, (mtime, mtime))
        return path

    def test_age_pass_removes_only_stale_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        stale = make_key(workload="C-R")
        fresh = make_key(workload="M-D")
        self.put_at(cache, stale, mtime=0.0)
        self.put_at(cache, fresh, mtime=900.0)
        summary = cache.gc(max_age_s=500.0, now=1000.0)
        assert summary["removed"] == [stale.digest()]
        assert summary["kept"] == 1
        assert summary["reclaimed_bytes"] > 0
        assert cache.get(fresh) is not None

    def test_live_set_is_exempt_from_every_criterion(self, tmp_path):
        cache = ResultCache(tmp_path)
        live = make_key(workload="C-R")
        dead = make_key(workload="M-D")
        self.put_at(cache, live, mtime=0.0)
        self.put_at(cache, dead, mtime=0.0)
        summary = cache.gc(max_age_s=1.0, live=[live], max_bytes=0,
                           now=1000.0)
        assert summary["removed"] == [dead.digest()]
        assert cache.get(live) is not None

    def test_live_accepts_raw_digest_strings(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = make_key()
        self.put_at(cache, key, mtime=0.0)
        cache.gc(max_age_s=1.0, live=[key.digest()], now=1000.0)
        assert len(cache) == 1

    def test_size_budget_evicts_least_recently_used_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        oldest = make_key(workload="C-R")
        middle = make_key(workload="M-D")
        newest = make_key(workload="E-I")
        self.put_at(cache, oldest, mtime=100.0)
        self.put_at(cache, middle, mtime=200.0)
        path = self.put_at(cache, newest, mtime=300.0)
        entry_size = os.path.getsize(path)
        summary = cache.gc(max_bytes=entry_size * 2, now=1000.0)
        assert summary["removed"] == [oldest.digest()]
        assert cache.get(newest) is not None
        assert cache.get(middle) is not None

    def test_a_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path)
        touched = make_key(workload="C-R")
        untouched = make_key(workload="M-D")
        path = self.put_at(cache, touched, mtime=100.0)
        self.put_at(cache, untouched, mtime=200.0)
        assert cache.get(touched) is not None  # refreshes mtime to now
        entry_size = os.path.getsize(path)
        summary = cache.gc(max_bytes=entry_size, now=1000.0)
        assert summary["removed"] == [untouched.digest()]

    def test_orphaned_tmp_files_age_out(self, tmp_path):
        cache = ResultCache(tmp_path)
        orphan = os.path.join(cache.root, "deadbeef.tmp")
        with open(orphan, "w") as handle:
            handle.write("interrupted write")
        os.utime(orphan, (0.0, 0.0))
        summary = cache.gc(max_age_s=1.0, now=1000.0)
        assert not os.path.exists(orphan)
        assert summary["reclaimed_bytes"] > 0

    def test_gc_does_not_count_as_invalidation(self, tmp_path):
        """GC removals are capacity management, not distrust: the
        invalidations counter (untrustworthy entries) must not move."""
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        self.put_at(cache, make_key(), mtime=0.0)
        cache.gc(max_age_s=1.0, now=1000.0)
        counters = registry.snapshot()["counters"]
        assert counters.get("exec.cache.invalidations", 0) == 0
        assert counters["exec.cache.gc_removed"] == 1
        assert counters["exec.cache.gc_bytes_reclaimed"] > 0

    def test_no_criteria_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.put_at(cache, make_key(), mtime=0.0)
        summary = cache.gc(now=1000.0)
        assert summary == {"removed": [], "reclaimed_bytes": 0, "kept": 1}

    def test_empty_live_set_means_nothing_is_exempt(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = make_key()
        self.put_at(cache, key, mtime=500.0)
        summary = cache.gc(live=[], max_bytes=0, now=1000.0)
        assert summary["removed"] == [key.digest()]
        assert summary["kept"] == 0

    def test_live_bytes_count_once_toward_budget(self, tmp_path):
        """Live entries consume budget (they are real bytes on disk)
        but exactly once each, even when a member is passed both as a
        CacheKey and as its raw digest."""
        cache = ResultCache(tmp_path)
        live = make_key(workload="C-R")
        oldest = make_key(workload="M-D")
        newest = make_key(workload="E-I")
        live_path = self.put_at(cache, live, mtime=50.0)
        self.put_at(cache, oldest, mtime=100.0)
        newest_path = self.put_at(cache, newest, mtime=200.0)
        budget = os.path.getsize(live_path) + os.path.getsize(newest_path)
        summary = cache.gc(
            max_bytes=budget, live=[live, live.digest()], now=1000.0
        )
        # Counted once, the live entry plus the newest evictable one
        # fit the budget after dropping the oldest; counted twice, the
        # budget would (wrongly) force the newest out as well.
        assert summary["removed"] == [oldest.digest()]
        assert cache.get(live) is not None
        assert cache.get(newest) is not None

    def test_gc_racing_writer_does_not_evict_fresh_entry(
        self, tmp_path, monkeypatch
    ):
        """A concurrent put that replaces a stale entry between the gc
        scan and the unlink must win: the fresh result survives."""
        cache = ResultCache(tmp_path)
        key = make_key()
        path = self.put_at(cache, key, mtime=0.0)
        real = cache._unlink_if_unchanged

        def racing(victim, seen):
            if victim == path:
                cache.put(key, make_result())  # the writer lands first
            return real(victim, seen)

        monkeypatch.setattr(cache, "_unlink_if_unchanged", racing)
        summary = cache.gc(max_age_s=1.0, now=1000.0)
        assert summary["removed"] == []
        assert cache.get(key) is not None

    def test_replaced_entry_is_not_unlinked(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = make_key()
        path = self.put_at(cache, key, mtime=0.0)
        seen = os.stat(path)
        cache.put(key, make_result())  # replaced after the scan stat
        assert cache._unlink_if_unchanged(path, seen) is False
        assert os.path.exists(path)
