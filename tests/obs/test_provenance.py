"""Config hashing and provenance capture/round-trip."""

from dataclasses import dataclass, replace

from repro.core.config import MachineConfig
from repro.obs import provenance
from repro.obs.provenance import (
    RunProvenance,
    capture_provenance,
    config_hash,
)


@dataclass(frozen=True)
class TinyConfig:
    value: int


class TestConfigHash:
    def test_same_instance_is_stable(self):
        config = MachineConfig()
        assert config_hash(config) == config_hash(config)

    def test_equal_configs_hash_equal(self):
        assert config_hash(MachineConfig()) == config_hash(MachineConfig())

    def test_different_configs_hash_differently(self):
        base = MachineConfig()
        tweaked = replace(base, rob_size=64)
        assert config_hash(base) != config_hash(tweaked)

    def test_renaming_changes_hash(self):
        # The name is part of identity: sim-initial and sim-alpha must
        # never be conflated even if parameters collide.
        assert config_hash(MachineConfig(name="a")) != config_hash(
            MachineConfig(name="b")
        )

    def test_none_config(self):
        assert config_hash(None) == "none"

    def test_hash_is_short_hex(self):
        digest = config_hash(MachineConfig())
        assert len(digest) == 16
        int(digest, 16)  # raises if not hex

    def test_equal_configs_share_one_memo_entry(self, monkeypatch):
        """Every ``SimAlpha()`` builds a fresh but equal config: the
        memo is keyed by value, so two of them hash once and leave one
        entry."""
        from repro import SimAlpha

        provenance._HASH_CACHE.clear()
        hashed = []
        real_sha256 = provenance.hashlib.sha256

        def sha256(data):
            hashed.append(data)
            return real_sha256(data)

        monkeypatch.setattr(provenance.hashlib, "sha256", sha256)
        first, second = SimAlpha().config, SimAlpha().config
        assert first is not second
        assert config_hash(first) == config_hash(second)
        assert len(hashed) == 1
        assert len(provenance._HASH_CACHE) == 1

    def test_memo_keeps_int_and_float_fields_apart(self):
        """``TinyConfig(1) == TinyConfig(1.0)``, but their canonical
        JSON differs, so the memo must not serve one's digest for the
        other."""
        provenance._HASH_CACHE.clear()
        as_int = config_hash(TinyConfig(1))
        as_float = config_hash(TinyConfig(1.0))
        assert as_int != as_float
        provenance._HASH_CACHE.clear()
        assert config_hash(TinyConfig(1.0)) == as_float


class TestHashCacheEviction:
    def test_eviction_is_oldest_first_not_wholesale(self):
        """Overflowing the memo must evict only the oldest entry; the
        configs a running grid is actively hashing keep their memos."""
        provenance._HASH_CACHE.clear()
        anchor = MachineConfig()
        config_hash(anchor)
        flood = [
            TinyConfig(value)
            for value in range(provenance._HASH_CACHE_LIMIT - 1)
        ]
        for config in flood:
            config_hash(config)
        assert repr(anchor) in provenance._HASH_CACHE
        assert len(provenance._HASH_CACHE) == provenance._HASH_CACHE_LIMIT

        config_hash(TinyConfig(-1))
        assert repr(anchor) not in provenance._HASH_CACHE
        assert repr(flood[0]) in provenance._HASH_CACHE
        assert repr(flood[-1]) in provenance._HASH_CACHE
        assert len(provenance._HASH_CACHE) == provenance._HASH_CACHE_LIMIT

    def test_structurally_equal_configs_hash_equal_after_eviction(self):
        """The digest is content-addressed: a structurally equal config
        rebuilt after its twin was evicted must hash identically."""
        provenance._HASH_CACHE.clear()
        baseline = config_hash(MachineConfig())
        for value in range(provenance._HASH_CACHE_LIMIT + 64):
            config_hash(TinyConfig(value))
        assert len(provenance._HASH_CACHE) <= provenance._HASH_CACHE_LIMIT
        assert config_hash(MachineConfig()) == baseline


class TestCaptureProvenance:
    def test_fields_populated(self):
        provenance = capture_provenance(MachineConfig(name="sim-alpha"))
        assert provenance.config_name == "sim-alpha"
        assert provenance.config_hash == config_hash(MachineConfig())
        assert provenance.package_version
        assert provenance.created.startswith("20")
        assert provenance.host
        assert provenance.python

    def test_dict_round_trip(self):
        provenance = capture_provenance(MachineConfig())
        clone = RunProvenance.from_dict(provenance.to_dict())
        assert clone == provenance

    def test_from_dict_ignores_unknown_keys(self):
        provenance = RunProvenance.from_dict(
            {"config_hash": "abc", "someday_field": 1}
        )
        assert provenance.config_hash == "abc"


class TestAttachment:
    def test_sim_alpha_attaches_provenance(self):
        from repro import SimAlpha
        from repro.validation import Harness

        result = Harness().run_one(SimAlpha, "E-I")
        assert result.provenance is not None
        assert result.provenance.config_name == "sim-alpha"
        assert result.provenance.config_hash == config_hash(
            SimAlpha().config
        )

    def test_native_machine_keeps_provenance_through_dcpi(self):
        from repro.simulators import NativeMachine
        from repro.validation import Harness

        result = Harness().run_one(NativeMachine, "E-I")
        assert result.provenance is not None
        assert result.provenance.config_name == "DS-10L"
