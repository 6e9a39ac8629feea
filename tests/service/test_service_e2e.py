"""End-to-end tests for the simulation job service.

These exercise the acceptance criteria of the service PR over a real
``ThreadingHTTPServer`` on an ephemeral port:

* a grid fetched from ``POST /v1/jobs`` is byte-identical
  (canonically) to the same grid run serially through
  ``Harness.run_grid``;
* N concurrent identical submissions cost exactly one engine
  invocation (dedup by canonical spec hash);
* a repeated submission with ``reuse=false`` recomputes nothing — every
  cell is served from the shared result cache (verified via the
  ``exec.cache.*`` metrics);
* an over-budget tenant gets HTTP 429 with ``Retry-After``;
* graceful shutdown stops the in-flight grid at a cell boundary and a
  fresh server over the same state root resumes it from the shared
  result store with zero recompute;
* a job's persistence is one durable put per fresh cell plus a
  constant, and a job directory never holds a checkpoint journal.

The simulators are the deterministic fakes from the engine tests,
registered under service-addressable names — fast, but driven through
the exact Harness/engine path real simulators take.
"""

import json
import os
import threading

import pytest

from repro.exec.cache import atomic_write
from repro.exec.spec import ExperimentSpec, RunOptions, register_simulator
from repro.exec.spec import _EXTRA_SIMULATORS
from repro.service.app import ServiceApp, build_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobStore
from repro.service.quota import QuotaLedger, QuotaPolicy
from repro.validation.harness import Harness
from repro.workloads.suite import WorkloadSet

from tests.exec.exec_fakes import fake_factory

WORKLOADS = ("C-Ca", "C-Cb")


@pytest.fixture(scope="module")
def fake_sims():
    """Two deterministic fakes, spec-addressable for this module."""
    names = ("svc-fake-a", "svc-fake-b")
    register_simulator(names[0], fake_factory(names[0], cpi=2.0))
    register_simulator(names[1], fake_factory(names[1], cpi=3.0))
    yield names
    for name in names:
        _EXTRA_SIMULATORS.pop(name, None)


class ServerFixture:
    """One app + HTTP server on an ephemeral port, torn down cleanly."""

    def __init__(self, root, **app_kwargs):
        self.app = ServiceApp(root, **app_kwargs)
        self.server = build_server(self.app)
        self.host, self.port = self.server.server_address[:2]
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True,
        )
        self._thread.start()

    def client(self, tenant="test"):
        return ServiceClient(self.host, self.port, tenant=tenant)

    def close(self):
        self.server.shutdown()
        self._thread.join(timeout=10)
        self.server.server_close()
        self.app.shutdown()


@pytest.fixture
def server(tmp_path):
    fixtures = []

    def factory(root=None, **app_kwargs):
        fixture = ServerFixture(root or tmp_path / "svc", **app_kwargs)
        fixtures.append(fixture)
        return fixture

    yield factory
    for fixture in fixtures:
        fixture.close()


def test_service_grid_matches_serial_harness(server, fake_sims):
    fixture = server()
    spec = ExperimentSpec(fake_sims, WORKLOADS)
    client = fixture.client()

    job = client.submit(spec)
    assert job["state"] == "queued" and not job["deduped"]
    final = client.wait(job["id"], timeout=60)
    assert final["state"] == "done"
    assert final["cells_done"] == final["cells"] == spec.cells

    service_json = client.result_text(job["id"])
    serial = Harness(WorkloadSet()).run_grid(
        spec.factories(), list(spec.workloads)
    )
    assert service_json == serial.to_json(canonical=True)


def test_concurrent_duplicates_cost_one_engine_run(server, fake_sims):
    fixture = server()
    spec = ExperimentSpec(fake_sims, WORKLOADS)
    barrier = threading.Barrier(3)
    outcomes = {}

    def submit(tenant):
        client = fixture.client(tenant)
        barrier.wait()
        job = client.submit(spec)
        final = client.wait(job["id"], timeout=60)
        outcomes[tenant] = (job, client.result_text(job["id"]), final)

    threads = [
        threading.Thread(target=submit, args=(t,))
        for t in ("alice", "bob", "carol")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)

    assert set(outcomes) == {"alice", "bob", "carol"}
    job_ids = {job["id"] for job, _, _ in outcomes.values()}
    assert len(job_ids) == 1, "duplicates must collapse onto one job"
    texts = {text for _, text, _ in outcomes.values()}
    assert len(texts) == 1, "every submitter sees the same bytes"

    metrics = fixture.app.metrics
    assert metrics.counter("service.engine.runs").value == 1
    assert metrics.counter("service.jobs.submitted").value == 1
    assert metrics.counter("service.jobs.deduped").value == 2
    # All three tenants are recorded on the shared job.
    final = next(iter(outcomes.values()))[2]
    assert set(final["tenants"]) == {"alice", "bob", "carol"}


def test_reuse_false_rerun_is_all_cache_hits(server, fake_sims):
    fixture = server()
    spec = ExperimentSpec(fake_sims, WORKLOADS)
    client = fixture.client()
    first = client.submit(spec)
    client.wait(first["id"], timeout=60)

    metrics = fixture.app.metrics
    hits_before = metrics.counter("exec.cache.hits").value
    misses_before = metrics.counter("exec.cache.misses").value

    fresh = client.submit(spec, reuse=False)
    assert not fresh["deduped"] and fresh["id"] != first["id"]
    client.wait(fresh["id"], timeout=60)

    # Second identical submission re-runs nothing: every cell is a
    # cache hit, zero misses.
    assert (
        metrics.counter("exec.cache.hits").value - hits_before
        == spec.cells
    )
    assert metrics.counter("exec.cache.misses").value == misses_before

    events = client.events(fresh["id"])["events"]
    sources = [e["source"] for e in events if e["kind"] == "cell"]
    assert sources == ["cache"] * spec.cells
    assert (
        client.result_text(fresh["id"]) == client.result_text(first["id"])
    )


def test_over_budget_tenant_gets_429(server, fake_sims, tmp_path):
    quota = QuotaLedger(
        QuotaPolicy(max_queued_jobs=4, max_cells_per_day=100_000),
        tenants={"smallfry": QuotaPolicy(max_queued_jobs=4,
                                         max_cells_per_day=3)},
    )
    fixture = server(tmp_path / "quota-svc", quota=quota)
    spec = ExperimentSpec(fake_sims, WORKLOADS)  # 4 cells > 3/day

    with pytest.raises(ServiceError) as excinfo:
        fixture.client("smallfry").submit(spec)
    assert excinfo.value.status == 429
    assert excinfo.value.payload["retry_after_s"] > 0
    assert fixture.app.metrics.counter("service.jobs.throttled").value == 1

    # A better-funded tenant runs the same spec...
    rich = fixture.client("funded")
    job = rich.submit(spec)
    rich.wait(job["id"], timeout=60)
    # ...and the throttled tenant may still *attach* to the finished
    # job: dedup is quota-free by design.
    attach = fixture.client("smallfry").submit(spec)
    assert attach["deduped"] and attach["id"] == job["id"]


def test_queued_job_limit_gets_429(server, fake_sims, tmp_path):
    quota = QuotaLedger(QuotaPolicy(max_queued_jobs=0,
                                    max_cells_per_day=100))
    fixture = server(tmp_path / "jobs-svc", quota=quota)
    with pytest.raises(ServiceError) as excinfo:
        fixture.client().submit(ExperimentSpec(fake_sims, WORKLOADS))
    assert excinfo.value.status == 429


def test_bad_spec_is_400_not_enqueued(server, fake_sims):
    fixture = server()
    client = fixture.client()
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"simulators": ["no-such-sim"],
                       "workloads": ["C-Ca"]})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"simulators": [fake_sims[0]],
                       "workloads": ["C-Ca"], "bogus_key": 1})
    assert excinfo.value.status == 400
    # The refresh path is gone: a spec still carrying it is refused.
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"simulators": [fake_sims[0]],
                       "workloads": ["C-Ca"],
                       "options": {"refresh": True}})
    assert excinfo.value.status == 400
    assert client.jobs() == []


def journals_under(root):
    return [
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(root)
        for name in names if name == "checkpoint.journal"
    ]


def test_graceful_shutdown_checkpoints_and_resumes(
        server, fake_sims, tmp_path):
    """Stop the service mid-grid; a new server over the same root
    resumes the job from the shared result store with zero
    recompute."""
    root = tmp_path / "resume-svc"
    gate = threading.Event()
    entered = threading.Event()
    computed = []

    class GatedSim:
        """First cell runs free; the second blocks on ``gate``."""

        def __init__(self, inner):
            self.inner = inner
            self.config = inner.config

        @property
        def name(self):
            return self.inner.name

        def run_trace(self, trace, workload):
            if len(computed) >= 1:
                entered.set()
                assert gate.wait(timeout=30)
            computed.append(workload)
            return self.inner.run_trace(trace, workload)

    base = fake_factory("svc-gated", cpi=2.0)
    register_simulator("svc-gated", lambda: GatedSim(base()))
    try:
        spec = ExperimentSpec(("svc-gated",), ("C-Ca", "C-Cb", "C-R"))
        first = ServerFixture(root)
        client = first.client()
        job = client.submit(spec)

        assert entered.wait(timeout=30), "grid never reached cell 2"
        # Drain while cell 2 is mid-flight: stop() makes the progress
        # hook raise before cell 3, after cell 2 is put in the store.
        first.app.worker.stop()
        gate.set()
        first.close()

        status = json.loads(
            (root / "jobs" / job["id"] / "status.json").read_text()
        )
        assert status["state"] == "queued"
        assert len(computed) == 2, "cell 3 must not run before drain"

        second = ServerFixture(root)
        try:
            client2 = second.client()
            final = client2.wait(job["id"], timeout=60)
            assert final["state"] == "done"
            events = client2.events(job["id"])["events"]
            kinds = [e["kind"] for e in events]
            assert "checkpointed" in kinds
            run_sources = [
                e["source"] for e in events if e["kind"] == "cell"
            ]
            # First server: two computed cells.  Second server: those
            # two replay from the shared store, only cell 3 computes.
            assert run_sources.count("cache") == 2
            assert len(computed) == 3
            assert journals_under(root / "jobs") == []
            serial = Harness(WorkloadSet()).run_grid(
                spec.factories(), list(spec.workloads)
            )
            assert (
                client2.result_text(job["id"])
                == serial.to_json(canonical=True)
            )
        finally:
            second.close()
    finally:
        _EXTRA_SIMULATORS.pop("svc-gated", None)


def test_cells_endpoint_serves_cached_results(server, fake_sims):
    fixture = server()
    client = fixture.client()
    job = client.submit(ExperimentSpec(fake_sims, WORKLOADS))
    client.wait(job["id"], timeout=60)

    cache_dir = fixture.app.cache.root
    import os

    digests = [
        name[:-5] for name in os.listdir(cache_dir)
        if name.endswith(".json")
    ]
    assert digests
    payload = client.cell(digests[0])
    assert payload["format"] == "repro-result-cache/2"
    assert sorted(payload["key"]) == [
        "config_hash", "model_digest", "program_digest", "simulator",
        "workload",
    ]
    assert "result" in payload
    with pytest.raises(ServiceError) as excinfo:
        client.cell("0" * 16)
    assert excinfo.value.status == 404


def test_crashed_job_resumes_from_the_shared_store(server, fake_sims,
                                                   tmp_path):
    """A server that died mid-grid leaves its job ``running`` and one
    cell durably in the store; the next server re-queues the job and
    only the unsettled cell computes."""
    root = tmp_path / "crash-svc"
    spec = ExperimentSpec(fake_sims[:1], WORKLOADS)
    store = JobStore(root)
    job, _ = store.submit(spec, "test")
    assert store.claim(timeout=0) == job.job_id
    Harness(WorkloadSet()).run_grid(
        spec.factories(), [WORKLOADS[0]],
        RunOptions(cache=str(root / "cache")),
    )

    client = server(root).client()
    final = client.wait(job.job_id, timeout=60)
    assert final["state"] == "done"
    events = client.events(job.job_id)["events"]
    assert "requeued" in [e["kind"] for e in events]
    assert [e["source"] for e in events if e["kind"] == "cell"] == [
        "cache", "run",
    ]
    serial = Harness(WorkloadSet()).run_grid(
        spec.factories(), list(spec.workloads)
    )
    assert client.result_text(job.job_id) == serial.to_json(canonical=True)


def test_client_named_paths_are_never_created(server, fake_sims,
                                              tmp_path):
    """The service overrides a spec's operational options: the cache,
    checkpoint and ledger paths a client names are never written."""
    named = {
        "cache": str(tmp_path / "client-cache"),
        "checkpoint": str(tmp_path / "client.journal"),
        "ledger": str(tmp_path / "client-ledger.jsonl"),
    }
    fixture = server()
    client = fixture.client()
    job = client.submit({
        "simulators": list(fake_sims), "workloads": list(WORKLOADS),
        "options": dict(named, resume=True),
    })
    assert client.wait(job["id"], timeout=60)["state"] == "done"
    for path in named.values():
        assert not os.path.exists(path), path
    assert journals_under(fixture.app.root) == []


def test_job_persistence_is_flat_in_grid_size(server, fake_sims,
                                              monkeypatch):
    """``status.json`` is written on lifecycle transitions only, so a
    1x1 and a 1x8 job write it equally often; every other write the
    8-cell job adds is one durable result-store put per fresh cell."""
    import repro.exec.cache
    import repro.integrity.checkpoint
    import repro.service.jobs
    import repro.service.quota

    writes = []

    def counting(path, text):
        writes.append(os.path.basename(path))
        atomic_write(path, text)

    for module in (repro.exec.cache, repro.integrity.checkpoint,
                   repro.service.jobs, repro.service.quota):
        monkeypatch.setattr(module, "atomic_write", counting)

    client = server().client()
    workloads = ("C-Ca", "C-Cb", "E-DM1", "M-ROW", "M-BANK", "M-I",
                 "C-S3", "E-D3")
    counts = {}
    for width in (1, 8):
        # Distinct simulators: every cell of both jobs is fresh.
        spec = ExperimentSpec((fake_sims[width // 8],), workloads[:width])
        del writes[:]
        job = client.submit(spec)
        assert client.wait(job["id"], timeout=60)["state"] == "done"
        counts[width] = list(writes)
    assert counts[1].count("status.json") == counts[8].count("status.json")
    assert len(counts[8]) - len(counts[1]) == 8 - 1
    assert "checkpoint.journal" not in counts[1] + counts[8]


def test_cell_events_carry_the_ledger_schema(server, fake_sims, tmp_path):
    """A job's ``cell`` event reports the fields of a ``--ledger`` line
    for the same grid: one cell schema for the service and the CLI."""
    spec = ExperimentSpec(fake_sims, WORKLOADS)
    client = server().client()
    job = client.submit(spec)
    client.wait(job["id"], timeout=60)
    events = [
        e for e in client.events(job["id"])["events"] if e["kind"] == "cell"
    ]

    ledger = tmp_path / "ledger.jsonl"
    Harness(WorkloadSet()).run_grid(
        spec.factories(), list(spec.workloads),
        RunOptions(ledger=str(ledger)),
    )
    lines = [
        line for line in map(json.loads, ledger.read_text().splitlines())
        if line["type"] == "cell"
    ]
    assert len(events) == len(lines) == spec.cells
    for event, line in zip(events, lines):
        assert set(event) - {"kind", "index", "ts"} == \
            set(line) - {"type", "ts"}
        assert set(event["telemetry"]) == set(line["telemetry"])
        assert event["attempts"] == line["attempts"] == 1
