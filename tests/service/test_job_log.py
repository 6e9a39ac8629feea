"""The job store keeps each job as its event log and nothing else.

* a fresh store folds every log back into the status, spec, events
  and queue order the live store held;
* each lifecycle event is fsynced before its call returns, creating a
  log also fsyncs the job directory, and ``cell`` events are not
  synced;
* a directory an older server wrote is skipped and never reused.
"""

import os

from repro.exec.spec import ExperimentSpec
from repro.service.jobs import JobStore

CELL = {"simulator": "sim-alpha", "workload": "C-Ca", "status": "ok",
        "source": "run"}


def spec(*workloads):
    return ExperimentSpec(("sim-alpha",), workloads)


def test_recovery_reproduces_every_job(tmp_path):
    store = JobStore(tmp_path)
    done, _ = store.submit(spec("C-Ca"), "alice")
    assert store.claim(timeout=0) == done.job_id
    store.record_progress(done.job_id, CELL)
    store.finish(done.job_id, "{}", failures=1)
    failed, _ = store.submit(spec("C-Cb"), "bob")
    assert store.claim(timeout=0) == failed.job_id
    store.fail(failed.job_id, "boom")
    drained, _ = store.submit(spec("C-R"), "alice")
    assert store.claim(timeout=0) == drained.job_id
    store.record_progress(drained.job_id, CELL)
    store.requeue(drained.job_id)
    attached, _ = store.submit(spec("M-D"), "alice")
    assert store.submit(spec("M-D"), "carol") == (attached, True)
    queued, _ = store.submit(spec("E-I"), "bob")

    recovered = JobStore(tmp_path)
    assert recovered.jobs() == store.jobs()
    assert [job["state"] for job in recovered.jobs()] == [
        "done", "failed", "queued", "queued", "queued",
    ]
    for job in store.jobs():
        assert recovered.spec(job["id"]) == store.spec(job["id"])
        assert recovered.events_since(job["id"]) == \
            store.events_since(job["id"])
    assert recovered.result_text(done.job_id) == "{}"
    assert recovered.status(failed.job_id)["error"] == "boom"
    assert recovered.status(drained.job_id)["cells_done"] == 1
    assert recovered.status(attached.job_id)["tenants"] == [
        "alice", "carol",
    ]
    assert [recovered.claim(timeout=0) for _ in range(3)] == [
        drained.job_id, attached.job_id, queued.job_id,
    ]
    # Failed jobs do not dedup; the others still do.
    assert not recovered.submit(spec("C-Cb"), "bob")[1]
    job, deduped = recovered.submit(spec("C-Ca"), "bob")
    assert (job.job_id, deduped) == (done.job_id, True)


def test_lifecycle_events_are_durable(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        stat = os.fstat(fd)
        synced.append((stat.st_dev, stat.st_ino))
        real_fsync(fd)

    def taken(job):
        """What each fsync since the last call synced."""
        names = {}
        for name in ("events.jsonl", "result.json", "."):
            path = job.path(name)
            if os.path.exists(path):
                stat = os.stat(path)
                names[(stat.st_dev, stat.st_ino)] = name
        out = [names.get(ident, "other") for ident in synced]
        del synced[:]
        return out

    monkeypatch.setattr(os, "fsync", fsync)
    store = JobStore(tmp_path)
    job, _ = store.submit(spec("C-Ca", "C-Cb"), "alice")
    assert taken(job) == ["events.jsonl", "."]
    store.submit(spec("C-Ca", "C-Cb"), "bob")
    assert taken(job) == ["events.jsonl"]
    assert store.claim(timeout=0) == job.job_id
    assert taken(job) == ["events.jsonl"]
    store.record_progress(job.job_id, CELL)
    assert taken(job) == []
    store.requeue(job.job_id)
    assert taken(job) == ["events.jsonl"]
    assert store.claim(timeout=0) == job.job_id
    assert taken(job) == ["events.jsonl"]
    store.finish(job.job_id, "{}")
    assert taken(job) == ["result.json", ".", "events.jsonl"]

    failed, _ = store.submit(spec("E-I"), "alice")
    assert store.claim(timeout=0) == failed.job_id
    del synced[:]
    store.fail(failed.job_id, "boom")
    assert taken(failed) == ["events.jsonl"]

    crashed, _ = store.submit(spec("M-D"), "alice")
    assert store.claim(timeout=0) == crashed.job_id
    del synced[:]
    JobStore(tmp_path)  # a restart finds it running: ``requeued``
    assert taken(crashed) == ["events.jsonl"]


def test_directories_of_older_servers_are_skipped(tmp_path):
    """A job directory whose log lacks the ``submitted`` fields (an
    older server's) is neither recovered nor reused: a new job with the
    same spec takes the next free id and leaves the old files alone."""
    old_id = "j000001-" + spec("C-Ca").dedup_key()[:12]
    old_dir = tmp_path / "jobs" / old_id
    old_dir.mkdir(parents=True)
    (old_dir / "status.json").write_text('{"state": "queued"}')
    old_log = '{"index": 0, "kind": "submitted", "tenant": "a", "ts": 1.0}\n'
    (old_dir / "events.jsonl").write_text(old_log)

    store = JobStore(tmp_path)
    assert store.jobs() == []
    job, deduped = store.submit(spec("C-Ca"), "alice")
    assert not deduped and job.job_id != old_id
    assert (old_dir / "events.jsonl").read_text() == old_log
    assert [j["id"] for j in JobStore(tmp_path).jobs()] == [job.job_id]
