"""The benchmark's three workloads, driven through the public API.

Each workload has a ``setup`` (everything up to the point where the
first cell or job can be issued), a ``measure`` pass, and a
``teardown``.  A pass returns a :class:`Pass`: the outcome of every
operation, the end-to-end metrics, and what the traced run needs for
the per-layer metrics.  ``measure`` draws host-speed batches
(:class:`helpers.HostSpeed`) between operations and reports every
host time in reference seconds; the caller draws the batch that opens
the first phase.  README.md explains the choices.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from helpers import (
    DEFAULT_SEED,
    OK,
    HostSpeed,
    cell_digest,
    cell_status,
    digest_mismatches,
    grid_digests,
    job_status,
    median,
    min_samples_for,
    percentile,
)

from repro.exec.cache import ResultCache
from repro.exec.engine import grid_cells
from repro.exec.spec import ExperimentSpec, RunOptions, simulator_registry
from repro.result import SimResult
from repro.service.app import ServiceApp, build_server
from repro.service.client import ServiceClient, ServiceError
from repro.validation.experiments import table2_micro, table3_macro
from repro.validation.harness import Harness, ResultGrid
from repro.validation.metrics import mean_absolute_error, percent_error_cpi
from repro.workloads.macro import SPEC2000_PROFILES, build_macro
from repro.workloads.suite import WorkloadSet, spec2000_names

HERE = os.path.dirname(os.path.abspath(__file__))

#: ``repro-experiments table2 --quick``'s microbenchmarks.
QUICK_MICRO = ("C-Ca", "C-R", "C-S1", "E-I", "E-D3", "M-D", "M-M")
#: Pool workers of table3-jobs2: ``nproc`` of the 2-core host the
#: benchmark was defined on, fixed so hosts compare like for like.
TABLE3_JOBS = 2

#: Warm jobs per run: enough for a p90 with ten samples beyond.
WARM_PERCENTILE = 90
MIN_WARM = min_samples_for(WARM_PERCENTILE)
#: Host-speed chunks drawn after each warm job.
WARM_CHUNKS = 2

#: serve-jobs: each cold grid is {DS-10L, sim-alpha} x two of Table 3's
#: SPEC2000 proxies, as the service ships them; the seed pairs them.
SERVE_SIMULATORS = ("native", "sim-alpha")
SERVE_GRIDS = len(spec2000_names()) // 2
#: Warm resubmissions of each grid: together enough for a p90.
WARM_PER_GRID = -(-MIN_WARM // SERVE_GRIDS)
JOB_TIMEOUT_S = 120.0


@dataclasses.dataclass
class Pass:
    """What one measure pass produced."""

    #: Reference seconds of the timed phase's operations.
    wall_s: float
    statuses: List[str]
    metrics: Dict[str, float]
    #: (simulator, instructions, reference seconds) per simulated cell.
    cells: List[Tuple[str, int, float]]
    jobs: int
    grid_wall_s: float
    #: Operations in the timed phase that ``wall_s`` covers.
    ops: int
    #: Per-layer metrics only this workload can give (service split).
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)
    notes: Dict[str, object] = dataclasses.field(default_factory=dict)


def scratch_dir(root: str) -> str:
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(dir=root)


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Committed cell digests for ``seed``, if any."""
    path = os.path.join(HERE, "refs", f"{workload}.json")
    with open(path, encoding="utf-8") as handle:
        refs = json.load(handle)
    return refs.get(str(seed))


class CellSources:
    """A run ledger (``RunOptions.ledger``) that keeps where each
    settled cell's result came from (``run``, ``cache``, ...)."""

    def __init__(self) -> None:
        self.sources: List[str] = []

    def record(self, *, source: str = "run", **_fields) -> None:
        self.sources.append(source)

    def close(self) -> None:
        pass


class GridCapture:
    """Keeps the arguments and result of each ``run_grid`` call a
    table driver makes, so the benchmark can check every cell."""

    def __init__(self, harness: Harness):
        self.calls: List[Tuple[Sequence, List[str], object]] = []
        inner = harness.run_grid

        def run_grid(factories, names, *args, **kwargs):
            grid = inner(factories, names, *args, **kwargs)
            self.calls.append((factories, list(names), grid))
            return grid

        harness.run_grid = run_grid


def check_grid(grid, sims, names, ws, reference) -> Tuple[
        List[str], Dict[str, str]]:
    """Status of every expected cell of ``grid``, and its digests."""
    failed = {(f.simulator, f.workload) for f in grid.failures}
    statuses, digests = [], {}
    for sim in sims:
        for name in names:
            key = f"{sim}/{name}"
            result = grid.results.get(sim, {}).get(name)
            if result is not None:
                digests[key] = cell_digest(result.to_dict())
            statuses.append(cell_status(
                failed=(sim, name) in failed,
                present=result is not None,
                digest=digests.get(key),
                expected=(reference or {}).get(key),
                instructions=result.instructions if result else None,
                trace_len=len(ws.trace(name)),
            ))
    return statuses, digests


def cross_check(ws, factories, names, grid, seed) -> str:
    """Re-run one seed-drawn cell in process with the blockcache off;
    its digest must equal the grid's (pool/service and fast path
    against the serial detailed loop)."""
    rng = random.Random(f"cross-check:{seed}")
    factory = rng.choice(list(factories))
    name = rng.choice(list(names))
    alone = Harness(ws, RunOptions(blockcache=False)).run_one(factory, name)
    try:
        cell = grid.get(alone.simulator, name)
    except KeyError:
        return "missing"
    return OK if cell_digest(cell.to_dict()) == cell_digest(
        alone.to_dict()) else "mismatch"


# ----------------------------------------------------------------------
# table2-serial and table3-jobs2
# ----------------------------------------------------------------------

class TableWorkload:
    """Regenerates one paper table through its driver.

    Cold job: the whole table with the workload's options, every cell
    simulated, once per run.  Warm job: one row regenerated from a
    result cache holding every cell, cycling through the rows for
    ``MIN_WARM`` jobs, enough for a p90.
    """

    name = ""
    driver_span = ""
    #: Whether any input depends on the seed.
    seeded = True

    def names(self) -> List[str]:
        raise NotImplementedError

    def build(self, ws: WorkloadSet, seed: int, recorder) -> None:
        """Register generated programs (if the seed asks for them)."""

    def drive(self, harness, names, options):
        raise NotImplementedError

    def options(self, cache, traced: bool) -> RunOptions:
        raise NotImplementedError

    def alpha_error(self, table) -> float:
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------

    def setup(self, seed: int, root: str, recorder=None) -> Dict:
        ws = WorkloadSet()
        self.build(ws, seed, recorder)
        for name in self.names():
            ws.trace(name)
        return {"ws": ws, "seed": seed, "root": scratch_dir(root)}

    def teardown(self, ctx: Dict) -> None:
        shutil.rmtree(ctx["root"], ignore_errors=True)

    def measure(self, ctx: Dict, speed: HostSpeed, recorder=None) -> Pass:
        ws, seed = ctx["ws"], ctx["seed"]
        traced = recorder is not None
        names = self.names()
        reference = load_reference(
            self.name, seed if self.seeded else DEFAULT_SEED
        )
        harness = Harness(ws)
        capture = GridCapture(harness)
        cache = ResultCache(scratch_dir(ctx["root"]))
        options = self.options(cache, traced)
        opened = speed.latest
        began = time.perf_counter()
        with speed.during():
            cold_table = self._drive(harness, names, options, recorder)
        grid_wall = time.perf_counter() - began
        cold = speed.scale(opened, speed.sample())
        grid_wall *= cold

        (factories, grid_names, grid), = capture.calls
        capture.calls = []
        statuses, digests = check_grid(
            grid, _sim_names(factories), grid_names, ws, reference
        )
        cells = [
            (result.simulator, result.instructions,
             result.telemetry.wall_s * cold)
            for per_sim in grid.results.values()
            for result in per_sim.values()
        ]
        statuses.append(cross_check(ws, factories, names, grid, seed))

        warm: List[float] = []
        if options.cache is None:
            # The serial Table 2 pass keeps no result cache, so its
            # results are stored under the keys the engine derives,
            # as a cached run would have left them.
            cache = ResultCache(scratch_dir(ctx["root"]))
            for cell in grid_cells(ws, factories, names):
                result = grid.results.get(cell.sim_name, {}).get(
                    cell.workload
                )
                if result is not None:
                    cache.put(cell.key, result)
        opened = speed.sample()
        for name in itertools.islice(itertools.cycle(names), MIN_WARM):
            ledger = CellSources()
            began = time.perf_counter()
            table = self._drive(
                harness, [name],
                dataclasses.replace(options, cache=cache, ledger=ledger),
                recorder,
            )
            warm.append(time.perf_counter() - began)
            speed.sample(WARM_CHUNKS)
            same = table.rows == [cold_table.row(name)]
            statuses.extend(OK if same and source == "cache" else "mismatch"
                            for source in ledger.sources)
        scale = speed.scale(opened)
        warm = [latency * scale for latency in warm]

        instructions = sum(n for _, n, _ in cells)
        return Pass(
            wall_s=grid_wall,
            statuses=statuses,
            metrics={
                "sim_kips": instructions / grid_wall / 1e3,
                "alpha_err_pct": self.alpha_error(cold_table),
                "job_cold_p50_s": grid_wall,
                "job_warm_p50_s": median(warm),
                "job_warm_p90_s": percentile(warm, WARM_PERCENTILE),
            },
            cells=cells,
            jobs=options.jobs,
            grid_wall_s=grid_wall,
            ops=len(cells),
            notes={
                "warm_rows": len(warm),
                "scale": {"cold": round(cold, 4), "warm": round(scale, 4)},
                "digests": digests,
                "reference": reference is not None,
            },
        )

    def _drive(self, harness, names, options, recorder):
        if recorder is None:
            return self.drive(harness, names, options)
        with recorder.span(self.driver_span):
            return self.drive(harness, names, options)


def _sim_names(factories) -> List[str]:
    return [factory().name for factory in factories]


class Table2Serial(TableWorkload):
    """``table2_micro`` over the quick microbenchmarks, serial harness
    loop, no result cache.  The paper's kernels are hand-written, so
    no input depends on the seed."""

    name = "table2-serial"
    driver_span = "validation.table2_micro"
    seeded = False

    def names(self):
        return list(QUICK_MICRO)

    def drive(self, harness, names, options):
        return table2_micro(harness, names, options=options)

    def options(self, cache, traced):
        return RunOptions()

    def alpha_error(self, table):
        return table.mean_alpha_error


class Table3Jobs2(TableWorkload):
    """``table3_macro`` over the ten SPEC2000 proxies on a two-worker
    pool with a fresh result cache.  The seed regenerates the proxies;
    the default seed keeps the shipped ones."""

    name = "table3-jobs2"
    driver_span = "validation.table3_macro"

    def names(self):
        return spec2000_names()

    def build(self, ws, seed, recorder):
        if seed == DEFAULT_SEED:
            return
        for name in self.names():
            profile = SPEC2000_PROFILES[name]
            profile = dataclasses.replace(
                profile, seed=profile.seed + 1000 * seed
            )
            if recorder is None:
                ws.register(build_macro(profile))
            else:
                with recorder.span("workloads.build_macro"):
                    ws.register(build_macro(profile))

    def drive(self, harness, names, options):
        return table3_macro(harness, names, options=options)

    def options(self, cache, traced):
        # Profilers inside forked pool workers never reach the parent,
        # so the traced pass runs its cells in process.
        return RunOptions(jobs=1 if traced else TABLE3_JOBS, cache=cache)

    def alpha_error(self, table):
        return table.alpha_mean_error


# ----------------------------------------------------------------------
# serve-jobs
# ----------------------------------------------------------------------

class ServeJobs:
    """One in-process ``repro-serve`` driven by one closed-loop client.

    Cold: ``SERVE_GRIDS`` disjoint grids, each simulating, writing the
    cache and writing its checkpoint journal.  Warm: ``reuse:false``
    resubmissions, ``WARM_PER_GRID`` of each grid in seed-drawn order,
    every cell served from the shared cache.
    """

    name = "serve-jobs"

    def setup(self, seed: int, root: str, recorder=None) -> Dict:
        state = scratch_dir(root)
        # Configured as ``repro-serve`` is: the built-in workloads.
        app = ServiceApp(os.path.join(state, "svc"))
        ws = app.workloads
        names = spec2000_names()
        for name in names:
            ws.trace(name)
        server = build_server(app)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(host, port, tenant="perfbench")
        client.healthz()
        random.Random(f"grids:{seed}").shuffle(names)
        specs = [
            ExperimentSpec(SERVE_SIMULATORS, tuple(names[2 * i:2 * i + 2]))
            for i in range(SERVE_GRIDS)
        ]
        return {"ws": ws, "seed": seed, "root": state, "app": app,
                "server": server, "thread": thread, "client": client,
                "specs": specs}

    def teardown(self, ctx: Dict) -> None:
        ctx["server"].shutdown()
        ctx["thread"].join(timeout=30)
        ctx["server"].server_close()
        ctx["app"].shutdown()
        shutil.rmtree(ctx["root"], ignore_errors=True)

    def _job(self, client, spec, reuse, label, recorder):
        """Submit, wait, fetch: (latency, status, job id, text)."""
        if recorder is not None:
            recorder.op = label
        began = time.perf_counter()
        text, job_id = None, None
        try:
            job = client.submit(spec, reuse=reuse)
            job_id = job["id"]
            final = client.wait(job_id, timeout=JOB_TIMEOUT_S)
            if final["state"] == "done" and not final.get("failures"):
                text = client.result_text(job_id)
                status = OK
            else:
                status = job_status(state="failed")
        except ServiceError:
            status = job_status(refused=True)
        except TimeoutError:
            status = job_status(timed_out=True)
        latency = time.perf_counter() - began
        if recorder is not None:
            recorder.op = ""
        return latency, status, job_id, text

    def measure(self, ctx: Dict, speed: HostSpeed, recorder=None) -> Pass:
        client, specs, ws = ctx["client"], ctx["specs"], ctx["ws"]
        seed = ctx["seed"]
        statuses: List[str] = []
        cold_lat, cold_text = [], []
        warm_lat, warm_ids = [], []

        opened = speed.latest
        for i, spec in enumerate(specs):
            with speed.during():
                latency, status, _, text = self._job(
                    client, spec, True, f"cold-{i}", recorder
                )
            speed.sample()
            cold_lat.append(latency)
            cold_text.append(text)
            statuses.append(status)
        cold = speed.scale(opened)
        cold_lat = [latency * cold for latency in cold_lat]
        opened = speed.latest
        order = [i for i in range(len(specs)) for _ in range(WARM_PER_GRID)]
        random.Random(f"resubmit:{seed}").shuffle(order)
        for i in order:
            label = f"warm-{len(warm_lat)}"
            latency, status, job_id, text = self._job(
                client, specs[i], False, label, recorder
            )
            speed.sample(WARM_CHUNKS)
            if status == OK:
                status = job_status(text=text, expected=cold_text[i])
            warm_lat.append(latency)
            warm_ids.append((label, job_id))
            statuses.append(status)
        warm = speed.scale(opened)
        warm_lat = [latency * warm for latency in warm_lat]

        # The cells are the same for every seed: it only pairs them.
        reference = load_reference(self.name, DEFAULT_SEED)
        grid, digests = ResultGrid(), {}
        for text in cold_text:
            if text is not None:
                entries = json.loads(text)["results"]
                digests.update(grid_digests(entries))
                for entry in entries:
                    grid.add(SimResult.from_dict(entry))
        if reference is not None:
            statuses.extend(
                "mismatch" for _ in digest_mismatches(digests, reference)
            )
        registry = simulator_registry()
        statuses.append(cross_check(
            ws, [registry[name] for name in SERVE_SIMULATORS],
            grid.workloads(), grid, seed,
        ))
        # Summed in name order, so the seed's pairing cannot change the
        # last digits.
        alpha = mean_absolute_error(
            percent_error_cpi(grid.get("sim-alpha", name).cpi,
                              grid.get("DS-10L", name).cpi)
            for name in sorted(grid.workloads())
        )
        instructions = sum(
            result.instructions
            for per_sim in grid.results.values()
            for result in per_sim.values()
        )
        cells = [(simulator, instructions, seconds * cold)
                 for simulator, instructions, seconds
                 in registry_cells(ctx["app"].metrics)]
        layer = {}
        if recorder is not None:
            layer = self._split(client, recorder, warm_ids, warm_lat, warm)
        return Pass(
            wall_s=sum(cold_lat) + sum(warm_lat),
            statuses=statuses,
            metrics={
                "sim_kips": instructions / sum(cold_lat) / 1e3,
                "alpha_err_pct": alpha,
                "job_cold_p50_s": median(cold_lat),
                "job_warm_p50_s": median(warm_lat),
                "job_warm_p90_s": percentile(warm_lat, WARM_PERCENTILE),
            },
            cells=cells,
            jobs=1,
            grid_wall_s=sum(cold_lat),
            ops=len(cold_lat) + len(warm_lat),
            layer=layer,
            notes={"cold_jobs": len(cold_lat), "warm_jobs": len(warm_lat),
                   "scale": {"cold": round(cold, 4), "warm": round(warm, 4)},
                   "digests": digests,
                   "reference": reference is not None},
        )

    def _split(self, client, recorder, warm_ids, warm_lat, scale) -> Dict:
        """Queue wait, run and client/HTTP time of each warm job from
        its event timestamps (host seconds, taken to reference seconds
        by ``scale``; ``warm_lat`` is already), and HTTP requests per
        job."""
        requests: Dict[str, int] = {}
        for span in recorder.named("service.request"):
            requests[span["op"]] = requests.get(span["op"], 0) + 1
        queue, run, rest, counts = [], [], [], []
        for (label, job_id), latency in zip(warm_ids, warm_lat):
            if job_id is None:
                continue
            events = {e["kind"]: e["ts"]
                      for e in client.events(job_id)["events"]}
            queue.append((events["started"] - events["submitted"]) * scale)
            run.append((events["done"] - events["started"]) * scale)
            rest.append(
                latency - (events["done"] - events["submitted"]) * scale
            )
            counts.append(requests.get(label, 0))
        return {
            "service.queue_wait_s": median(queue),
            "service.run_s": median(run),
            "service.client_s": median(rest),
            "service.requests_per_job": sum(counts) / len(counts),
        }


def registry_cells(registry) -> List[Tuple[str, int, float]]:
    """(simulator, instructions, wall) of every cell the service
    simulated, from the ``telemetry.*`` series the harness mirrors into
    its metrics registry (service results are canonical, so they carry
    no telemetry)."""
    cells = []
    prefix = "telemetry.cell_wall."
    for name in registry:
        if not name.startswith(prefix):
            continue
        key = name[len(prefix):]
        simulator = key.split(".", 1)[0]
        instructions = registry.counter(
            f"telemetry.instructions.{key}"
        ).value
        cells.append((simulator, instructions, registry.timer(name).total))
    return cells


WORKLOADS = {
    "table2-serial": Table2Serial,
    "table3-jobs2": Table3Jobs2,
    "serve-jobs": ServeJobs,
}
