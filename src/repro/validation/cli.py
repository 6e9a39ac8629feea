"""Command-line entry point: ``repro-experiments <experiment>``.

Runs one (or all) of the paper's experiments and prints the table.
Useful for quick looks without the pytest-benchmark harness::

    repro-experiments table2
    repro-experiments table4 --quick
    repro-experiments all

Grid-shaped experiments (tables 2-5, figure2, bugwalk) accept
``--jobs N`` to fan cells out over worker processes and
``--cache-dir DIR`` to memoize cells on disk across invocations
(``--no-cache`` forces a full recompute)::

    repro-experiments table2 --jobs 4 --cache-dir ~/.cache/repro
    repro-experiments all --quick --jobs 2 --cache-dir .repro-cache

The ``trace`` subcommand instruments a single run instead: it prints
the workload's CPI stack and writes a JSONL pipeline trace plus a
Chrome trace-event file (loadable in ``chrome://tracing``)::

    repro-experiments trace M-D
    repro-experiments trace C-R --simulator sim-initial --emit-trace out/
    repro-experiments table2 --quick --metrics-out metrics.json

Integrity options (see docs/ROBUSTNESS.md): ``--sanitize`` arms the
invariant sanitizers (``--strict`` aborts on the first violation
instead of quarantining), ``--stuck-after S`` arms the livelock
watchdog, and ``--checkpoint FILE`` journals completed grid cells so
``--resume`` can pick an interrupted run back up.  The exit status
reports integrity: 0 clean, 3 when any cell was quarantined or failed,
4 on a strict-mode abort.  The ``integrity`` subcommand runs the
fault-injection detection matrix and exits nonzero unless every fault
is caught; ``--sweep`` pairs every fault with the microbenchmark
families that stress its subsystem and prints the coverage report,
``--families`` restricts the sweep.  ``checkpoint-gc`` prunes a grid
journal by entry age::

    repro-experiments table2 --sanitize --stuck-after 120
    repro-experiments table3 --checkpoint t3.ckpt --resume
    repro-experiments integrity
    repro-experiments integrity --sweep
    repro-experiments integrity --sweep --families dram,memory
    repro-experiments checkpoint-gc t3.ckpt --gc-max-age 604800

Observability (see docs/OBSERVABILITY.md): ``profile`` attributes one
run's wall time to pipeline phases and components and writes a
flamegraph-compatible collapsed-stack file; ``bench`` runs the pinned
performance suite, emits a schema-versioned ``BENCH_<label>.json``
trajectory artifact, and with ``--compare OLD NEW`` diffs two
artifacts, exiting 5 when a gated metric regressed past
``--bench-threshold``; ``cache-gc`` prunes a result cache by age and
LRU size budget.  Grid runs accept ``--ledger FILE`` (per-cell JSONL
telemetry), ``--progress`` (live cells/s + ETA line), and
``--openmetrics FILE`` (Prometheus-textfile registry export)::

    repro-experiments profile M-D
    repro-experiments profile gzip --simulator sim-initial
    repro-experiments bench --label pr6
    repro-experiments bench --compare BENCH_pr6.json BENCH_pr9.json
    repro-experiments cache-gc .repro-cache --gc-max-age 604800
    repro-experiments table2 --jobs 4 --ledger t2.ledger.jsonl --progress
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict

from repro.validation import (
    ablate_native_effects,
    baseline_spread,
    bug_walk,
    calibrate_dram,
    diagnose,
    figure2_regfile,
    sampling_interval_study,
    table1_latencies,
    table2_micro,
    table3_macro,
    table4_features,
    table5_stability,
    warmup_study,
)
from repro.exec.spec import RunOptions
from repro.validation.exitcodes import ExitCode
from repro.validation.harness import Harness
from repro.workloads.suite import micro_names, spec2000_names, spec95_names

__all__ = ["main"]

#: Simulator factories the ``trace`` subcommand can instrument.
def _trace_simulators() -> Dict[str, Callable[[], object]]:
    from repro.core.simalpha import SimAlpha
    from repro.core.siminitial import make_sim_initial
    from repro.core.simstripped import make_sim_stripped
    from repro.simulators.refmachine import make_native_machine

    return {
        "sim-alpha": SimAlpha,
        "sim-initial": make_sim_initial,
        "sim-stripped": make_sim_stripped,
        "native": make_native_machine,
    }

#: Reduced workload sets for --quick runs.
_QUICK_MICRO = ("C-Ca", "C-R", "C-S1", "E-I", "E-D3", "M-D", "M-M")
_QUICK_MACRO = ("gzip", "eon", "mesa", "art")
_QUICK_SPEC95 = ("go", "swim", "fpppp")


def _run_table1(quick: bool, engine: Dict) -> str:
    return table1_latencies().render()


def _run_table2(quick: bool, engine: Dict) -> str:
    names = _QUICK_MICRO if quick else micro_names()
    return table2_micro(benchmarks=names, **engine).render()


def _run_table3(quick: bool, engine: Dict) -> str:
    names = _QUICK_MACRO if quick else spec2000_names()
    return table3_macro(benchmarks=names, **engine).render()


def _run_table4(quick: bool, engine: Dict) -> str:
    names = _QUICK_MACRO if quick else spec2000_names()
    features = ("addr", "luse", "spec", "stwt") if quick else None
    return table4_features(
        benchmarks=names, features=features, **engine
    ).render()


def _run_table5(quick: bool, engine: Dict) -> str:
    names = _QUICK_MACRO if quick else spec2000_names()
    features = ("addr", "luse") if quick else None
    return table5_stability(
        benchmarks=names, features=features, **engine
    ).render()


def _run_figure2(quick: bool, engine: Dict) -> str:
    names = _QUICK_SPEC95 if quick else spec95_names()
    return figure2_regfile(benchmarks=names, **engine).render()


def _run_calibration(quick: bool, engine: Dict) -> str:
    if quick:
        from repro.dram.config import parameter_grid

        configs = list(parameter_grid(
            ras_values=(2,), cas_values=(3, 4),
            precharge_values=(2,), controller_values=(1, 2),
        ))
        return calibrate_dram(configs=configs).render()
    return calibrate_dram().render()


def _run_dram_zoo(quick: bool, engine: Dict) -> str:
    """Per-backend Section 4.2 sweep + error decomposition."""
    from repro.dram.backends import backend_names
    from repro.reporting.dram_error import decompose_dram_error

    decomposition = decompose_dram_error(
        engine["harness"], quick=quick
    )
    return (
        f"registered DRAM backends: {', '.join(backend_names())}\n\n"
        + decomposition.render()
    )


def _run_bugwalk(quick: bool, engine: Dict) -> str:
    names = _QUICK_MICRO if quick else micro_names()
    bugs = (
        ("late_branch_recovery", "jmp_undercharge", "wrong_fu_mix")
        if quick else None
    )
    return bug_walk(benchmarks=names, bugs=bugs, **engine).render()


def _run_sampling(quick: bool, engine: Dict) -> str:
    return sampling_interval_study().render()


def _run_warmup(quick: bool, engine: Dict) -> str:
    workloads = ("gzip",) if quick else ("gzip", "mesa", "C-Ca")
    harness = engine["harness"]
    parts = []
    for workload in workloads:
        profile = warmup_study(workload, harness=harness)
        parts.append(profile.render())
    return "\n\n".join(parts)


def _run_baselines(quick: bool, engine: Dict) -> str:
    result = baseline_spread(workload="compress" if quick else "gcc95")
    return (result.render()
            + f"\nspread ratio: {result.spread_ratio:.2f}x")


def _run_ablation(quick: bool, engine: Dict) -> str:
    benchmarks = ("mesa", "art") if quick else (
        "gzip", "eon", "mesa", "art", "lucas"
    )
    return ablate_native_effects(benchmarks=benchmarks).render()


def _run_diagnose(quick: bool, engine: Dict) -> str:
    """Replay the canonical Section 3.4 debugging sessions."""
    from repro.core.siminitial import make_sim_with_bugs
    from repro.simulators.refmachine import make_native_machine

    sessions = [("M-I", "masked_load_trap_addresses"),
                ("E-DM1", "wrong_fu_mix")]
    if not quick:
        sessions.append(("C-Ca", "late_branch_recovery"))
    harness = engine["harness"]
    reference_machine = make_native_machine()
    parts = []
    for workload, bug in sessions:
        trace = harness.workloads.trace(workload)
        reference = reference_machine.run_trace(trace, workload)
        buggy = make_sim_with_bugs(bug).run_trace(trace, workload)
        parts.append(f"injected: {bug}\n"
                     + diagnose(buggy, reference).render())
    return "\n\n".join(parts)


def run_trace_command(
    workload: str,
    *,
    simulator: str = "sim-alpha",
    out_dir: str = ".",
    capacity: int = 65_536,
    metrics_out: str = "",
) -> str:
    """Instrument one run: CPI stack to stdout, trace files to disk."""
    from repro.obs import Instrumentation
    from repro.reporting import (
        render_cpi_stack_bars,
        render_cpi_stack_table,
    )

    factories = _trace_simulators()
    try:
        factory = factories[simulator]
    except KeyError:
        raise SystemExit(
            f"unknown simulator {simulator!r}; choose from "
            f"{sorted(factories)}"
        ) from None
    if capacity <= 0:
        raise SystemExit(
            f"--trace-limit must be positive (got {capacity})"
        )

    instrumentation = Instrumentation(trace=True, trace_capacity=capacity)
    harness = Harness(metrics=instrumentation.registry)
    try:
        result = harness.run_one(
            factory, workload, instrumentation=instrumentation
        )
    except KeyError as error:
        # WorkloadSet raises a descriptive KeyError naming the known
        # workloads; surface it as a CLI error, not a traceback.
        raise SystemExit(str(error.args[0])) from None

    os.makedirs(out_dir, exist_ok=True)
    provenance = result.provenance.to_dict() if result.provenance else None
    tracer = instrumentation.last_tracer()
    jsonl_path = os.path.join(out_dir, f"{workload}.trace.jsonl")
    chrome_path = os.path.join(out_dir, f"{workload}.chrome.json")
    tracer.write_jsonl(
        jsonl_path, simulator=result.simulator, workload=workload,
        provenance=provenance,
    )
    tracer.write_chrome_trace(
        chrome_path, simulator=result.simulator, workload=workload,
        provenance=provenance,
    )
    if metrics_out:
        instrumentation.registry.write_json(
            metrics_out, extra={"command": "trace", "workload": workload}
        )

    stacks = {workload: result.cpi_stack}
    parts = [
        str(result),
        "",
        render_cpi_stack_table(stacks),
        "",
        render_cpi_stack_bars(stacks),
        "",
        f"pipeline trace (JSONL):       {jsonl_path}",
        f"chrome://tracing event file:  {chrome_path}",
        f"events retained: {len(tracer)} of {tracer.recorded} "
        f"({tracer.dropped} dropped by the ring bound)",
    ]
    if provenance:
        parts.append(
            f"provenance: config={provenance['config_hash']} "
            f"version={provenance['package_version']} "
            f"host={provenance['host']}"
        )
    return "\n".join(parts)


def run_profile_command(
    workload: str,
    *,
    simulator: str = "sim-alpha",
    out_dir: str = ".",
    metrics_out: str = "",
) -> str:
    """Profile one run: attribution table to stdout, collapsed stacks
    (flamegraph.pl-compatible) to disk."""
    from repro.obs import Instrumentation

    factories = _trace_simulators()
    try:
        factory = factories[simulator]
    except KeyError:
        raise SystemExit(
            f"unknown simulator {simulator!r}; choose from "
            f"{sorted(factories)}"
        ) from None

    instrumentation = Instrumentation(profile=True)
    harness = Harness(metrics=instrumentation.registry)
    try:
        result = harness.run_one(
            factory, workload, instrumentation=instrumentation
        )
    except KeyError as error:
        raise SystemExit(str(error.args[0])) from None

    profiler = instrumentation.last_profiler()
    if profiler is None:
        # Simulators without the observer hook (e.g. native) never
        # enter the profiled pipeline; say so instead of a blank table.
        raise SystemExit(
            f"simulator {simulator!r} does not support the observer "
            f"hook, so there is no hot path to profile"
        )
    os.makedirs(out_dir, exist_ok=True)
    collapsed_path = os.path.join(out_dir, f"{workload}.collapsed.txt")
    profiler.write_collapsed(collapsed_path)
    if metrics_out:
        instrumentation.registry.write_json(
            metrics_out, extra={"command": "profile", "workload": workload}
        )
    return "\n".join([
        str(result),
        "",
        profiler.render(),
        "",
        f"collapsed stacks (flamegraph.pl): {collapsed_path}",
    ])


#: Runners take (quick, engine) where ``engine`` holds the shared
#: ``harness=`` (whose :class:`~repro.exec.spec.RunOptions` carry the
#: jobs/cache/shards selection) for drivers that run
#: (simulator x workload) grids; runners whose experiment has no grid
#: simply ignore it.
_EXPERIMENTS: Dict[str, Callable[[bool, Dict], str]] = {
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
    "table5": _run_table5,
    "figure2": _run_figure2,
    "calibration": _run_calibration,
    "dram-zoo": _run_dram_zoo,
    "bugwalk": _run_bugwalk,
    "sampling": _run_sampling,
    "warmup": _run_warmup,
    "baselines": _run_baselines,
    "ablation": _run_ablation,
    "diagnose": _run_diagnose,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the experiments of 'Measuring Experimental Error "
            "in Microprocessor Simulation' (ISCA 2001)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + [
            "all", "trace", "integrity", "checkpoint-gc",
            "profile", "bench", "blockcache-check", "cache-gc",
            "chaos", "shard-status",
        ],
        help="which experiment to run, 'trace' to instrument one run, "
             "'profile' for hot-path wall-time attribution, 'bench' "
             "for the pinned performance suite, 'blockcache-check' to "
             "audit fast-path/detailed byte equivalence (exit 5 on "
             "divergence), 'integrity' to run "
             "the fault-injection matrix, 'chaos' to run the sharded-"
             "execution chaos scenarios (exit 1 on any violation), "
             "'shard-status' to inspect a sharded run's journals, "
             "'checkpoint-gc' to prune a "
             "grid journal, or 'cache-gc' to prune a result cache",
    )
    parser.add_argument(
        "workload", nargs="?", default=None,
        help="workload to trace/profile (e.g. M-D or gzip), journal "
             "path (checkpoint-gc, shard-status), cache directory "
             "(cache-gc), or scenario name (chaos; omit to run all)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="use reduced workload/parameter sets",
    )
    parser.add_argument(
        "--simulator", default="sim-alpha",
        help="simulator for the trace subcommand "
             "(sim-alpha, sim-initial, sim-stripped, native)",
    )
    parser.add_argument(
        "--emit-trace", metavar="DIR", default=".",
        help="directory for the trace subcommand's JSONL and Chrome "
             "trace-event files (default: current directory)",
    )
    parser.add_argument(
        "--trace-limit", type=int, default=65_536, metavar="N",
        help="ring-buffer capacity: keep the last N instructions "
             "(default: 65536)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default="",
        help="write a metrics-registry JSON snapshot (per-experiment "
             "wall times, or per-cell timings for trace) to FILE",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan grid cells out over N worker processes "
             "(default: 1, serial)",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="run grids over N crash-safe work-stealing shard runner "
             "processes (worker loss is recovered from fsynced shard "
             "journals; combine with --checkpoint for coordinator-"
             "crash resume; default: 1, no sharding)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default="",
        help="memoize grid cells on disk under DIR, keyed by exact "
             "configuration; unchanged cells are reused across runs",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir: recompute every cell this run",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="arm the invariant sanitizers: audit every cell and "
             "quarantine violating results off the grid (exit 3)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="with --sanitize (implied): abort on the first invariant "
             "violation instead of quarantining (exit 4)",
    )
    parser.add_argument(
        "--stuck-after", type=float, default=None, metavar="S",
        help="arm the livelock watchdog: a cell making no retirement "
             "progress for S seconds fails as 'stuck' instead of "
             "hanging forever",
    )
    parser.add_argument(
        "--checkpoint", metavar="FILE", default="",
        help="journal completed grid cells to FILE (atomic writes) so "
             "an interrupted run can be resumed",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="with --checkpoint: skip cells the journal already holds",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="integrity subcommand: pair every fault with the workload "
             "families that stress its subsystem and print the "
             "fault x family coverage report",
    )
    parser.add_argument(
        "--families", metavar="LIST", default="",
        help="with integrity --sweep: comma-separated workload "
             "families to sweep (control, execute, memory, dram; "
             "default: all)",
    )
    parser.add_argument(
        "--gc-max-age", type=float, default=None, metavar="S",
        help="checkpoint-gc/cache-gc subcommands: prune entries "
             "untouched for more than S seconds",
    )
    parser.add_argument(
        "--gc-max-bytes", type=int, default=None, metavar="N",
        help="cache-gc subcommand: evict least-recently-used entries "
             "until the cache fits in N bytes",
    )
    parser.add_argument(
        "--ledger", metavar="FILE", default="",
        help="append one JSONL record per settled grid cell (status + "
             "resource telemetry) to FILE",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="render a live 'cells done/total, cells/s, ETA' line on "
             "stderr while a grid runs",
    )
    parser.add_argument(
        "--openmetrics", metavar="FILE", default="",
        help="write the metrics registry as an OpenMetrics/Prometheus "
             "text file after the run",
    )
    parser.add_argument(
        "--label", default="local", metavar="NAME",
        help="bench subcommand: label for the emitted artifact "
             "(default: local)",
    )
    parser.add_argument(
        "--bench-out", metavar="FILE", default="",
        help="bench subcommand: artifact path "
             "(default: BENCH_<label>.json)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="bench subcommand: compare two artifacts instead of "
             "running the suite; exit 5 on a gated regression",
    )
    parser.add_argument(
        "--bench-threshold", type=float, default=0.15, metavar="FRAC",
        help="bench --compare: relative change in a gated metric's bad "
             "direction that counts as a regression (default: 0.15)",
    )
    parser.add_argument(
        "--bench-rounds", type=int, default=2, metavar="N",
        help="bench subcommand: best-of-N rounds for wall-time-"
             "sensitive probes (default: 2)",
    )
    parser.add_argument(
        "--dram-backend", metavar="NAME", default="",
        help="run every grid simulator with this DRAM timing model "
             "(a registered repro.dram backend: sdram, closed-page, "
             "ddr4, ideal; default: each simulator's configured "
             "backend)",
    )
    parser.add_argument(
        "--no-blockcache", action="store_true",
        help="disable the trace-compiled fast path: run every cell "
             "through the pure detailed timing loop",
    )
    parser.add_argument(
        "--blockcache-verify", type=int, default=None, metavar="N",
        help="re-execute every Nth fast-path batch through the "
             "detailed loop and quarantine the run on divergence "
             "(default: 32; 1 = verify everything, replay nothing)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1 (got {args.jobs})")
    if args.shards < 1:
        parser.error(f"--shards must be >= 1 (got {args.shards})")
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint FILE")
    if args.stuck_after is not None and args.stuck_after <= 0:
        parser.error(
            f"--stuck-after must be positive (got {args.stuck_after})"
        )
    if args.dram_backend:
        from repro.dram.backends import backend_names

        if args.dram_backend not in backend_names():
            parser.error(
                f"unknown DRAM backend {args.dram_backend!r}; known: "
                + ", ".join(backend_names())
            )

    if args.bench_threshold < 0:
        parser.error(
            f"--bench-threshold must be >= 0 (got {args.bench_threshold})"
        )
    if args.bench_rounds < 1:
        parser.error(
            f"--bench-rounds must be >= 1 (got {args.bench_rounds})"
        )
    if args.blockcache_verify is not None and args.blockcache_verify < 0:
        parser.error(
            f"--blockcache-verify must be >= 0 "
            f"(got {args.blockcache_verify})"
        )
    if args.no_blockcache:
        blockcache = False
    elif args.blockcache_verify is not None:
        from repro.core.blockcache import BlockCacheConfig

        blockcache = BlockCacheConfig(
            verify_interval=args.blockcache_verify
        )
    else:
        blockcache = None

    if args.experiment == "blockcache-check":
        from repro.validation.bench import run_blockcache_check

        report, ok = run_blockcache_check()
        print(report)
        return ExitCode.OK if ok else ExitCode.DIVERGENCE

    if args.experiment == "bench":
        from repro.validation.bench import (
            compare_artifacts,
            load_artifact,
            render_comparison,
            run_bench,
            write_artifact,
        )

        if args.compare:
            old_path, new_path = args.compare
            try:
                old = load_artifact(old_path)
                new = load_artifact(new_path)
            except (OSError, ValueError) as error:
                print(error, file=sys.stderr)
                return ExitCode.USAGE
            rows, regressions = compare_artifacts(
                old, new, threshold=args.bench_threshold
            )
            print(f"{old.get('label')} ({old.get('created')}) -> "
                  f"{new.get('label')} ({new.get('created')})")
            print(render_comparison(
                rows, regressions, threshold=args.bench_threshold
            ))
            return ExitCode.DIVERGENCE if regressions else ExitCode.OK
        artifact = run_bench(
            label=args.label,
            rounds=args.bench_rounds,
            progress=lambda message: print(
                f"bench: {message}", file=sys.stderr
            ),
        )
        out = args.bench_out or f"BENCH_{args.label}.json"
        write_artifact(artifact, out)
        gated = sum(
            1 for metric in artifact["metrics"].values() if metric["gate"]
        )
        print(f"wrote {out}: {len(artifact['metrics'])} metrics "
              f"({gated} gated)")
        for name in sorted(artifact["metrics"]):
            metric = artifact["metrics"][name]
            kind = "gated" if metric["gate"] else "info"
            print(f"  {name:<34} {metric['value']:>12.3f} "
                  f"{metric['unit']:<8} ({kind})")
        return ExitCode.OK

    if args.experiment == "chaos":
        from repro.integrity.chaos import run_chaos_suite
        from repro.integrity.checkpoint import CheckpointConflict

        try:
            report = run_chaos_suite(
                [args.workload] if args.workload else None
            )
        except CheckpointConflict:
            raise  # a determinism violation, not a usage error
        except ValueError as error:  # an unknown scenario name
            parser.error(str(error))
        print(report.render())
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as out:
                out.write(report.to_json())
        if report.all_passed:
            print("all chaos scenarios passed; grids byte-identical")
            return ExitCode.OK
        failed = [o.scenario for o in report.outcomes if not o.passed]
        print("CHAOS VIOLATIONS: " + ", ".join(failed), file=sys.stderr)
        return ExitCode.FAILURE

    if args.experiment == "shard-status":
        from repro.exec.coordinator import shard_status

        base = args.workload or args.checkpoint
        if not base:
            parser.error(
                "shard-status requires a journal base path "
                "(positional or --checkpoint FILE)"
            )
        status = shard_status(base)
        if not status["journals"]:
            print(f"{base}: no journals found")
            return ExitCode.USAGE
        for record in status["journals"]:
            print(
                f"{record['path']}: {record['entries']} entries "
                f"[{record['state']}]"
            )
        print(f"{status['distinct_digests']} distinct cells journaled")
        return ExitCode.OK

    if args.experiment == "cache-gc":
        from repro.exec.cache import ResultCache

        root = args.workload or args.cache_dir
        if not root:
            parser.error(
                "cache-gc requires a cache directory (positional or "
                "--cache-dir DIR)"
            )
        if not os.path.isdir(root):
            print(f"{root}: not a directory", file=sys.stderr)
            return ExitCode.USAGE
        summary = ResultCache(root).gc(
            max_age_s=args.gc_max_age, max_bytes=args.gc_max_bytes
        )
        print(
            f"{root}: removed {len(summary['removed'])} entries, "
            f"reclaimed {summary['reclaimed_bytes']} bytes, "
            f"{summary['kept']} kept"
        )
        return ExitCode.OK

    if args.experiment == "profile":
        if not args.workload:
            parser.error("profile requires a workload name, e.g. "
                         "'repro-experiments profile M-D'")
        print(run_profile_command(
            args.workload,
            simulator=args.simulator,
            out_dir=args.emit_trace,
            metrics_out=args.metrics_out,
        ))
        return ExitCode.OK

    if args.experiment == "checkpoint-gc":
        from repro.integrity.checkpoint import GridCheckpoint

        path = args.checkpoint or args.workload
        if not path:
            parser.error(
                "checkpoint-gc requires a journal path (positional or "
                "--checkpoint FILE)"
            )
        checkpoint = GridCheckpoint(path)
        try:
            before = len(checkpoint.load())
        except ValueError as error:
            print(error, file=sys.stderr)
            return ExitCode.USAGE
        pruned = checkpoint.gc(max_age_s=args.gc_max_age)
        print(
            f"{path}: pruned {len(pruned)} of {before} entries, "
            f"{len(checkpoint)} kept"
        )
        return ExitCode.OK

    if args.experiment == "integrity":
        from repro.integrity.faultinject import (
            run_detection_matrix,
            run_detection_sweep,
        )

        if args.sweep or args.families:
            from repro.reporting import render_coverage

            families = [
                family.strip()
                for family in args.families.split(",")
                if family.strip()
            ] or None
            try:
                matrix = run_detection_sweep(
                    families=families,
                    include_pool_faults=not args.quick,
                )
            except KeyError as error:
                parser.error(str(error.args[0]))
            print(matrix.render())
            print()
            print(render_coverage(matrix))
        else:
            matrix = run_detection_matrix(
                workload=args.workload or "M-M",
                include_pool_faults=not args.quick,
            )
            print(matrix.render())
        if matrix.all_caught:
            print("all faults detected; control clean")
            return ExitCode.OK
        print(
            "SILENT CORRUPTIONS: "
            + ", ".join(matrix.silent_corruptions())
        )
        return ExitCode.FAILURE

    if args.experiment == "trace":
        if not args.workload:
            parser.error("trace requires a workload name, e.g. "
                         "'repro-experiments trace M-D'")
        print(run_trace_command(
            args.workload,
            simulator=args.simulator,
            out_dir=args.emit_trace,
            capacity=args.trace_limit,
            metrics_out=args.metrics_out,
        ))
        return ExitCode.OK

    from repro.integrity.sanitizers import IntegrityError, Sanitizers
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry(
        enabled=bool(args.metrics_out or args.openmetrics)
    )
    sanitizers = (
        Sanitizers(strict=args.strict)
        if args.sanitize or args.strict else None
    )
    options = RunOptions(
        jobs=args.jobs,
        cache=(
            None if args.no_cache or not args.cache_dir
            else args.cache_dir
        ),
        watchdog_s=args.stuck_after,
        checkpoint=args.checkpoint or None,
        resume=args.resume,
        ledger=args.ledger or None,
        live_progress=args.progress,
        blockcache=blockcache,
        shards=args.shards,
        dram_backend=args.dram_backend or None,
    )
    harness = Harness(
        options=options, metrics=registry, sanitizers=sanitizers,
    )
    engine = {
        # One harness across experiments: traces are built once, every
        # grid inherits ``options`` through it, and cache/cell counters
        # land in the --metrics-out registry.
        "harness": harness,
    }
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    for name in names:
        started = time.time()
        try:
            with registry.timer(f"experiment.{name}").time():
                output = _EXPERIMENTS[name](args.quick, engine)
        except IntegrityError as error:
            print(f"integrity violation (strict) in {name}:",
                  file=sys.stderr)
            print(f"  {error.violation}", file=sys.stderr)
            return ExitCode.STRICT_ABORT
        elapsed = time.time() - started
        print(output)
        print(f"[{name} completed in {elapsed:.1f}s]")
        print()
    if args.metrics_out:
        registry.write_json(
            args.metrics_out,
            extra={"experiments": names, "quick": args.quick,
                   "jobs": args.jobs,
                   "cache_dir": options.cache or ""},
        )
    if args.openmetrics:
        registry.write_openmetrics(args.openmetrics)
    if harness.failed_cells:
        print(
            f"{len(harness.failed_cells)} cell(s) failed or were "
            f"quarantined:", file=sys.stderr,
        )
        for failure in harness.failed_cells:
            print(f"  {failure.describe()}", file=sys.stderr)
        return ExitCode.FAILED_CELLS
    return ExitCode.OK


if __name__ == "__main__":
    sys.exit(main())
