"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table2-serial --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes one plain and one traced pass and prints the
per-layer metrics.  The work of a run is fixed by the workload and the
seed, so ``--seconds`` does not change it.  Host times are reported in
reference seconds (``helpers.HostSpeed``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when the outputs are correct, 3 when a
check failed, 2 when the program under test is missing.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import helpers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spec_metrics(kind):
    """(name, unit) of every metric of one kind in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def write_digests(args, digests):
    """The run's cell digests, in the form ``refs/<workload>.json``
    keeps per seed."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"digests-{args.workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({str(args.seed): digests}, handle, indent=1,
                  sort_keys=True)


def peak_rss_mb():
    """Peak RSS of this process or its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def to_reference(metrics, scale):
    """``metrics`` with every per-layer time (unit ``s`` or ``us``)
    taken from host to reference seconds."""
    units = dict(spec_metrics("per_layer"))
    return {name: value * scale if units.get(name) in ("s", "us") else value
            for name, value in metrics.items()}


def untraced(workload, args, scratch, speed):
    with speed.during():
        ctx = workload.setup(args.seed, scratch)
    setup_s = time.perf_counter() - _STARTED - speed.spent
    scale = speed.scale(0, speed.sample())
    print(f"set-up: {setup_s:.3f} host s, scale {scale:.4f}")
    setup_s *= scale
    try:
        result = workload.measure(ctx, speed)
    finally:
        workload.teardown(ctx)
    metrics = dict(result.metrics)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb()
    return result, metrics


def traced(workload, args, scratch, speed):
    from repro.obs.observer import Instrumentation

    import tracing

    ctx = workload.setup(args.seed, scratch)
    speed.sample()
    try:
        plain = workload.measure(ctx, speed)
    finally:
        workload.teardown(ctx)

    recorder = tracing.SpanRecorder()
    instrumentation = Instrumentation(profile=True, cpi_stacks=False)
    opened = speed.sample()
    with tracing.traced(recorder, instrumentation):
        with speed.during():
            ctx = workload.setup(args.seed, scratch, recorder)
        speed.sample()
        try:
            spans = workload.measure(ctx, speed, recorder)
        finally:
            workload.teardown(ctx)
    scale = speed.scale(opened)
    lengths = {name: len(ctx["ws"].trace(name))
               for _, name, _ in instrumentation.runs}

    os.makedirs(OUT, exist_ok=True)
    recorder.write(os.path.join(
        OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"
    ))
    metrics = dict.fromkeys(tracing.SERVICE_METRICS, 0.0)
    metrics.update(to_reference(tracing.span_metrics(
        recorder, getattr(workload, "driver_span", None)
    ), scale))
    metrics.update(to_reference(
        tracing.profile_metrics(instrumentation, lengths), scale
    ))
    metrics.update(tracing.telemetry_metrics(
        plain.cells, plain.jobs, plain.grid_wall_s
    ))
    metrics.update(spans.layer)
    metrics["obs.tracing_overhead"] = (
        (spans.wall_s / spans.ops) / (plain.wall_s / plain.ops)
    )
    if spans.jobs != plain.jobs:
        print(f"note: the traced pass ran cells with jobs={spans.jobs}, "
              f"the plain pass with jobs={plain.jobs}; profilers inside "
              f"forked pool workers do not reach the parent")
    for name, result in (("plain", plain), ("traced", spans)):
        result.notes.pop("digests")
        print(f"{name} pass: {result.ops} operations in "
              f"{result.wall_s:.2f} reference s, {result.notes}")
    statuses = plain.statuses + spans.statuses
    return statuses, metrics


def main(argv=None):
    args = parse_args(argv)
    speed = helpers.HostSpeed()
    speed.sample()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the repro package from {src}: "
              f"{error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2

    import scenarios

    try:
        workload = scenarios.WORKLOADS[args.workload]()
    except KeyError:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(scenarios.WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    kind = "per_layer" if args.trace else "end_to_end"
    try:
        if args.trace:
            statuses, metrics = traced(workload, args, scratch, speed)
        else:
            result, metrics = untraced(workload, args, scratch, speed)
            statuses = result.statuses
            write_digests(args, result.notes.pop("digests"))
            print(f"{args.workload} seed {args.seed}: {result.ops} "
                  f"operations in {result.wall_s:.2f} reference s, "
                  f"{result.notes}")
    except Exception:
        # A run that breaks still reports, as one failed operation.
        traceback.print_exc()
        statuses, metrics = ["crashed"], {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"host speed: mean chunk {speed.chunk_s() * 1e3:.3f} ms over "
          f"the run, reference {helpers.REFERENCE_CHUNK_S * 1e3:.3f} ms; "
          f"{speed.spent:.2f} s spent calibrating")

    attempted, failed, reasons = helpers.tally(statuses)
    if reasons:
        print(f"failed operations by reason: {reasons}")
    missing = [name for name, _ in spec_metrics(kind)
               if metrics.get(name) is None]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
    report = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in spec_metrics(kind) if name not in missing
        },
    }
    print(json.dumps(report))
    return 0 if report["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())
