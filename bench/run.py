"""Benchmark of the prioritygames library and its ``pcg`` command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-cli --seed 0 --seconds 25 --trace 0

The workload's inputs are built from ``--seed``; the library only sees
them as JSON bytes.  With ``--trace 0`` a single client runs the workload
in a closed loop for ``--seconds`` and the run reports the end-to-end
metrics.  With ``--trace 1`` it runs every unit of the inputs once without
tracing and once with the per-layer tracer installed, and reports per-layer
counts and self times plus the tracing overhead.  Either way every output
is checked, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Details (sample
counts, trace and profile digests, per-instance timings) go to
``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

SETUP_REPS = 3  # set-up is repeated and its median reported
PROBE_EVERY_S = 0.5  # speed-probe spacing in the measured loop
COLD_CALLS = 11  # fresh-process `pcg validate` calls, after one warm-up
COLD_CALL = "import sys; from prioritygames.cli import main; sys.argv[0] = 'pcg'; main()"


def _import_library() -> float:
    """Import the checkout's library; returns the seconds it took."""
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import prioritygames
    import prioritygames.cli  # noqa: F401  (the CLI is part of what users import)

    if not Path(prioritygames.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"prioritygames comes from {prioritygames.__file__}, not {ROOT / 'src'}")
    return perf_counter() - t0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def cold_calls(path: Path, rec) -> list[tuple[float, int]]:
    """Fresh-process ``pcg validate`` calls, each in its own probe chunk."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", COLD_CALL, "validate", str(path), "--json"]
    samples = []
    for k in range(COLD_CALLS + 1):
        rec.probe.sample()
        t0 = perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=60)
        elapsed = perf_counter() - t0
        if k:
            samples.append(rec.stamp(elapsed))
            rec.check(done.returncode == 0, f"cold validate {path.name}: exit {done.returncode}")
    rec.probe.sample()
    return samples


def timed_run(workload, seconds: float, rec) -> dict:
    """Closed loop over the units until ``seconds`` have passed (at least one
    pass), sampling the speed probe between units at most PROBE_EVERY_S apart
    (or after every unit, when units take longer)."""
    units = workload.units()
    rec.probe.sample()
    start = last_probe = perf_counter()
    done = 0
    while done < units or perf_counter() - start < seconds:
        workload.run_unit(done % units, rec)
        done += 1
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            rec.probe.sample()
            last_probe = perf_counter()
    rec.probe.sample()
    return {"units_run": done, "passes": done / units, "loop_s": perf_counter() - start}


def traced_run(workload, rec_plain, rec_traced, tracing) -> tuple[dict, object]:
    """Every unit once untraced and then once traced, alternating, so that
    both passes see the same host conditions."""
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    for k in range(workload.units()):
        t0 = perf_counter()
        workload.run_unit(k, rec_plain)
        untraced += perf_counter() - t0
        tracer.op = k
        tracer.install()
        try:
            t0 = perf_counter()
            workload.run_unit(k, rec_traced)
            traced += perf_counter() - t0
        finally:
            tracer.uninstall()
    return {"untraced_wall_s": untraced, "traced_wall_s": traced}, tracer


def end_to_end_metrics(rec, import_s, setup, cold, scaled: bool = True) -> dict:
    """With ``scaled``, times are reference-speed seconds (see speed.py)."""
    phases = rec.phase_means(scaled)
    lat = sorted(rec.call_latencies(scaled))
    # the import ran just before the first probe sample, so chunk 0 scales it
    setup_s = rec.seconds((import_s, 0), scaled) + statistics.median(
        rec.seconds(s, scaled) for s in setup
    )
    cold_s = statistics.median(rec.seconds(s, scaled) for s in cold)
    values = {
        "setup_s": (setup_s, "s"),
        "parse_s": (phases["parse"], "s"),
        "solve_s": (phases["solve"], "s"),
        "certify_s": (phases["certify"], "s"),
        "certified_s": (phases["certified"], "s"),
        "calls_per_s": (len(lat) / sum(lat), "1/s"),
        "call_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "call_p99_ms": (percentile(lat, 0.99) * 1e3, "ms"),
        "cold_call_ms": (cold_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((rec.attempted - rec.failed) / rec.attempted, "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def layer_metrics(tracer, walls: dict) -> dict:
    raw = tracer.layer_metrics()
    rows = sum(raw[k] for k in raw if k.startswith("dynamics.steps."))
    br_calls = raw["dynamics.best_response.calls"]
    tol_calls = raw["potentials.tol_value.calls"]
    derived = {
        "dynamics.br_move_ratio": (tracer.br_moves / br_calls if br_calls else 0.0, "ratio"),
        "potentials.tol_calls_per_row": (tol_calls / rows if rows else 0.0, "ratio"),
        "trace.untraced_wall_s": (walls["untraced_wall_s"], "s"),
        "trace.traced_wall_s": (walls["traced_wall_s"], "s"),
        "trace.overhead_ratio": (walls["traced_wall_s"] / walls["untraced_wall_s"] - 1, "ratio"),
    }
    out = {}
    for name, value in sorted(raw.items()):
        unit = "s" if name.endswith("_s") else "count"
        out[name] = {"value": value, "unit": unit}
    for name, (value, unit) in derived.items():
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Probe and measured work share one CPU, and so do the cold-call children.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])

    try:
        import_s = _import_library()
    except ImportError as exc:
        print(f"bench: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    from speed import SpeedProbe

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        rec = workloads.Record(probe=SpeedProbe())
        setup = []
        for _ in range(SETUP_REPS):
            rec.probe.sample()
            t0 = perf_counter()
            workload.setup(args.seed)
            setup.append(rec.stamp(perf_counter() - t0))
        rec.probe.sample()
        workload.prepare()

        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "inputs": workload.describe(),
            "import_s": import_s,
            "setup_samples_s": [s for s, _ in setup],
        }
        if args.trace:
            rec, rec_traced = workloads.Record(), workloads.Record()
            walls, tracer = traced_run(workload, rec, rec_traced, tracing)
            rec.attempted += rec_traced.attempted
            rec.failed += rec_traced.failed
            rec.failures += rec_traced.failures
            rec.check(rec.digests == rec_traced.digests, "traced and untraced digests differ")
            metrics = layer_metrics(tracer, walls)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write_spans(spans)
            detail["spans_file"] = str(spans.relative_to(ROOT))
            detail["spans"] = len(tracer.span_name)
        else:
            detail.update(timed_run(workload, args.seconds, rec))
            cold = cold_calls(workload.cold_call_file(), rec)
            metrics = end_to_end_metrics(rec, import_s, setup, cold)
            detail["unscaled_metrics"] = end_to_end_metrics(rec, import_s, setup, cold, False)
            detail["probe_samples_s"] = rec.probe.samples
            detail["call_samples"] = len(rec.call_latencies())
            detail["cold_call_samples_s"] = [s for s, _ in cold]
            detail["per_unit_phase_samples_s"] = {
                str(k): {name: [s for s, _ in v] for name, v in p.items()}
                for k, p in rec.phases.items()
            }
        detail["digests"] = rec.digests
        detail["failures"] = rec.failures
        detail["metrics"] = metrics
        report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        report.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in rec.failures:
        print(f"# FAILED: {failure}")
    print(f"# details: {report.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": rec.failed == 0,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
