"""Summarize benchmark runs into ``bench/baseline.json``, or check digests.

After running ``bench/run.py`` for a set of seeds (their reports land in
``.bench_out/``), from the root of the checkout:

    python3 bench/baseline.py write --seeds 0-9 --trace-seed 0
    python3 bench/baseline.py check

``write`` records, per workload, the inputs, the median and quartiles of
every end-to-end metric over the seeds (and the median in unscaled host
seconds), the traced run's per-layer numbers and tracing overhead, and the
trace and final-profile digests of every scale instance.  ``check`` compares the digests of the reports now in
``.bench_out/`` with the recorded ones, so a change can show that its
traces stay byte-identical; it exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
BASELINE = HERE / "baseline.json"
SCALE = ("insertion-affine", "dynamics-affine")


def _report(workload: str, seed: int, trace: int) -> dict | None:
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text()) if path.exists() else None


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def write(seeds: list[int], trace_seed: int) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    baseline["run_seconds"] = spec["run_seconds"]
    workloads = baseline.setdefault("workloads", {})
    for entry in spec["workloads"]:
        name = entry["name"]
        reports = [r for s in seeds if (r := _report(name, s, 0))]
        if not reports:
            continue
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in reports]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            summary[metric["name"]] = {
                "unit": metric["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "iqr_over_median": (q3 - q1) / median if median else 0.0,
            }
        record = {
            "why": entry["why"],
            "inputs": reports[0]["inputs"],
            "seeds": [r["seed"] for r in reports],
            "end_to_end": summary,
            "unscaled_medians": {
                name: statistics.median(r["unscaled_metrics"][name]["value"] for r in reports)
                for name in summary
            },
        }
        traced = _report(name, trace_seed, 1)
        if traced:
            layers = traced["metrics"]
            record["traced_seed"] = trace_seed
            record["tracing_overhead"] = {
                k: layers[f"trace.{k}"]["value"]
                for k in ("untraced_wall_s", "traced_wall_s", "overhead_ratio")
            }
            record["per_layer"] = {k: v["value"] for k, v in layers.items()}
        if name in SCALE:
            record["digests"] = {str(r["seed"]): r["digests"] for r in reports}
        workloads[name] = record
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


def check() -> int:
    baseline = json.loads(BASELINE.read_text())
    compared = differ = 0
    for name in SCALE:
        for seed, recorded in baseline["workloads"].get(name, {}).get("digests", {}).items():
            for trace in (0, 1):
                report = _report(name, int(seed), trace)
                if report is None:
                    continue
                compared += 1
                if report["digests"] != recorded:
                    differ += 1
                    print(f"{name} seed {seed} trace {trace}: digests differ")
    print(f"{compared} reports compared, {differ} differ")
    return 1 if differ or not compared else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write")
    w.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-9")
    w.add_argument("--trace-seed", type=int, default=0)
    sub.add_parser("check")
    args = parser.parse_args(argv)
    if args.cmd == "write":
        write(args.seeds, args.trace_seed)
        return 0
    return check()


if __name__ == "__main__":
    sys.exit(main())
