"""The three benchmark workloads.

A workload builds its inputs in :meth:`Workload.setup` (timed as set-up),
computes reference answers in :meth:`Workload.prepare` (not timed), and then
runs numbered units of work, which ``run.py`` drives in a closed loop.  Each
unit records its own timings into a :class:`Record` and checks every output
it produces.

* ``desk-cli``: generator instances through the in-process ``pcg`` CLI.
* ``insertion-affine``: bytes -> ``solve_insertion`` -> certified, past the
  generator's player cap.
* ``dynamics-affine``: bytes -> better-response descent and the layered
  construction -> certified, on larger instances.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Library functions are called through their modules, so that the tracer's
# wrappers, bound into the ``prioritygames`` namespaces, see these calls too.
from prioritygames import cli, congestion, dynamics, jsonio, markets, oracle, traceio
from prioritygames.congestion import State
from prioritygames.dynamics import CONVERGED, count_steps
from prioritygames.markets import MarketGame

from families import (
    BRUTE_CAP,
    DESK_CLASSES,
    DESK_PER_CLASS,
    DESK_REJECTS_PER_KIND,
    affine_document,
    canonical_bytes,
    desk_corpus,
)
from speed import SpeedProbe

PHASES = ("parse", "solve", "certify", "certified")

# Desk-scale better response takes a few dozen steps at most; the cap only
# bounds the time a non-converging instance would take before it fails.
BR_CAP = 5000


@dataclass
class Record:
    """Timings and correctness counts of one measured stretch of work.

    With a speed probe, each time is stored with the probe chunk it was
    measured in and read back scaled to reference-speed seconds.
    """

    probe: SpeedProbe | None = None
    phases: dict[int, dict[str, list[tuple[float, int]]]] = field(default_factory=dict)
    latencies: list[tuple[float, int]] = field(default_factory=list)  # per CLI call
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, dict] = field(default_factory=dict)

    def stamp(self, seconds: float) -> tuple[float, int]:
        return seconds, self.probe.chunk if self.probe else -1

    def seconds(self, stamped: tuple[float, int], scaled: bool = True) -> float:
        value, chunk = stamped
        return self.probe.scale(value, chunk) if scaled and self.probe else value

    def phase(self, unit: int, name: str, seconds: float) -> None:
        self.phases.setdefault(unit, {}).setdefault(name, []).append(self.stamp(seconds))

    def phases_of(self, unit: int, parse: float, solve: float, certify: float, total: float):
        for name, seconds in zip(PHASES, (parse, solve, certify, total)):
            self.phase(unit, name, seconds)

    def latency(self, seconds: float) -> None:
        self.latencies.append(self.stamp(seconds))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def digest(self, key: str, value: dict) -> None:
        """Keep the first digest per key; a later different one is a failure."""
        first = self.digests.setdefault(key, value)
        if first != value:
            self.check(False, f"{key}: output differs between repetitions")

    def call_latencies(self, scaled: bool = True) -> list[float]:
        """Seconds per call: every CLI call or, where a workload makes none,
        every unit's bytes-to-certified time (the median of its repetitions)."""
        if self.latencies:
            return [self.seconds(s, scaled) for s in self.latencies]
        return [
            statistics.median(self.seconds(s, scaled) for s in p["certified"])
            for p in self.phases.values()
        ]

    def phase_means(self, scaled: bool = True) -> dict[str, float]:
        """Per phase: the median over each unit's repetitions, averaged over units."""
        out = {}
        for name in PHASES:
            medians = [
                statistics.median(self.seconds(s, scaled) for s in p[name])
                for p in self.phases.values()
                if name in p
            ]
            out[name] = statistics.fmean(medians)
        return out


def sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def profile_text(state: State) -> str:
    return ";".join(f"{p}:{'+'.join(sorted(s))}" for p, s in state.items())


def step_counts(trace) -> dict[str, int]:
    by_phase: dict[str, int] = {}
    for phase, count in count_steps(trace).by_phase.items():
        key = "layer" if phase.startswith("layer:") else phase
        by_phase[key] = by_phase.get(key, 0) + count
    return dict(sorted(by_phase.items()))


def all_first_start(game) -> State:
    """The ``pcg solve --method br`` start: every player's first strategy."""
    return State({p: game.spaces[p].all_bases()[0] for p in game.players()})


def certify_run(rec: Record, label: str, game, final: State, trace, trace_path: Path):
    """Write the trace, certify it and check the final profile; returns the
    write and certify seconds."""
    t0 = perf_counter()
    traceio.write_trace_csv(trace, trace_path)
    t1 = perf_counter()
    report = oracle.certify_trace(game, trace)
    pne = congestion.is_pure_nash(game, final)
    t2 = perf_counter()
    rec.check(
        trace.status == CONVERGED and report.ok and pne,
        f"{label}: status={trace.status} certified={report.ok} pne={pne}",
    )
    rec.digest(
        label,
        {
            "trace_sha256": sha256(trace_path.read_bytes()),
            "profile_sha256": sha256(profile_text(final)),
            "steps": step_counts(trace),
        },
    )
    return t1 - t0, t2 - t1


class Workload:
    name = ""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference answers for the correctness checks; not timed."""

    def units(self) -> int:
        raise NotImplementedError

    def run_unit(self, k: int, rec: Record) -> None:
        raise NotImplementedError

    def cold_call_file(self) -> Path:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# desk-cli


class DeskCli(Workload):
    name = "desk-cli"

    def setup(self, seed: int) -> None:
        self.corpus = desk_corpus(seed)
        self.paths = []
        for inst in self.corpus.instances:
            path = self.workdir / f"{inst.name}.json"
            path.write_bytes(inst.data)
            self.paths.append(path)
        self.reject_paths = []
        for name, data in self.corpus.rejects:
            path = self.workdir / f"{name}.json"
            path.write_bytes(data)
            self.reject_paths.append(path)
        self.reference: dict[int, frozenset[State]] = {}

    def prepare(self) -> None:
        for k, inst in enumerate(self.corpus.instances):
            if "brute" in inst.methods:
                pnes = oracle.brute_force_pne(jsonio.parse_instance(inst.data))
                self.reference[k] = frozenset(pnes)

    def units(self) -> int:
        return len(self.corpus.instances) + len(self.reject_paths)

    def cold_call_file(self) -> Path:
        return self.paths[0]

    def describe(self) -> dict:
        methods: dict[str, int] = {}
        for inst in self.corpus.instances:
            for m in inst.methods:
                methods[m] = methods.get(m, 0) + 1
        return {
            "instances": len(self.corpus.instances),
            "classes": [list(c) for c in DESK_CLASSES],
            "per_class": DESK_PER_CLASS,
            "players": "3-8",
            "resources": "2-6",
            "brute_cap_profiles": BRUTE_CAP,
            "solves_by_method": methods,
            "rejects": len(self.reject_paths),
            "rejects_per_kind": DESK_REJECTS_PER_KIND,
        }

    def _call(self, rec: Record, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = cli.cli_main(argv)
            rec.latency(perf_counter() - t0)
        return code, out.getvalue()

    def run_unit(self, k: int, rec: Record) -> None:
        n_inst = len(self.corpus.instances)
        if k >= n_inst:
            path = self.reject_paths[k - n_inst]
            code, out = self._call(rec, ["validate", str(path), "--json"])
            rec.check(code == 1 and "error" in json.loads(out), f"{path.name}: exit {code}")
            return
        inst, path = self.corpus.instances[k], self.paths[k]
        reference = self.reference.get(k)
        traces = []
        for method in inst.methods:
            argv = ["solve", str(path), "--method", method, "--json", "--max-steps", str(BR_CAP)]
            if method != "brute":
                trace_path = self.workdir / f"{inst.name}.{method}.csv"
                argv += ["--trace", str(trace_path)]
                traces.append(trace_path)
            code, out = self._call(rec, argv)
            result = json.loads(out) if code == 0 else {}
            final = result.get("final")
            profile = State({int(p): s for p, s in final.items()}) if final else None
            rec.check(
                code == 0
                and result.get("status") == CONVERGED
                and result.get("pne") is True
                and (reference is None or profile in reference),
                f"{inst.name} solve {method}: exit {code} {out.strip()[:200]}",
            )
        for trace_path in traces:
            code, out = self._call(rec, ["verify", str(path), "--trace", str(trace_path), "--json"])
            rec.check(code == 0, f"{inst.name} verify {trace_path.name}: exit {code}")
        self._pipeline(k, inst, rec)

    def _pipeline(self, k: int, inst, rec: Record) -> None:
        """The library path under the CLI: bytes -> br -> certified.  As in
        ``pcg solve``, a market is embedded as a player-specific game, which
        counts as parsing."""
        t0 = perf_counter()
        parsed = jsonio.parse_instance(inst.data)
        market = isinstance(parsed, MarketGame)
        game = markets.reduce_market_to_playerspecific(parsed) if market else parsed
        t1 = perf_counter()
        final, trace = dynamics.run_dynamics(game, all_first_start(game), cap=BR_CAP)
        t2 = perf_counter()
        write_s, certify_s = certify_run(
            rec, f"{inst.name}.br", game, final, trace, self.workdir / f"{inst.name}.api.csv"
        )
        if market:
            t3 = perf_counter()
            ok = markets.market_is_pure_nash(parsed, final)
            certify_s += perf_counter() - t3
            rec.check(ok, f"{inst.name}: br profile is not a market equilibrium")
        rec.phases_of(k, t1 - t0, t2 - t1, certify_s, t2 - t0 + write_s + certify_s)


# ---------------------------------------------------------------------------
# Scale workloads


class AffineScale(Workload):
    """Affine singleton games past the generator's player cap."""

    players = resources = instances = 0

    def setup(self, seed: int) -> None:
        self.data = self.build(seed)
        self.cold = self.workdir / "cold.json"
        self.cold.write_bytes(canonical_bytes(affine_document(seed, 8, 4, consistent=False)))

    def build(self, seed: int) -> list:
        raise NotImplementedError

    def document(self, seed: int, k: int, consistent: bool) -> bytes:
        return canonical_bytes(
            affine_document(seed * 1000 + k, self.players, self.resources, consistent=consistent)
        )

    def units(self) -> int:
        return self.instances

    def cold_call_file(self) -> Path:
        return self.cold


class InsertionAffine(AffineScale):
    name = "insertion-affine"
    players, resources, instances = 32, 8, 10

    def build(self, seed: int) -> list[bytes]:
        return [self.document(seed, k, False) for k in range(self.instances)]

    def describe(self) -> dict:
        return {
            "instances": self.instances,
            "players": self.players,
            "resources": self.resources,
            "priority_levels": 3,
            "priorities": "per_resource",
            "allowed_per_player": "2-4",
        }

    def run_unit(self, k: int, rec: Record) -> None:
        t0 = perf_counter()
        game = jsonio.parse_instance(self.data[k])
        t1 = perf_counter()
        final, trace = dynamics.solve_insertion(game)
        t2 = perf_counter()
        name = f"i{k}.insertion"
        path = self.workdir / f"{name}.csv"
        write_s, certify_s = certify_run(rec, name, game, final, trace, path)
        rec.phases_of(k, t1 - t0, t2 - t1, certify_s, t2 - t0 + write_s + certify_s)


class DynamicsAffine(AffineScale):
    name = "dynamics-affine"
    players, resources, instances = 32, 8, 10

    def build(self, seed: int) -> list[tuple[bytes, bytes]]:
        return [
            (self.document(seed, k, False), self.document(seed, k, True))
            for k in range(self.instances)
        ]

    def describe(self) -> dict:
        return {
            "instance_pairs": self.instances,
            "players": self.players,
            "resources": self.resources,
            "priority_levels": 3,
            "pair": "one per_resource priority document, one consistent affine document",
            "runs_per_pair": "br roundrobin and best on both, layered on the consistent one",
        }

    def run_unit(self, k: int, rec: Record) -> None:
        parse_s = solve_s = write_total = certify_total = 0.0
        for kind, data in zip(("per_resource", "consistent"), self.data[k]):
            t0 = perf_counter()
            game = jsonio.parse_instance(data)
            parse_s += perf_counter() - t0
            start = all_first_start(game)
            runs = [
                (policy, lambda p=policy: dynamics.run_dynamics(game, start, policy=p))
                for policy in ("roundrobin", "best")
            ]
            if kind == "consistent":
                runs.append(("layered", lambda: dynamics.solve_consistent_layered(game)))
            for label, solve in runs:
                t0 = perf_counter()
                final, trace = solve()
                solve_s += perf_counter() - t0
                name = f"d{k}.{kind}.{label}"
                path = self.workdir / f"{name}.csv"
                write_s, certify_s = certify_run(rec, name, game, final, trace, path)
                write_total += write_s
                certify_total += certify_s
        total = parse_s + solve_s + write_total + certify_total
        rec.phases_of(k, parse_s, solve_s, certify_total, total)


WORKLOADS = {w.name: w for w in (DeskCli, InsertionAffine, DynamicsAffine)}
