"""Tests of the benchmark itself (not part of the library's suite).

Run from the root of the checkout:  python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import pytest  # noqa: E402

import families  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from prioritygames import congestion, dynamics, jsonio, potentials  # noqa: E402
from prioritygames.core import AffineDelay, Game  # noqa: E402
from prioritygames.costs import ExtCost  # noqa: E402


@pytest.mark.parametrize("consistent", [False, True])
def test_affine_builder_is_deterministic_and_parses(consistent):
    a = families.canonical_bytes(families.affine_document(7, 24, 6, consistent=consistent))
    b = families.canonical_bytes(families.affine_document(7, 24, 6, consistent=consistent))
    c = families.canonical_bytes(families.affine_document(8, 24, 6, consistent=consistent))
    assert a == b and a != c
    game = jsonio.parse_instance(a)
    assert isinstance(game, Game)
    assert game.n_players == 24 and len(game.resources) == 6
    assert game.is_singleton_game()
    assert game.priorities.consistent == consistent
    assert all(isinstance(spec, AffineDelay) for spec in game.delays.values())


def test_desk_corpus_is_deterministic_and_rejects_are_invalid(tmp_path):
    a, b = families.desk_corpus(3), families.desk_corpus(3)
    assert a == b
    assert len(a.instances) == len(families.DESK_CLASSES) * families.DESK_PER_CLASS
    assert all("br" in inst.methods for inst in a.instances)
    desk = workloads.DeskCli(tmp_path)
    desk.setup(3)
    rec = workloads.Record()
    n = len(a.instances)
    for k in range(n, desk.units()):
        desk.run_unit(k, rec)
    assert rec.attempted == len(a.rejects) and rec.failed == 0


def small(cls, tmp_path, **sizes):
    workload = cls(tmp_path)
    for key, value in sizes.items():
        setattr(workload, key, value)
    workload.setup(5)
    workload.prepare()
    return workload


def traced_pass(workload):
    plain, traced = workloads.Record(), workloads.Record()
    _, tracer = run.traced_run(workload, plain, traced, tracing)
    return plain, traced, tracer


def counts_only(tracer) -> dict:
    return {k: v for k, v in tracer.layer_metrics().items() if not k.endswith("self_s")}


def test_traced_and_untraced_runs_give_identical_digests(tmp_path):
    workload = small(workloads.InsertionAffine, tmp_path, players=14, instances=2)
    plain, traced, tracer = traced_pass(workload)
    assert plain.digests and plain.digests == traced.digests
    assert plain.failed == traced.failed == 0
    assert tracer.layer_metrics()["potentials.insertion_potential.calls"] > 0


def test_layer_counts_repeat_exactly(tmp_path):
    workload = small(workloads.DynamicsAffine, tmp_path, players=12, instances=1)
    first = counts_only(traced_pass(workload)[2])
    second = counts_only(traced_pass(workload)[2])
    assert first == second
    assert first["dynamics.best_response.calls"] > 0
    # full-profile descent never touches the insertion potential
    assert first["potentials.insertion_potential.calls"] == 0
    assert first["potentials.tol_value.calls"] == 0
    assert first["dynamics.steps.insert"] == first["dynamics.steps.discard"] == 0


def test_tracer_uninstall_restores_the_library(tmp_path):
    originals = (
        congestion.congestion_view,
        potentials.congestion_view,
        dynamics.entry_weights,
        jsonio.parse_instance,
        ExtCost.__init__,
        AffineDelay.value,
    )
    tracer = tracing.Tracer().install()
    try:
        assert potentials.congestion_view is not originals[1]
        assert potentials.congestion_view is congestion.congestion_view
    finally:
        tracer.uninstall()
    assert (
        congestion.congestion_view,
        potentials.congestion_view,
        dynamics.entry_weights,
        jsonio.parse_instance,
        ExtCost.__init__,
        AffineDelay.value,
    ) == originals


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer._wrap("outer", lambda: inner())
    inner = tracer._wrap("inner", lambda: sum(range(20000)))
    outer()
    metrics = tracer.layer_metrics()
    assert metrics["outer.calls"] == metrics["inner.calls"] == 1
    total = tracer.span_end[0] - tracer.span_start[0]
    assert metrics["outer.self_s"] + metrics["inner.self_s"] == pytest.approx(total)
    assert tracer.span_parent[1] == 0
