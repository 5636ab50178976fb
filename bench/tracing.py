"""Per-layer tracing installed from outside the library.

The library is not instrumented.  :class:`Tracer` replaces selected public
functions of ``prioritygames`` modules with thin wrappers that record one
span per call (name, parent span, operation id, start, end), and replaces a
few hot methods with plain counters.  Modules import each other with
``from .x import f``, so a wrapper is bound into every ``prioritygames.*``
namespace that holds the original function, and removed again by
:meth:`Tracer.uninstall`.

Spans stay in memory during the run.  :meth:`Tracer.layer_metrics` folds
them into per-layer call counts and self times (a span's duration minus the
part of it covered by its child spans), and :meth:`Tracer.write_spans`
writes them out once the measured work is over.  Everything is
single-threaded, so a plain stack tracks the parent span.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

# (module, function): one span per call, reported as <module>.<fn>.calls|self_s
SPANNED = (
    ("jsonio", "parse_instance"),
    ("core", "validate_delay_properties"),
    ("congestion", "congestion_view"),
    ("congestion", "entry_weights"),
    ("congestion", "player_cost"),
    ("congestion", "has_better_response"),
    ("congestion", "is_pure_nash"),
    ("matroids", "greedy_min_base"),
    ("dynamics", "best_response"),
    ("dynamics", "run_dynamics"),
    ("dynamics", "solve_consistent_layered"),
    ("dynamics", "solve_insertion"),
    ("potentials", "insertion_potential"),
    ("potentials", "tol_value"),
    ("potentials", "lex_potential_singleton"),
    ("potentials", "level_potential"),
    ("oracle", "certify_trace"),
    ("oracle", "brute_force_pne"),
    ("traceio", "write_trace_csv"),
    ("traceio", "read_trace_csv"),
    ("markets", "reduce_market_to_playerspecific"),
    ("markets", "market_is_pure_nash"),
)

CLI_VERBS = ("solve", "verify", "validate")

# solver results are (state, trace); their rows are tallied per phase
SOLVERS = ("dynamics.run_dynamics", "dynamics.solve_insertion", "dynamics.solve_consistent_layered")
STEP_PHASES = ("insert", "discard", "rebalance", "br", "layer")

# (module, class, method, counter name): counted, not spanned (too hot)
COUNTED = (
    ("core", "TableDelay", "value", "core.spec_value_evals"),
    ("core", "AffineDelay", "value", "core.spec_value_evals"),
    ("core", "ClassicDelay", "value", "core.spec_value_evals"),
    ("congestion", "State", "__init__", "congestion.state_constructions"),
    ("costs", "ExtCost", "__init__", "costs.extcost_created"),
    ("oracle", "EnumerationBudget", "tick", "oracle.profiles_enumerated"),
)

PACKAGE = "prioritygames"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {name: 0 for *_, name in COUNTED}
        self.counts.update({f"dynamics.steps.{p}": 0 for p in STEP_PHASES})
        self.br_moves = 0
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, fn_name in SPANNED:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            self._rebind(modules, original, self._wrap(f"{mod_name}.{fn_name}", original))
        cli_main = sys.modules[f"{PACKAGE}.cli"].cli_main
        self._rebind(modules, cli_main, self._wrap_cli(cli_main))
        for mod_name, cls_name, method, counter in COUNTED:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._counting(counter, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _enter(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        enter, stack = self._enter, self._stack
        starts, ends, clock = self.span_start, self.span_end, time.perf_counter
        is_best_response = name == "dynamics.best_response"
        is_solver = name in SOLVERS
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = enter(name_id)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if is_best_response and result != args[1].strategy(args[2]):
                self.br_moves += 1
            if is_solver:
                for step in result[1].steps:
                    counts["dynamics.steps." + step.phase.split(":")[0]] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_cli(self, fn):
        per_verb = {verb: self._wrap(f"cli.cli_main.{verb}", fn) for verb in CLI_VERBS}

        def cli_main(argv):
            return per_verb[argv[0]](argv)

        cli_main.__wrapped__ = fn
        return cli_main

    def _counting(self, counter: str, method):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return method(*args, **kwargs)

        return counted

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_s`` per spanned name, plus counts."""
        n = len(self.span_name)
        child = [0.0] * n
        for idx in range(n):
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for idx in range(n):
            name_id = self.span_name[idx]
            calls[name_id] += 1
            self_s[name_id] += self.span_end[idx] - self.span_start[idx] - child[idx]
        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.self_s"] = self_s[name_id]
        out.update(self.counts)
        return out

    def write_spans(self, path: Path) -> None:
        """One CSV line per span: op, name, parent index, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index,op,name,parent,start,end\n")
            for idx in range(len(self.span_name)):
                fh.write(
                    f"{idx},{self.span_op[idx]},{self.names[self.span_name[idx]]},"
                    f"{self.span_parent[idx]},{self.span_start[idx]!r},{self.span_end[idx]!r}\n"
                )
