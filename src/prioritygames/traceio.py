"""CSV serialization for solver traces.

One row per recorded step under the fixed header
``step,phase,player,from,to,cost_before,cost_after,potential``.  Strategy
cells join resource ids with ``+``; empty cells encode "unplaced" (from) and
"discarded" (to); costs are ``p/q`` / ``inf`` strings and the potential
column is an opaque canonical string, so the schema is solver-independent.

The initial state is written as ``start`` rows (one per already-placed
player); a run cut off by its step cap appends a single ``cap`` row.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .congestion import State
from .costs import ExtCost
from .dynamics import CAP_REACHED, CONVERGED, PHASES, MoveTrace, TraceStep, layer_level, opens_round
from .errors import ParseError
from .jsonio import is_canonical_player_key

HEADER = ["step", "phase", "player", "from", "to", "cost_before", "cost_after", "potential"]


def _strategy_cell(s: frozenset[str] | None) -> str:
    return "" if s is None else "+".join(sorted(s))


def _cost_cell(c: ExtCost | None) -> str:
    return "" if c is None else c.to_string()


def trace_to_rows(trace: MoveTrace) -> list[list[str]]:
    rows: list[list[str]] = []
    counter = 0
    for player, strategy in trace.start.items():
        rows.append([str(counter), "start", str(player), "", _strategy_cell(strategy), "", "", ""])
        counter += 1
    for step in trace.steps:
        rows.append(
            [
                str(counter),
                step.phase,
                str(step.player),
                _strategy_cell(step.frm),
                _strategy_cell(step.to),
                _cost_cell(step.cost_before),
                _cost_cell(step.cost_after),
                step.potential,
            ]
        )
        counter += 1
    if trace.status == CAP_REACHED:
        rows.append([str(counter), "cap", "", "", "", "", "", ""])
    return rows


def write_trace_csv(trace: MoveTrace, target) -> None:
    """Write to a path or text file object."""
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_trace_csv(trace, fh)
        return
    writer = csv.writer(target)
    writer.writerow(HEADER)
    writer.writerows(trace_to_rows(trace))


def trace_to_csv_text(trace: MoveTrace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()


def _parse_strategy(cell: str) -> frozenset[str] | None:
    return None if cell == "" else frozenset(cell.split("+"))


def _player(cell: str) -> int:
    # the instance-file key rule: "01" would name player 1 a second way
    if not is_canonical_player_key(cell):
        raise ValueError(
            f"player ids are ASCII decimal strings with no leading zero, got {cell!r}"
        )
    return int(cell)


def _parse_cost(cell: str) -> ExtCost | None:
    return None if cell == "" else ExtCost.of(cell)


def read_trace_csv(source) -> MoveTrace:
    """Rebuild a trace from CSV; the kind is inferred from the phases.

    Besides ``start`` and ``cap``, a row's phase is one of ``br``,
    ``insert``, ``discard``, ``rebalance`` or ``layer:<level>``, the level
    a decimal >= 1 with no leading zero; any other phase is a ParseError
    naming its line.  So is a ``step`` cell other than the row's 0-based
    position in ASCII decimal, as the writer numbers rows, a second
    ``start`` row for one player, a ``start`` row after a step row, and
    any row after the ``cap`` row, which closes a capped run.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="", encoding="utf-8") as fh:
            return read_trace_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty trace file") from None
    if header != HEADER:
        raise ParseError(f"unexpected trace header {header!r}")

    start: dict[int, frozenset[str]] = {}
    steps: list[TraceStep] = []
    status = CONVERGED
    round_no = -1
    seen_phases: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(HEADER):
            raise ParseError(f"line {lineno}: expected {len(HEADER)} cells")
        step, phase, player, frm, to, cost_b, cost_a, potential = row
        if step != str(lineno - 2):
            raise ParseError(f"line {lineno}: step {step!r} is not the row's position {lineno - 2}")
        if status == CAP_REACHED:
            raise ParseError(f"line {lineno}: a row after the cap row")
        if phase == "start":
            if steps:
                raise ParseError(f"line {lineno}: a start row after a step row")
            strategy = _parse_strategy(to)
            if strategy is None:
                raise ParseError(f"line {lineno}: start rows need a strategy")
            try:
                placed = _player(player)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if placed in start:
                raise ParseError(f"line {lineno}: a second start row for player {placed}")
            start[placed] = strategy
            continue
        if phase == "cap":
            status = CAP_REACHED
            continue
        if phase not in PHASES and layer_level(phase) is None:
            raise ParseError(f"line {lineno}: unknown phase {phase!r}")
        seen_phases.add(phase)
        # lazy-swap grouping is not recoverable from CSV, which only affects
        # round numbering cosmetically
        if opens_round(phase) or not steps:
            round_no += 1
        try:
            steps.append(
                TraceStep(
                    index=len(steps),
                    round=round_no,
                    phase=phase,
                    player=_player(player),
                    frm=_parse_strategy(frm),
                    to=_parse_strategy(to),
                    cost_before=_parse_cost(cost_b),
                    cost_after=_parse_cost(cost_a),
                    potential=potential,
                )
            )
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None

    if any(p in ("insert", "discard", "rebalance") for p in seen_phases):
        kind = "insertion"
    elif any(p.startswith("layer:") for p in seen_phases):
        kind = "layered"
    else:
        kind = "br"
    trace = MoveTrace(kind=kind, start=State(start), steps=steps, status=status)
    trace.final = _replay_final(trace)
    return trace


def _replay_final(trace: MoveTrace) -> State:
    state = trace.start
    for step in trace.steps:
        if step.to is None:
            state = state.without_player(step.player)
        else:
            state = state.with_player(step.player, step.to)
    return state
