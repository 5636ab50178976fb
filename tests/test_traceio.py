import io
import re
from pathlib import Path

import pytest

import prioritygames as pg
from conftest import gen_game
from prioritygames.cli import cli_main
from prioritygames.jsonio import emit_instance, parse_instance
from prioritygames.traceio import read_trace_csv, trace_to_csv_text, write_trace_csv

REBALANCE_FIXTURE = Path(__file__).parent / "data" / "rebalance_n6.json"


def test_header_and_shape(t1):
    _, trace = pg.solve_insertion(t1)
    text = trace_to_csv_text(trace)
    lines = text.strip().splitlines()
    assert lines[0] == "step,phase,player,from,to,cost_before,cost_after,potential"
    assert len(lines) == 1 + len(trace.steps)  # empty start state, no cap row


def test_round_trip_insertion(t1):
    final, trace = pg.solve_insertion(t1)
    back = read_trace_csv(io.StringIO(trace_to_csv_text(trace)))
    assert back.kind == "insertion"
    assert back.start == trace.start
    assert back.final == final
    assert [(s.phase, s.player, s.frm, s.to) for s in back.steps] == [
        (s.phase, s.player, s.frm, s.to) for s in trace.steps
    ]
    assert pg.certify_trace(t1, back).ok


def test_round_trip_br_with_start_rows(t1):
    start = pg.profile({1: "a", 2: "a"})
    _, trace = pg.run_dynamics(t1, start)
    back = read_trace_csv(io.StringIO(trace_to_csv_text(trace)))
    assert back.kind == "br"
    assert back.start == start
    assert pg.certify_trace(t1, back).ok


def test_cap_row_round_trip(t1):
    _, trace = pg.run_dynamics(t1, pg.profile({1: "a", 2: "a"}), cap=0)
    text = trace_to_csv_text(trace)
    assert ",cap," in text
    back = read_trace_csv(io.StringIO(text))
    assert back.status == "CapReached"


def test_layered_kind_inferred():
    game = gen_game(61, players=3, resources=3, space_kind="singleton", consistent=True)
    _, trace = pg.solve_consistent_layered(game)
    back = read_trace_csv(io.StringIO(trace_to_csv_text(trace)))
    assert back.kind == "layered"
    assert pg.certify_trace(game, back).ok


def test_file_round_trip(tmp_path, t1):
    _, trace = pg.solve_insertion(t1)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert back.final == trace.final


def test_bad_header_rejected():
    with pytest.raises(pg.ParseError):
        read_trace_csv(io.StringIO("a,b,c\n1,2,3\n"))
    with pytest.raises(pg.ParseError):
        read_trace_csv(io.StringIO(""))


@pytest.mark.parametrize("row", ["0,start,x,,a,,,", "0,insert,x,,a,,1/1,"])
def test_non_integer_player_is_parse_error(row):
    text = "step,phase,player,from,to,cost_before,cost_after,potential\n" + row + "\n"
    with pytest.raises(pg.ParseError, match="line 2"):
        read_trace_csv(io.StringIO(text))


@pytest.mark.parametrize(
    "phase", ["layer:x", "layer:", "layer:-1", "layer:01", "layer:0", "move", "Br", ""]
)
def test_unknown_phase_is_parse_error(phase):
    text = "step,phase,player,from,to,cost_before,cost_after,potential\n"
    text += "0,start,1,,a,,,\n" + f"1,{phase},1,a,b,1/1,0/1,\n"
    with pytest.raises(pg.ParseError, match="line 3"):
        read_trace_csv(io.StringIO(text))


@pytest.mark.parametrize("cell", ["١", "1_0", " 1", "-1", ""])
@pytest.mark.parametrize("row", ["start", "step"])
def test_player_cell_is_ascii_decimal(row, cell):
    text = "step,phase,player,from,to,cost_before,cost_after,potential\n"
    if row == "start":
        text += f"0,start,{cell},,a,,,\n"
    else:
        text += "0,start,2,,a,,,\n" + f"1,br,{cell},a,b,1/1,0/1,\n"
    line = 2 if row == "start" else 3
    with pytest.raises(pg.ParseError, match=f"line {line}: player ids are ASCII decimal"):
        read_trace_csv(io.StringIO(text))


TRACE_HEADER = "step,phase,player,from,to,cost_before,cost_after,potential\n"


def test_hand_written_numbering_reads():
    text = TRACE_HEADER + "0,start,1,,a,,,\n1,start,2,,a,,,\n2,br,2,a,b,1/1,0/1,\n3,cap,,,,,,\n"
    trace = read_trace_csv(io.StringIO(text))
    assert trace.start == pg.State({1: "a", 2: "a"})
    assert [s.index for s in trace.steps] == [0] and trace.status == "CapReached"


@pytest.mark.parametrize("cell", ["x", "7", "0", "01", " 1", "+1", "١", ""])
def test_step_cell_is_the_row_position(cell):
    text = TRACE_HEADER + "0,start,1,,a,,,\n" + f"{cell},br,1,a,b,1/1,0/1,\n"
    message = re.escape(f"line 3: step {cell!r} is not the row's position 1")
    with pytest.raises(pg.ParseError, match=message):
        read_trace_csv(io.StringIO(text))


@pytest.mark.parametrize(
    "rows,line", [("1,start,1,,a,,,\n", 2), ("0,start,1,,a,,,\n0,cap,,,,,,\n", 3)]
)
def test_start_and_cap_rows_are_numbered_too(rows, line):
    with pytest.raises(pg.ParseError, match=f"line {line}: step"):
        read_trace_csv(io.StringIO(TRACE_HEADER + rows))


def test_second_start_row_for_a_player_is_parse_error():
    text = TRACE_HEADER + "0,start,1,,a,,,\n1,start,1,,b,,,\n"
    with pytest.raises(pg.ParseError, match="line 3: a second start row for player 1"):
        read_trace_csv(io.StringIO(text))


def _t1_trace_with_padded_player(t1, row: str) -> tuple[str, str, int]:
    """A T1 better-response trace whose first ``row`` row (``start`` or a
    ``br`` step) names its player with a leading zero: the CSV text, the
    padded cell, and the row's line number."""
    _, trace = pg.run_dynamics(t1, pg.profile({1: "a", 2: "a"}))
    assert pg.certify_trace(t1, trace).ok
    lines = trace_to_csv_text(trace).splitlines(keepends=True)
    k = [line.split(",")[1] for line in lines].index("start" if row == "start" else "br")
    cells = lines[k].split(",")
    cells[2] = "0" + cells[2]
    lines[k] = ",".join(cells)
    return "".join(lines), cells[2], k + 1


@pytest.mark.parametrize("row", ["start", "step"])
def test_player_cell_with_leading_zero_is_parse_error(t1, row):
    # "01" would name player 1 a second way, as an instance key would
    text, cell, line = _t1_trace_with_padded_player(t1, row)
    message = f"line {line}: player ids are ASCII decimal strings with no leading zero, got {cell!r}"
    with pytest.raises(pg.ParseError, match=re.escape(message)):
        read_trace_csv(io.StringIO(text))


def test_verify_rejects_a_trace_naming_player_01(t1, tmp_path, capsys):
    text, cell, line = _t1_trace_with_padded_player(t1, "start")
    assert cell == "01"
    instance, trace = tmp_path / "t1.json", tmp_path / "t.csv"
    instance.write_bytes(emit_instance(t1))
    trace.write_text(text)
    code = cli_main(["verify", str(instance), "--trace", str(trace)])
    err = capsys.readouterr().err
    assert code == 1
    assert "PARSE_ERROR" in err and f"line {line}: player ids" in err and "'01'" in err


@pytest.mark.parametrize(
    "rows,message",
    [
        (
            "1,br,1,a,b,1/1,0/1,\n2,cap,,,,,,\n3,br,1,b,a,1/1,0/1,\n",
            "line 5: a row after the cap row",
        ),
        ("1,cap,,,,,,\n2,cap,,,,,,\n", "line 4: a row after the cap row"),
        ("1,cap,,,,,,\n2,start,2,,a,,,\n", "line 4: a row after the cap row"),
        ("1,br,1,a,b,1/1,0/1,\n2,start,2,,a,,,\n", "line 4: a start row after a step row"),
    ],
)
def test_cap_closes_and_steps_follow_start_rows(rows, message):
    text = TRACE_HEADER + "0,start,1,,a,,,\n" + rows
    with pytest.raises(pg.ParseError, match=re.escape(message)):
        read_trace_csv(io.StringIO(text))


def test_verify_rejects_a_move_after_the_cap_row(tmp_path, capsys):
    """A capped run's trace with the run's next move appended after ``cap``."""
    instance = REBALANCE_FIXTURE
    game = parse_instance(instance.read_bytes())
    start = pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})
    _, capped = pg.run_dynamics(game, start, cap=1)
    _, longer = pg.run_dynamics(game, start, cap=2)
    assert capped.status == longer.status == "CapReached"
    lines = trace_to_csv_text(capped).splitlines(keepends=True)
    step = trace_to_csv_text(longer).splitlines(keepends=True)[-2]
    cells = step.split(",")
    assert cells[1] == "br" and lines[-1].split(",")[1] == "cap"
    cells[0] = str(len(lines) - 1)
    trace = tmp_path / "t.csv"
    trace.write_text("".join(lines) + ",".join(cells))
    code = cli_main(["verify", str(instance), "--trace", str(trace)])
    err = capsys.readouterr().err
    assert code == 1
    assert "PARSE_ERROR" in err and f"line {len(lines) + 1}: a row after the cap row" in err
