"""
Instance files, solver traces, and independent certification
============================================================

Everything the solvers do can be saved, reloaded, and re-checked from
scratch: instances travel as canonical JSON (exact "p/q" rationals, no
floats), runs travel as CSV traces, and the certifier replays a trace
against the instance, recomputing every cost and potential.

The same workflow is available from the shell:

    pcg gen --seed 42 --players 4 --resources 3 --levels 3 -o game.json
    pcg solve game.json --method insertion --trace run.csv
    pcg verify game.json --trace run.csv
    pcg verify game.json --profile '{"1": "a", "2": "b", "3": "a", "4": "c"}'
    pcg reduce game.json --to market -o market.json
"""

import atexit
import io
import shutil
import tempfile
from pathlib import Path

import prioritygames as pg
from prioritygames.generator import GenParams, generate_random_instance
from prioritygames.jsonio import document_to_source, emit_instance, parse_instance
from prioritygames.traceio import read_trace_csv, trace_to_csv_text

workdir = Path(tempfile.mkdtemp(prefix="pcg-demo-"))
atexit.register(shutil.rmtree, workdir)

# Generate deterministically, write, reload: same bytes, same game.
doc = generate_random_instance(GenParams(players=4, resources=3, levels=3), seed=42)
game = document_to_source(doc)
path = workdir / "game.json"
path.write_bytes(emit_instance(game))
assert emit_instance(parse_instance(path.read_bytes())) == path.read_bytes()
print(f"wrote canonical instance to {path} ({path.stat().st_size} bytes)")

# Solve and export the run.
final, trace = pg.solve_insertion(game)
csv_text = trace_to_csv_text(trace)
(workdir / "run.csv").write_text(csv_text)
print(f"insertion run: {pg.count_steps(trace).total} steps -> {dict((p, ''.join(sorted(s))) for p, s in final.items())}")

# A third party can now re-verify the run with nothing but the two files.
replayed = read_trace_csv(io.StringIO(csv_text))
report = pg.certify_trace(parse_instance(path.read_bytes()), replayed)
print(report.summary())

# Tampering is caught with the offending step named.
tampered = read_trace_csv(io.StringIO(csv_text))
tampered.steps[0].cost_after = pg.cost(1000)
bad = pg.certify_trace(game, tampered)
print("after tampering with step 0:")
print(bad.summary())
