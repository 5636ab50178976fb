import json
from pathlib import Path

import pytest

from conftest import make_t1
from prioritygames.cli import cli_main
from prioritygames.jsonio import emit_instance, parse_instance
from prioritygames.markets import reduce_market_to_playerspecific, reduce_priority_to_market
from prioritygames.oracle import brute_force_pne


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.json"
    path.write_bytes(emit_instance(make_t1()))
    return path


def run(capsys, argv):
    code = cli_main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_ok(self, capsys, t1_file):
        code, out, _ = run(capsys, ["validate", t1_file])
        assert code == 0 and "OK" in out

    def test_bad_file_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        doc = json.loads(emit_instance(make_t1()).decode())
        doc["delays"]["a"]["entries"] = doc["delays"]["a"]["entries"][1:]  # drop (0, 1)
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["validate", bad])
        assert code == 1
        assert "MISSING_ENTRY" in err and "x=0, y=1" in err

    def test_json_mode(self, capsys, t1_file):
        code, out, _ = run(capsys, ["validate", t1_file, "--json"])
        assert code == 0
        assert json.loads(out)["players"] == 2

    def test_missing_file_is_clean_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["validate", tmp_path / "nope.json"])
        assert code == 1 and "IO_ERROR" in err

    @pytest.mark.parametrize("entries", [5, None, True])
    def test_market_entries_not_a_list(self, capsys, tmp_path, entries):
        market = tmp_path / "m.json"
        gen = ["gen", "--seed", "1", "--players", "3", "--resources", "2", "--model", "market"]
        run(capsys, gen + ["-o", market])
        doc = json.loads(market.read_text())
        rid = sorted(doc["market_delays"])[0]
        doc["market_delays"][rid]["entries"] = entries
        market.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["validate", market])
        assert code == 1
        assert "PARSE_ERROR" in err and f"market_delays.{rid}.entries: expected a list" in err

    @pytest.mark.parametrize("key", ["\u00b2", "\u0661"], ids=["superscript-2", "arabic-1"])
    def test_non_ascii_player_key(self, capsys, tmp_path, key):
        # "\u00b2" passes str.isdigit() but not int(); "\u0661" would read as player 1
        doc = json.loads(emit_instance(make_t1()).decode())
        doc["strategies"][key] = doc["strategies"].pop("1")
        path = tmp_path / "key.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", path])
        assert code == 1 and out == ""
        assert "PARSE_ERROR" in err and "player keys are decimal strings" in err


class TestSolve:
    def test_insertion_with_trace(self, capsys, t1_file, tmp_path):
        trace_path = tmp_path / "t.csv"
        code, out, _ = run(
            capsys, ["solve", t1_file, "--method", "insertion", "--trace", trace_path]
        )
        assert code == 0
        assert "player 1: a" in out and "player 2: b" in out
        rows = trace_path.read_text().strip().splitlines()
        assert len(rows) == 3  # header + two insertions

    def test_methods_agree_on_pne(self, capsys, t1_file):
        finals = {}
        for method in ("brute", "insertion", "br"):
            code, out, _ = run(capsys, ["solve", t1_file, "--method", method, "--json"])
            assert code == 0
            payload = json.loads(out)
            assert payload["pne"] is True
            finals[method] = payload["final"]
        assert finals["brute"] == finals["insertion"]

    def test_layered_needs_consistent(self, capsys, t1_file):
        code, _, err = run(capsys, ["solve", t1_file, "--method", "layered"])
        assert code == 1 and "INCONSISTENT_PRIORITIES" in err

    def test_layer_cap_exhausted_exit_two(self, capsys):
        # s=321, mixed spaces (see TestLayeredSolver in test_dynamics.py): no
        # pure Nash equilibrium exists, so every capped attempt fails and the
        # solver raises instead of returning
        path = Path(__file__).parent / "data" / "layer_exhausted_s321.json"
        assert brute_force_pne(parse_instance(path.read_bytes())) == []
        code, out, _ = run(capsys, ["solve", path, "--method", "layered", "--json"])
        assert code == 2
        assert json.loads(out)["error"] == "LAYER_CAP_EXHAUSTED"

    def test_cap_exit_two(self, capsys, t1_file):
        code, out, _ = run(
            capsys,
            ["solve", t1_file, "--method", "br", "--max-steps", "0", "--json"],
        )
        assert code == 2
        assert json.loads(out)["status"] == "CapReached"

    @pytest.mark.parametrize("json_mode", [False, True])
    def test_negative_max_steps_is_parse_error(self, capsys, t1_file, json_mode):
        argv = ["solve", t1_file, "--method", "br", "--max-steps", "-1"]
        code, out, err = run(capsys, argv + ["--json"] * json_mode)
        assert code == 1
        if json_mode:
            assert json.loads(out)["error"] == "PARSE_ERROR"
        else:
            assert out == "" and "PARSE_ERROR" in err and "--max-steps" in err

    def test_brute_and_layered_agree_on_consistent_instances(self, capsys, tmp_path):
        for seed in (1, 2, 3, 4):
            path = tmp_path / f"c{seed}.json"
            run(
                capsys,
                [
                    "gen", "--seed", seed, "--players", "3", "--resources", "3",
                    "--consistent", "--levels", "2", "--spaces", "mixed", "-o", path,
                ],
            )
            results = {}
            for method in ("brute", "layered"):
                code, out, _ = run(capsys, ["solve", path, "--method", method, "--json"])
                assert code == 0
                results[method] = json.loads(out)
            assert results["brute"]["pne"] is True
            assert results["layered"]["pne"] is True


class TestVerify:
    def test_profile_true(self, capsys, t1_file):
        code, out, _ = run(capsys, ["verify", t1_file, "--profile", '{"1":"a","2":"b"}'])
        assert code == 0 and "PNE: true" in out

    def test_profile_false_exit_one(self, capsys, t1_file):
        code, out, _ = run(capsys, ["verify", t1_file, "--profile", '{"1":"a","2":"a"}'])
        assert code == 1 and "PNE: false" in out

    def test_profile_invalid(self, capsys, t1_file):
        code, _, err = run(capsys, ["verify", t1_file, "--profile", '{"1":"zz","2":"a"}'])
        assert code == 1

    @pytest.mark.parametrize("key", ["\u00b2", "\u0661"], ids=["superscript-2", "arabic-1"])
    def test_profile_non_ascii_player_key(self, capsys, t1_file, key):
        raw = json.dumps({key: "a", "2": "b"})
        code, out, err = run(capsys, ["verify", t1_file, "--profile", raw])
        assert code == 1 and out == ""
        assert "PARSE_ERROR" in err and "--profile keys are player ids" in err

    @pytest.mark.parametrize(
        "raw, violation",
        [
            ('{"1":"a","2":"a","3":"a","9":"b"}', "UNKNOWN_PLAYER"),
            ('{"1":"a","2":"a"}', "PARTIAL_PROFILE"),
            ('{"1":"b","2":"a","3":"a"}', "BAD_STRATEGY"),
        ],
    )
    def test_market_profile_invalid(self, capsys, tmp_path, raw, violation):
        market = tmp_path / "m.json"
        gen = ["gen", "--seed", "1", "--players", "3", "--resources", "2", "--model", "market"]
        run(capsys, gen + ["-o", market])
        code, _, err = run(capsys, ["verify", market, "--profile", raw])
        assert code == 1 and violation in err

    def test_trace_round_trip(self, capsys, t1_file, tmp_path):
        trace_path = tmp_path / "t.csv"
        run(capsys, ["solve", t1_file, "--method", "insertion", "--trace", trace_path])
        code, out, _ = run(capsys, ["verify", t1_file, "--trace", trace_path])
        assert code == 0 and "no violations" in out

    def test_tampered_trace_fails(self, capsys, t1_file, tmp_path):
        trace_path = tmp_path / "t.csv"
        run(capsys, ["solve", t1_file, "--method", "insertion", "--trace", trace_path])
        text = trace_path.read_text().replace("1/1", "2/1")
        trace_path.write_text(text)
        code, out, _ = run(capsys, ["verify", t1_file, "--trace", trace_path, "--json"])
        assert code == 1
        assert json.loads(out)["violations"]


class TestReduce:
    def test_priority_to_market_and_back(self, capsys, t1_file, tmp_path):
        market_path = tmp_path / "m.json"
        code, _, _ = run(capsys, ["reduce", t1_file, "--to", "market", "-o", market_path])
        assert code == 0
        ps_path = tmp_path / "ps.json"
        code, _, _ = run(capsys, ["reduce", market_path, "--to", "playerspecific", "-o", ps_path])
        assert code == 0
        code, out, _ = run(capsys, ["verify", ps_path, "--profile", '{"1":"a","2":"b"}'])
        assert code == 0 and "PNE: true" in out

    def test_classic_to_priority(self, capsys, tmp_path):
        classic = tmp_path / "c.json"
        out_path = tmp_path / "p.json"
        run(
            capsys,
            ["gen", "--seed", "5", "--players", "3", "--resources", "3", "--model", "classic", "-o", classic],
        )
        code, _, _ = run(capsys, ["reduce", classic, "--to", "priority", "-o", out_path])
        assert code == 0
        assert json.loads(out_path.read_text())["model"] == "priority"

    @pytest.mark.parametrize("model", ["classic", "affine"])
    @pytest.mark.parametrize("target", ["priority", "market", "playerspecific"])
    def test_source_models_reduce_like_the_library(self, capsys, tmp_path, model, target):
        src, out_path = tmp_path / "src.json", tmp_path / "out.json"
        gen = ["gen", "--seed", "7", "--players", "3", "--resources", "2", "--model", model]
        run(capsys, gen + ["-o", src])
        game = parse_instance(src.read_bytes())
        expected = {
            "priority": game,
            "market": reduce_priority_to_market(game),
            "playerspecific": reduce_market_to_playerspecific(reduce_priority_to_market(game)),
        }[target]
        code, _, _ = run(capsys, ["reduce", src, "--to", target, "-o", out_path])
        assert code == 0
        assert out_path.read_bytes() == emit_instance(expected)


class TestGen:
    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen", "--seed", "11", "--players", "4", "--resources", "3", "--spaces", "mixed"]
        run(capsys, argv + ["-o", a])
        run(capsys, argv + ["-o", b])
        assert a.read_bytes() == b.read_bytes()

    def test_generated_instances_validate(self, capsys, tmp_path):
        for seed in (1, 2, 3):
            path = tmp_path / f"g{seed}.json"
            code, _, _ = run(
                capsys,
                ["gen", "--seed", seed, "--players", "3", "--resources", "3", "--model", "market", "-o", path],
            )
            assert code == 0
            code, _, _ = run(capsys, ["validate", path])
            assert code == 0

    def test_stdout_mode(self, capsys):
        code, out, _ = run(capsys, ["gen", "--seed", "1", "--players", "2", "--resources", "2"])
        assert code == 0
        assert json.loads(out)["players"] == 2


def test_budget_env_var(capsys, t1_file, monkeypatch):
    monkeypatch.setenv("PCG_BUDGET", "2")
    code, _, err = run(capsys, ["solve", t1_file, "--method", "brute"])
    assert code == 2 and "BUDGET_EXCEEDED" in err
    monkeypatch.setenv("PCG_BUDGET", "100")
    code, _, _ = run(capsys, ["solve", t1_file, "--method", "brute"])
    assert code == 0


def test_negative_budget_is_parse_error(capsys, t1_file, monkeypatch):
    monkeypatch.setenv("PCG_BUDGET", "-1")
    code, _, err = run(capsys, ["solve", t1_file, "--method", "brute"])
    assert code == 1 and "PARSE_ERROR" in err and "PCG_BUDGET" in err
    # zero is a legal budget that no enumeration fits in
    monkeypatch.setenv("PCG_BUDGET", "0")
    code, _, err = run(capsys, ["solve", t1_file, "--method", "brute"])
    assert code == 2 and "BUDGET_EXCEEDED" in err
