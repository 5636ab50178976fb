import importlib.util
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import prioritygames as pg
import prioritygames.jsonio as jsonio
from conftest import gen_source, make_t1
from prioritygames.generator import GenParams, generate_random_instance
from prioritygames.jsonio import (
    document_to_source,
    emit_instance,
    instance_to_document,
    parse_document,
    parse_instance,
)


class TestRoundTrips:
    def test_priority_game_byte_identity(self, t1):
        blob = emit_instance(t1)
        again = emit_instance(parse_instance(blob))
        assert again == blob

    def test_all_models_round_trip(self):
        cases = [
            gen_source(1, players=3, resources=3, space_kind="mixed", levels=2),
            gen_source(2, players=3, resources=3, model="classic", levels=2),
            gen_source(3, players=3, resources=2, model="affine"),
            gen_source(4, players=3, resources=3, model="market"),
            gen_source(
                5, players=2, resources=2, space_kind="singleton", player_specific=True
            ),
        ]
        for src in cases:
            blob = emit_instance(src)
            parsed = document_to_source(parse_document(blob))
            assert emit_instance(parsed) == blob

    def test_parse_normalizes_rationals(self, t1):
        doc = instance_to_document(t1)
        doc["delays"]["a"]["entries"][0][2] = "2/4"  # same value, unreduced
        blob = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
        game = parse_instance(blob)
        assert emit_instance(game).find(b"2/4") == -1
        assert game.delays["a"].entries[(0, 1)] == pg.cost("1/2")


class TestParseErrors:
    def doc(self, t1):
        return instance_to_document(t1)

    def test_zero_denominator(self, t1):
        doc = self.doc(t1)
        doc["delays"]["a"]["entries"][0][2] = "3/0"
        with pytest.raises(pg.ParseError):
            document_to_source(doc)

    def test_unknown_top_level_field(self, t1):
        doc = self.doc(t1)
        doc["comment"] = "hello"
        with pytest.raises(pg.ParseError):
            document_to_source(doc)

    def test_unknown_nested_field(self, t1):
        doc = self.doc(t1)
        doc["delays"]["a"]["note"] = "x"
        with pytest.raises(pg.ParseError):
            document_to_source(doc)

    def test_malformed_json_position(self):
        with pytest.raises(pg.ParseError) as err:
            parse_instance(b'{"version": 1,,}')
        assert "line" in str(err.value)

    def test_bad_model(self, t1):
        doc = self.doc(t1)
        doc["model"] = "quantum"
        with pytest.raises(pg.ParseError):
            document_to_source(doc)

    def test_semantic_error_is_validation_failure(self, t1):
        doc = self.doc(t1)
        doc["strategies"]["1"] = {"kind": "singleton", "allowed": ["zz"]}
        with pytest.raises(pg.ValidationFailed):
            document_to_source(doc)

    def test_both_delay_sources_for_one_resource(self, t1):
        doc = self.doc(t1)
        doc["player_specific"] = {"1": {"a": doc["delays"]["a"]}}
        with pytest.raises(pg.ParseError):
            document_to_source(doc)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: d.update(version=True), "schema version"),
            (lambda d: d.update(players=True), "players must be"),
            (lambda d: d["priorities"]["per_resource"]["a"].__setitem__(0, True), "priorities are"),
            (
                lambda d: d["strategies"].update(
                    {"1": {"kind": "uniform", "ground": ["a", "b"], "rank": True}}
                ),
                "rank",
            ),
            (
                lambda d: d["strategies"].update(
                    {"1": {"kind": "partition", "blocks": [["a"], ["b"]], "caps": [True, 0]}}
                ),
                "caps",
            ),
            (lambda d: d["delays"]["a"].update(bound=True), "bound"),
            (lambda d: d["delays"]["a"]["entries"][0].__setitem__(0, False), "x >= 0"),
            (lambda d: d["delays"]["a"]["entries"][0].__setitem__(1, True), "x >= 0"),
        ],
        ids=["version", "players", "priority", "rank", "caps", "bound", "x", "y"],
    )
    def test_json_booleans_are_not_integers(self, t1, edit, match):
        # true/false are Python ints: accepted, they would be written back as true/false
        doc = self.doc(t1)
        edit(doc)
        with pytest.raises(pg.ParseError, match=match):
            document_to_source(doc)

    @pytest.mark.parametrize("field", ["levels", "bound", "level"])
    def test_market_booleans_are_not_integers(self, field):
        doc = instance_to_document(gen_source(4, players=3, resources=3, model="market"))
        table = doc["market_delays"]["a"]  # one cost level
        if field == "level":
            table["entries"][0][0] = True
        else:
            table[field] = True
        with pytest.raises(pg.ParseError, match="levels|bound|coordinates"):
            document_to_source(doc)


class TestGenerator:
    def test_deterministic_per_seed(self):
        params = GenParams(players=4, resources=4, space_kind="mixed", levels=3)
        a = generate_random_instance(params, 99)
        b = generate_random_instance(params, 99)
        assert a == b
        blob_a = emit_instance(document_to_source(a))
        blob_b = emit_instance(document_to_source(b))
        assert blob_a == blob_b

    def test_different_seeds_differ(self):
        params = GenParams(players=4, resources=4)
        assert generate_random_instance(params, 1) != generate_random_instance(params, 2)

    def test_validator_sweep_1000_seeds(self):
        # every generated table passes the axiom validator by construction
        checked = 0
        for seed in range(1000):
            model = ("priority", "classic", "affine", "market")[seed % 4]
            kind = ("singleton", "mixed", "uniform", "partition", "graphic")[seed % 5]
            params = GenParams(
                players=2 + seed % 3,
                resources=2 + seed % 3,
                model=model,
                space_kind=kind,
                levels=1 + seed % 3,
                player_specific=(model == "priority" and seed % 6 == 0),
            )
            doc = generate_random_instance(params, 10_000 + seed)
            source = document_to_source(doc)  # build_* validate everything
            assert source.n_players == params.players
            checked += 1
        assert checked == 1000

    def test_levels_one_is_plain_congestion(self):
        game = document_to_source(
            generate_random_instance(GenParams(players=3, resources=3, levels=1), 7)
        )
        assert game.priorities.consistent
        assert {game.priority(r, i) for r in game.resources for i in game.players()} == {1}

    def test_desk_scale_limits(self):
        with pytest.raises(ValueError):
            generate_random_instance(GenParams(players=9, resources=3), 1)
        with pytest.raises(ValueError):
            generate_random_instance(GenParams(players=3, resources=7), 1)


def _model_doc(model: str) -> dict:
    if model == "priority":
        return instance_to_document(make_t1())
    return instance_to_document(gen_source(4, players=3, resources=3, model=model))


@pytest.mark.parametrize(
    "model, field, present, message",
    [
        ("market", "priorities", False, "market instances do not carry 'priorities'"),
        ("market", "delays", False, "market instances do not carry 'delays'"),
        ("market", "player_specific", False, "market instances do not carry 'player_specific'"),
        ("market", "cost_matrix", True, "market instances need 'cost_matrix'"),
        ("market", "market_delays", True, "market instances need 'market_delays'"),
        ("priority", "cost_matrix", False, "priority instances do not carry 'cost_matrix'"),
        ("priority", "market_delays", False, "priority instances do not carry 'market_delays'"),
        ("priority", "priorities", True, "priority instances need 'priorities'"),
        ("classic", "cost_matrix", False, "classic instances do not carry 'cost_matrix'"),
        ("classic", "market_delays", False, "classic instances do not carry 'market_delays'"),
        ("classic", "player_specific", False, "classic instances do not carry 'player_specific'"),
        ("classic", "priorities", True, "classic instances need 'priorities'"),
        ("affine", "cost_matrix", False, "affine instances do not carry 'cost_matrix'"),
        ("affine", "market_delays", False, "affine instances do not carry 'market_delays'"),
        ("affine", "player_specific", False, "affine instances do not carry 'player_specific'"),
        ("affine", "priorities", True, "affine instances need 'priorities'"),
    ],
)
def test_model_fields(model, field, present, message):
    # `present` fields are required and get dropped; the others are forbidden and get added
    doc = _model_doc(model)
    if present:
        del doc[field]
    else:
        doc[field] = {}
    with pytest.raises(pg.ParseError) as err:
        document_to_source(doc)
    assert str(err.value) == message


def test_explicit_bases_round_trip(t1):
    doc = instance_to_document(t1)
    doc["strategies"]["1"] = {"kind": "explicit_bases", "bases": [["b"], ["a"]]}
    game = document_to_source(doc)
    assert isinstance(game.spaces[1], pg.ExplicitBasesSpace)
    blob = emit_instance(game)
    assert json.loads(blob)["strategies"]["1"] == {
        "kind": "explicit_bases",
        "bases": [["a"], ["b"]],
    }
    assert emit_instance(parse_instance(blob)) == blob


# A repeat inside one id list is refused, as one across partition blocks or
# graphic edges is: merged away, a 3-id ground of rank 2 would parse as 2 ids.
@pytest.mark.parametrize(
    "space, path",
    [
        ({"kind": "singleton", "allowed": ["a", "b", "a"]}, "allowed"),
        ({"kind": "explicit", "sets": [["b"], ["a", "a"]]}, "sets"),
        ({"kind": "uniform", "ground": ["a", "a", "b"], "rank": 2}, "ground"),
        ({"kind": "partition", "blocks": [["a", "a"], ["b"]], "caps": [1, 1]}, "blocks"),
        ({"kind": "explicit_bases", "bases": [["b"], ["a", "b", "a"]]}, "bases"),
    ],
    ids=["singleton", "explicit", "uniform", "partition", "explicit_bases"],
)
def test_repeated_id_in_one_list_is_refused(t1, space, path):
    doc = instance_to_document(t1)
    doc["strategies"]["1"] = space
    with pytest.raises(pg.ParseError) as err:
        document_to_source(doc)
    assert str(err.value) == f"strategies.1.{path}: repeated resource ids ['a']"


class TestPlayerKeys:
    # "01" and "1" would name one player, the later key silently winning
    def test_strategies(self, t1):
        doc = instance_to_document(t1)
        doc["strategies"]["01"] = {"kind": "singleton", "allowed": ["b"]}
        with pytest.raises(pg.ParseError, match="strategies: player key '01'"):
            document_to_source(doc)

    def test_player_specific(self, t1):
        doc = instance_to_document(t1)
        table = doc["delays"].pop("a")
        doc["player_specific"] = {"1": {"a": table}, "2": {"a": table}, "01": {"a": table}}
        with pytest.raises(pg.ParseError, match="player_specific: player key '01'"):
            document_to_source(doc)

    def test_cost_matrix(self):
        doc = instance_to_document(gen_source(4, players=3, resources=3, model="market"))
        doc["cost_matrix"]["01"] = doc["cost_matrix"]["1"]
        with pytest.raises(pg.ParseError, match="cost_matrix: player key '01'"):
            document_to_source(doc)

    def test_canonical_keys_still_parse(self, t1):
        doc = instance_to_document(t1)
        assert sorted(doc["strategies"]) == ["1", "2"]
        assert document_to_source(doc) == t1


class TestClaimedSizes:
    """A few bytes must not claim work or messages that grow with a declared size."""

    def test_few_missing_players_are_all_listed(self, t1):
        doc = instance_to_document(t1)
        doc["players"] = 4
        with pytest.raises(pg.ParseError) as err:
            document_to_source(doc)
        assert str(err.value) == "strategies: missing players [3, 4]"

    def test_many_missing_players_are_counted(self, t1):
        doc = instance_to_document(t1)
        doc["players"] = 10**6
        with pytest.raises(pg.ParseError) as err:
            document_to_source(doc)
        message = str(err.value)
        assert len(message) < 200
        assert message == (
            "strategies: missing players [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and 999988 more"
        )

    def test_table_bound_lists_few_missing_points(self, t1):
        doc = instance_to_document(t1)
        doc["delays"]["a"] = {"kind": "table", "bound": 400, "entries": [[0, 1, "0"]]}
        with pytest.raises(pg.ValidationFailed) as err:
            document_to_source(doc)
        listed = [(v.code, v.where, v.message) for v in err.value.violations]
        assert listed[:10] == [
            ("MISSING_ENTRY", f"resource a: (x=0, y={y})", "no table entry within bound")
            for y in range(2, 12)
        ]
        # 400 * 401 / 2 domain points, one of them given
        assert listed[10:] == [
            ("MISSING_ENTRY", "resource a: bound 400", "80189 more points have no table entry")
        ]

    def test_tritable_bound_lists_few_missing_points(self):
        doc = instance_to_document(gen_source(4, players=3, resources=3, model="market"))
        table = doc["market_delays"]["a"]
        assert table["levels"] == 1
        table["bound"] = 400
        table["entries"] = table["entries"][:1]
        with pytest.raises(pg.ValidationFailed) as err:
            document_to_source(doc)
        listed = [(v.code, v.where, v.message) for v in err.value.violations]
        assert listed[:10] == [
            (
                "MISSING_ENTRY",
                f"resource a: (level=1, x=0, y={y})",
                "no table entry within bound",
            )
            for y in range(2, 12)
        ]
        assert listed[10:] == [
            ("MISSING_ENTRY", "resource a: bound 400", "80189 more points have no table entry")
        ]


def _load_desk_families():
    """The benchmark's corpus builder, loaded from its file (bench/ is no package)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("desk_families", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


desk_families = _load_desk_families()


@pytest.fixture(scope="module")
def desk_corpus_seed0():
    return desk_families.desk_corpus(0).instances


@pytest.fixture
def parsed_strings(monkeypatch):
    """Every string ``jsonio`` hands to ``parse_fraction``, in call order."""
    seen = []
    original = jsonio.parse_fraction

    def counting(text):
        seen.append(text)
        return original(text)

    monkeypatch.setattr(jsonio, "parse_fraction", counting)
    return seen


def _table_doc_costs(doc: dict) -> list[str]:
    tables = list(doc.get("delays", {}).values())
    tables += [t for rmap in doc.get("player_specific", {}).values() for t in rmap.values()]
    return [row[-1] for t in tables for row in t["entries"]]


class TestCostMemo:
    """One ``ExtCost`` per distinct cost string in a document."""

    def test_each_distinct_string_is_parsed_once(self, parsed_strings):
        doc = instance_to_document(
            gen_source(5, players=3, resources=3, space_kind="singleton", player_specific=True)
        )
        assert "player_specific" in doc and "delays" not in doc
        costs = _table_doc_costs(doc)
        finite = [c for c in costs if c != "inf"]
        assert len(set(finite)) < len(finite)  # the guard needs repeats to mean anything
        parsed_strings.clear()  # building the document parsed too
        document_to_source(doc)
        assert Counter(parsed_strings) == Counter(set(finite))

    def test_first_bad_cell_is_reported(self, t1):
        doc = instance_to_document(t1)
        entries = doc["delays"]["a"]["entries"]
        entries[3][2] = entries[9][2] = "4/x"
        with pytest.raises(pg.ParseError) as err:
            document_to_source(doc)
        assert str(err.value) == "delays.a.entries[3]: malformed rational '4/x'"

    def test_repeated_good_string_is_parsed_once(self, t1, parsed_strings):
        doc = instance_to_document(t1)
        entries = doc["delays"]["a"]["entries"]
        assert entries[3][:2] == [0, 4] and entries[5][:2] == [1, 2]  # both d = 4
        entries[3][2] = entries[5][2] = "8/2"
        game = document_to_source(doc)
        assert parsed_strings.count("8/2") == 1
        table = game.delays["a"].entries
        assert table[(0, 4)] == table[(1, 2)] == pg.cost(4)

    @pytest.mark.parametrize("value", [None, 3, [1], {}], ids=["null", "int", "list", "dict"])
    @pytest.mark.parametrize("kind", ["table", "classic", "tritable"])
    def test_non_string_values_keep_their_message(self, t1, kind, value):
        if kind == "table":
            doc = instance_to_document(t1)
            doc["delays"]["a"]["entries"][4][2] = value
            path = "delays.a.entries[4]"
        elif kind == "classic":
            source = gen_source(2, players=3, resources=3, model="classic", levels=2)
            doc = instance_to_document(source)
            doc["delays"]["b"]["values"][1] = value
            path = "delays.b.values[1]"
        else:
            doc = instance_to_document(gen_source(4, players=3, resources=3, model="market"))
            doc["market_delays"]["a"]["entries"][2][3] = value
            path = "market_delays.a.entries[2]"
        message = f"{path}: rationals are 'p/q' strings, got {value!r}"
        with pytest.raises(pg.ParseError, match=re.escape(message) + "$"):
            document_to_source(doc)

    @pytest.mark.parametrize("c", range(len(desk_families.DESK_CLASSES)))
    def test_desk_classes_round_trip(self, desk_corpus_seed0, c):
        per = desk_families.DESK_PER_CLASS
        for inst in desk_corpus_seed0[c * per : (c + 1) * per]:
            blob = inst.data
            assert emit_instance(document_to_source(parse_document(blob))) == blob
