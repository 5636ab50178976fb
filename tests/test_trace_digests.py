"""Golden SHA-256 digests of solver traces on a fixed set of generated games.

Each digest covers the full trace CSV (steps, costs and potential strings),
so any change in a solver's move order, tie-breaking, recorded costs or
potentials shows up here.  The cases span explicit, uniform, partition,
graphic and mixed spaces, shared, classic, affine and player-specific delays.
"""

import hashlib
from fractions import Fraction

import pytest

import prioritygames as pg
from conftest import all_profiles, gen_game, gen_source
from prioritygames.traceio import trace_to_csv_text

BR_GAMES = {
    "explicit": (24, dict(players=7, resources=4, space_kind="explicit", levels=3)),
    "uniform-ps": (0, dict(players=6, resources=4, space_kind="uniform", player_specific=True)),
    "partition": (13, dict(players=7, resources=5, space_kind="partition", levels=3)),
    "graphic-classic": (22, dict(players=6, resources=4, space_kind="graphic", model="classic")),
    "mixed-affine": (1, dict(players=7, resources=4, space_kind="mixed", model="affine")),
    "singleton": (14, dict(players=8, resources=3, levels=3)),
}

LAYERED_GAMES = {
    "explicit": (0, dict(players=7, resources=4, space_kind="explicit", levels=3, consistent=True)),
    "uniform-ps": (
        15,
        dict(players=6, resources=4, space_kind="uniform", consistent=True, player_specific=True),
    ),
    "partition": (7, dict(players=7, resources=5, space_kind="partition", consistent=True)),
    "graphic": (6, dict(players=6, resources=4, space_kind="graphic", consistent=True)),
    "mixed-affine": (0, dict(players=7, resources=4, space_kind="mixed", model="affine")),
    "singleton-ps": (19, dict(players=7, resources=3, consistent=True, player_specific=True)),
}

INSERTION_GAMES = {
    "shared": (20, dict(players=8, resources=3, levels=3)),
    "player-specific": (11, dict(players=8, resources=3, levels=3, player_specific=True)),
    "classic": (23, dict(players=8, resources=3, model="classic", levels=3)),
    "affine": (39, dict(players=8, resources=3, model="affine", levels=3)),
}

DIGESTS = {
    "br/best/explicit": "a09c3857c6d61fc4448053fa5d5f21173399f4b58c4938fd78cf6d4503c1aad6",
    "br/best/graphic-classic": "c147e3637adb4a2802562a56fbc05563f15f784203309c8b82c4fe20df37cfae",
    "br/best/mixed-affine": "6623566678cab5df96d6fdd5fec0180c9451cbb165711fd4861772339d7d0341",
    "br/best/partition": "40c36f7e57188d9094b8a4ba73d19ff39515d033f0317a5c710e41477d9e3c20",
    "br/best/singleton": "f283b9fd5aea618152fae60af405af2949fb9d2bc71101a638e1d529eb550cf1",
    "br/best/uniform-ps": "0129a400b5316c5e47e15cd3b3054665e63d578e40cecad101bbf1f4b09d6ab3",
    "br/first/explicit": "beec8389834c48c55d03be72731a7ccf5e38cfffb2164393b6f6620c0de7138e",
    "br/first/graphic-classic": "c147e3637adb4a2802562a56fbc05563f15f784203309c8b82c4fe20df37cfae",
    "br/first/mixed-affine": "9ba09979ee82dbf4b1ea1edee198972da75613c1aaeaa186890228b65c688c6a",
    "br/first/partition": "84d623dc7a761e97091f1aa010a85bfb0be936e58154174b0a31d78926e6129f",
    "br/first/singleton": "3b08f3c40d82b7da0f4da474846775078e3ce2b60788906194c1413ae2876040",
    "br/first/uniform-ps": "0db25420f33cc90791b83fc56b389024d32089a5f9e4f5a95ff90a87984bdeb1",
    "br/roundrobin/explicit": "8f18df5ebe8180c0070f928d77335a63742fc039662a69cbc96e1fff3ceb6ccd",
    "br/roundrobin/graphic-classic": "af4b442b13bcca422a751a969784da2f3bd3bbc7e5a68ca9565b97ecb6af2348",
    "br/roundrobin/mixed-affine": "91fef7d516a4d8f4a5df96df66e1bbbf0dd889349e49012c5b8bdbde63fe934c",
    "br/roundrobin/partition": "84d623dc7a761e97091f1aa010a85bfb0be936e58154174b0a31d78926e6129f",
    "br/roundrobin/singleton": "1dd19fa8a495ee455e05226a04127fcaf82da25035667bc820f3dd7e33bb7b47",
    "br/roundrobin/uniform-ps": "cf5abb90f58442f14ab19ce99af45b97cf991c0a847b2ec77a6c1463f03270a8",
    "insertion/affine": "34bd1ae439828524c9ee92fd3bbf2813b087a14ee582ff0d1ea54a814fb76146",
    "insertion/classic": "fccc7fc5d8ff0d484622eae04db1ea2623b814a8c9aab7c69cc1ebf53e97c539",
    "insertion/player-specific": "035ddb8d74958568ef56bdac1bdeca0c91e9dc5196e4b83447f509a4d2ab40df",
    "insertion/shared": "6f3df6737fbcd9fccc2a45dfc200dd06d2e77b076462aec60921013660fc644e",
    "layered/explicit": "c075cdd27f6e7d1b5047f551f41205107cbe6a74cf33c43f8217ec281251a22d",
    "layered/graphic": "5f21dac75015ac315f035d91e89a9431ed0ea36bcd5bee1a18dec9221f5fcda3",
    "layered/mixed-affine": "3c328b9151f0ce016d221226086df4bce57d936506a5ee00d1390a2003ae1d75",
    "layered/partition": "4c9d167a3272096d01fe3ca43a4e93465b21ca332903b906285c92daf73370e6",
    "layered/singleton-ps": "f015955163268b42755c4f2f1a62c6c572cd4dd73469136d20e00e517e256910",
    "layered/uniform-ps": "deded6fb1a8b44376f5ef19e41774fd2f066b4955f316625fd3d75a8f3573c92",
}


def _digest(trace) -> str:
    return hashlib.sha256(trace_to_csv_text(trace).encode()).hexdigest()


def _first_bases(game):
    return pg.State({p: game.spaces[p].all_bases()[0] for p in game.players()})


@pytest.mark.parametrize("policy", pg.dynamics.POLICIES)
@pytest.mark.parametrize("name", sorted(BR_GAMES))
def test_run_dynamics_trace_digest(name, policy):
    seed, kw = BR_GAMES[name]
    game = gen_game(seed, **kw)
    _, trace = pg.run_dynamics(game, _first_bases(game), policy=policy)
    assert _digest(trace) == DIGESTS[f"br/{policy}/{name}"]


@pytest.mark.parametrize("name", sorted(LAYERED_GAMES))
def test_layered_trace_digest(name):
    seed, kw = LAYERED_GAMES[name]
    _, trace = pg.solve_consistent_layered(gen_game(seed, **kw))
    assert _digest(trace) == DIGESTS[f"layered/{name}"]


@pytest.mark.parametrize("name", sorted(INSERTION_GAMES))
def test_insertion_trace_digest(name):
    seed, kw = INSERTION_GAMES[name]
    _, trace = pg.solve_insertion(gen_game(seed, **kw))
    assert _digest(trace) == DIGESTS[f"insertion/{name}"]


def make_affine_n24() -> pg.Game:
    """24 singleton players, 4 affine resources, per-resource priorities 1..3.

    Tolerances here reach 15, so the tolerance bisection takes several
    steps on most rows instead of stopping at its first probe.
    """
    resources = ["a", "b", "c", "d"]
    params = {
        "a": (Fraction(1), Fraction(0)),
        "b": (Fraction(1, 2), Fraction(3)),
        "c": (Fraction(2), Fraction(5, 2)),
        "d": (Fraction(3, 2), Fraction(1)),
    }
    n = 24
    spaces = {
        p: pg.SingletonSpace(
            resources if p % 3 else resources[(p // 3) % 4 :] + resources[:1]
        )
        for p in range(1, n + 1)
    }
    priorities = {
        r: {p: 1 + (p * (k + 2) + k) % 3 for p in range(1, n + 1)}
        for k, r in enumerate(resources)
    }
    return pg.build_game(
        n_players=n,
        resources=resources,
        spaces=spaces,
        priorities=pg.PriorityFunction(priorities),
        delays={r: pg.AffineDelay(alpha=a, beta=b) for r, (a, b) in params.items()},
    )


AFFINE_N24_DIGESTS = {
    "insertion": "fe318a62638662813fcaf7046536701e54463ef88103cb1f4000c461e474824e",
    "br/roundrobin": "a10b003c195d7f31a8d5a7fe20df7790c8fd75d13621dc7d2e3e42aff7b3f68d",
    "br/first": "285594021fc609572f982dd4e0c57de230b5de552edd863467d6bb42d102e764",
    "br/best": "2ed6b3fd43bf202dad13b8ece59b7ac9ce0481464728b3bbf03e0b4e8073c1a2",
}


def test_insertion_trace_digest_affine_n24():
    _, trace = pg.solve_insertion(make_affine_n24())
    assert pg.count_steps(trace).by_phase == {"insert": 35, "discard": 11}
    assert _digest(trace) == AFFINE_N24_DIGESTS["insertion"]


def test_run_dynamics_trace_digest_affine_n24():
    game = make_affine_n24()
    _, trace = pg.run_dynamics(game, _first_bases(game), policy="roundrobin")
    assert _digest(trace) == AFFINE_N24_DIGESTS["br/roundrobin"]


@pytest.mark.parametrize("policy", ["first", "best"])
def test_run_dynamics_trace_digest_affine_n24_first_and_best(policy):
    game = make_affine_n24()
    _, trace = pg.run_dynamics(game, _first_bases(game), policy=policy)
    assert _digest(trace) == AFFINE_N24_DIGESTS[f"br/{policy}"]


MARKET_GAMES = {
    "n4-m3": (37, dict(players=4, resources=3, model="market", levels=3)),
    "n5-m2": (45, dict(players=5, resources=2, model="market", levels=4)),
    "n3-m4": (34, dict(players=3, resources=4, model="market", levels=2, max_delay=20)),
}

MARKET_POTENTIAL_DIGESTS = {
    "n4-m3": "3fae7072fa794d2ff0828ac1eea32bc427c8ca314c6906b061918f015c838ef2",
    "n5-m2": "6bcef941eba15aadcac6f5b370c95c5f7f555a4bc30d5ccdcca2ad1eefc4ad76",
    "n3-m4": "9511047a63bd016f7ef41578db7c762a2aeca1bdde7903459b5d11d2b646c735",
}


@pytest.mark.parametrize("name", sorted(MARKET_GAMES))
def test_market_lex_potential_digest(name):
    """The market potential's canonical string at every profile of the market."""
    seed, kw = MARKET_GAMES[name]
    market = gen_source(seed, **kw)
    text = "\n".join(pg.market_lex_potential(market, p).canonical() for p in all_profiles(market))
    assert hashlib.sha256(text.encode()).hexdigest() == MARKET_POTENTIAL_DIGESTS[name]
