"""
Layered equilibrium construction under consistent priorities
============================================================

When all resources rank players the same way, better-ranked players never
notice worse-ranked ones.  So an equilibrium can be stacked level by
level: freeze the better levels, solve the current level as a game of its
own, repeat.  Each shared-delay level game has an exact scalar potential
sum_e sum_k d_e(frozen_e, k), which the descent provably minimizes.

Strategy spaces need not be singletons; here the players pick spanning
trees of a triangle (a graphic matroid), and moves decompose into
single-edge swaps that each strictly help the mover.
"""

import prioritygames as pg

triangle = pg.GraphicMatroid([("U", "V", "a"), ("V", "W", "b"), ("W", "U", "c")])

game = pg.build_game(
    n_players=3,
    resources=["a", "b", "c"],
    spaces={1: triangle, 2: triangle, 3: pg.SingletonSpace(["a", "b", "c"])},
    priorities=pg.PriorityFunction.uniform(["a", "b", "c"], {1: 1, 2: 2, 3: 2}),
    delays={r: pg.table_from_function(lambda x, y: (x + y) * (x + y), 6) for r in "abc"},
)

final, trace = pg.solve_consistent_layered(game)
for step in trace.steps:
    action = "places" if step.frm is None else f"swaps {''.join(sorted(step.frm))} ->"
    print(
        f"{step.phase}: player {step.player} {action} {''.join(sorted(step.to))}"
        + (f", level potential {step.potential}" if step.potential else "")
    )

print("\nfinal:", {p: "+".join(sorted(s)) for p, s in final.items()})
print("equilibrium:", pg.is_pure_nash(game, final))
print("oracle agrees:", final in pg.brute_force_pne(game))

# The scalar potential is an exact potential for its level: any unilateral
# deviation of a level-2 player changes it by exactly her cost change.  It
# reads the whole profile; players less prioritized than the level (none
# here) would be ignored.
base = pg.level_potential(game, final, 2)
print("\nlevel-2 potential at the equilibrium:", base.canonical())
for alt in game.spaces[3].all_bases():
    if alt == final.strategy(3):
        continue
    shifted = pg.level_potential(game, final.with_player(3, alt), 2)
    d_phi = shifted.value.finite() - base.value.finite()
    d_cost = (
        pg.player_cost(game, final.with_player(3, alt), 3).finite()
        - pg.player_cost(game, final, 3).finite()
    )
    print(f"player 3 -> {''.join(sorted(alt))}: potential shift {d_phi}, cost shift {d_cost}")
