"""The ``pcg`` command line: validate, solve, verify, reduce, generate.

Exit codes: 0 success, 1 validation/verification failure, 2 solver cap or
enumeration budget exhaustion.  All costs print as exact ``p/q`` strings;
``--approx`` adds float renderings.  The environment variable ``PCG_BUDGET``
overrides the brute-force enumeration budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .congestion import State, is_pure_nash, player_cost, validate_state
from .core import Game
from .costs import ZERO
from .dynamics import (
    CAP_REACHED,
    MoveTrace,
    run_dynamics,
    solve_consistent_layered,
    solve_insertion,
)
from .errors import (
    BudgetExceededError,
    GameError,
    LayerCapExhaustedError,
    ParseError,
    ValidationFailed,
)
from .generator import GenParams, generate_random_instance
from .jsonio import emit_instance, is_canonical_player_key, parse_instance
from .markets import (
    MarketGame,
    market_is_pure_nash,
    market_player_cost,
    reduce_market_to_playerspecific,
    reduce_priority_to_market,
)
from .matroids import greedy_min_base
from .oracle import EnumerationBudget, brute_force_pne, certify_trace
from .traceio import read_trace_csv, write_trace_csv

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_EXHAUSTED = 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


def cli_main(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValidationFailed) as exc:
        _fail(args, exc)
        return EXIT_INVALID
    except (BudgetExceededError, LayerCapExhaustedError) as exc:
        _fail(args, exc)
        return EXIT_EXHAUSTED
    except GameError as exc:
        _fail(args, exc)
        return EXIT_INVALID
    except OSError as exc:
        if getattr(args, "json", False):
            print(json.dumps({"error": "IO_ERROR", "message": str(exc)}, sort_keys=True))
        else:
            print(f"error [IO_ERROR]: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _fail(args, exc: GameError) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"error": exc.code, "message": str(exc)}, sort_keys=True))
    else:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``pcg`` argument parser, built once per process on first use.

    Building the five-verb tree costs about ten times what parsing one
    argv does, so in-process callers of :func:`cli_main` reuse it; it is
    not built at import.  ``parse_args`` returns a fresh namespace on each
    call, so nothing of one call reaches the next.  Each verb's handler is
    bound at that first build: replacing a ``_cmd_*`` function afterwards
    does not change what the parser dispatches to.
    """
    parser = argparse.ArgumentParser(
        prog="pcg",
        description="Priority-based congestion games: equilibria, potentials, certification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="parse and validate an instance file")
    p.add_argument("file", type=Path)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("solve", help="compute a pure Nash equilibrium")
    p.add_argument("file", type=Path)
    p.add_argument(
        "--method",
        choices=("layered", "insertion", "br", "brute"),
        required=True,
    )
    p.add_argument("--policy", choices=("roundrobin", "first", "best"), default="roundrobin")
    p.add_argument("--max-steps", type=_int_arg, default=100_000)
    p.add_argument("--trace", type=Path, default=None, help="write the move trace as CSV")
    p.add_argument("--json", action="store_true")
    p.add_argument("--approx", action="store_true", help="also print float approximations")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify", help="check a profile or replay a trace")
    p.add_argument("file", type=Path)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", type=str, help='JSON object, e.g. \'{"1": "a"}\'')
    group.add_argument("--trace", type=Path)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("reduce", help="rewrite an instance in another model")
    p.add_argument("file", type=Path)
    p.add_argument("--to", choices=("priority", "market", "playerspecific"), required=True)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--seed", type=_int_arg, required=True)
    p.add_argument("--players", type=_int_arg, required=True)
    p.add_argument("--resources", type=_int_arg, required=True)
    p.add_argument("--model", choices=("priority", "classic", "affine", "market"), default="priority")
    p.add_argument(
        "--spaces",
        choices=("singleton", "explicit", "uniform", "partition", "graphic", "mixed"),
        default="singleton",
    )
    p.add_argument("--levels", type=_int_arg, default=2)
    p.add_argument("--max-delay", type=_int_arg, default=12)
    p.add_argument("--consistent", action="store_true")
    p.add_argument("--player-specific", action="store_true")
    p.add_argument("-o", "--output", type=Path, default=None, help="default: stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_gen)

    return parser


# ---------------------------------------------------------------------------
# Helpers


def _load(path: Path) -> Game | MarketGame:
    return parse_instance(path.read_bytes())


def _as_game(instance: Game | MarketGame) -> Game:
    """Solvers run on priority games; markets pass through their embedding."""
    if isinstance(instance, MarketGame):
        return reduce_market_to_playerspecific(instance)
    return instance


def _int_arg(text: str) -> int:
    """A decimal integer in ASCII digits, optionally signed: no ``_`` or padding."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _budget() -> EnumerationBudget:
    raw = os.environ.get("PCG_BUDGET")
    if raw is None:
        return EnumerationBudget()
    try:
        budget = _int_arg(raw)
    except argparse.ArgumentTypeError:
        raise ParseError(f"PCG_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise ParseError(f"PCG_BUDGET must be >= 0, got {budget}")
    return EnumerationBudget(max_profiles=budget)


def _strategy_json(s: frozenset[str]):
    return sorted(s)[0] if len(s) == 1 else sorted(s)


def _profile_json(state: State) -> dict:
    return {str(p): _strategy_json(s) for p, s in state.items()}


def _parse_profile_arg(raw: str, game: Game | MarketGame) -> State:
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--profile is not valid JSON: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("--profile must be a JSON object of player -> strategy")
    strategies = {}
    for key, val in doc.items():
        if not is_canonical_player_key(key):
            raise ParseError(f"--profile keys are player ids, got {key!r}")
        if isinstance(val, str):
            strategies[int(key)] = frozenset([val])
        elif isinstance(val, list) and all(isinstance(r, str) for r in val):
            strategies[int(key)] = frozenset(val)
        else:
            raise ParseError(f"--profile values are resource ids or lists, got {val!r}")
    state = State(strategies)
    validate_state(game, state, full=True)
    return state


def _print_profile(state: State, game, approx: bool) -> None:
    for p, s in state.items():
        cost = (
            market_player_cost(game, state, p)
            if isinstance(game, MarketGame)
            else player_cost(game, state, p)
        )
        extra = f" (~{cost.approx():g})" if approx else ""
        print(f"  player {p}: {'+'.join(sorted(s))}  cost {cost}{extra}")


# ---------------------------------------------------------------------------
# Verbs


def _cmd_validate(args) -> int:
    instance = _load(args.file)
    kind = "market" if isinstance(instance, MarketGame) else "priority"
    info = {
        "ok": True,
        "model": kind,
        "players": instance.n_players,
        "resources": list(instance.resources),
    }
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        print(
            f"OK: {kind} game with {instance.n_players} players, "
            f"{len(instance.resources)} resources"
        )
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.max_steps < 0:
        raise ParseError(f"--max-steps must be >= 0, got {args.max_steps}")
    instance = _load(args.file)
    game = _as_game(instance)

    trace: MoveTrace | None = None
    if args.method == "brute":
        pnes = brute_force_pne(instance, _budget())
        final = pnes[0] if pnes else None
        status = "Converged" if final is not None else "NoEquilibrium"
    elif args.method == "br":
        # the least base in sorted-id order: greedy on all-zero weights
        start = State({
            p: greedy_min_base(game.spaces[p], dict.fromkeys(game.ground_of(p), ZERO))
            for p in game.players()
        })
        final, trace = run_dynamics(game, start, policy=args.policy, cap=args.max_steps)
        status = trace.status
    elif args.method == "layered":
        final, trace = solve_consistent_layered(game)
        status = trace.status
    else:
        final, trace = solve_insertion(game)
        status = trace.status

    if trace is not None and args.trace is not None:
        write_trace_csv(trace, args.trace)

    result = {
        "method": args.method,
        "status": status,
        "final": _profile_json(final) if final is not None else None,
        "steps": len(trace.steps) if trace is not None else None,
    }
    if final is not None:
        result["pne"] = (
            market_is_pure_nash(instance, final)
            if isinstance(instance, MarketGame)
            else is_pure_nash(game, final)
        )
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        print(f"status: {status}" + (f", steps: {result['steps']}" if trace else ""))
        if final is not None:
            print(f"final profile (PNE: {str(result['pne']).lower()}):")
            _print_profile(final, instance if isinstance(instance, MarketGame) else game, args.approx)
        else:
            print("no pure Nash equilibrium found")
    return EXIT_EXHAUSTED if status == CAP_REACHED else EXIT_OK


def _cmd_verify(args) -> int:
    instance = _load(args.file)
    if args.profile is not None:
        state = _parse_profile_arg(args.profile, instance)
        if isinstance(instance, MarketGame):
            ok = market_is_pure_nash(instance, state)
        else:
            ok = is_pure_nash(instance, state)
        if args.json:
            print(json.dumps({"pne": ok, "profile": _profile_json(state)}, sort_keys=True))
        else:
            print(f"PNE: {str(ok).lower()}")
        return EXIT_OK if ok else EXIT_INVALID

    game = _as_game(instance)
    trace = read_trace_csv(args.trace)
    report = certify_trace(game, trace)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "violations": [
                        {"step": v.step, "code": v.code, "message": v.message}
                        for v in report.violations
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        print(report.summary())
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_reduce(args) -> int:
    out = _load(args.file)
    target = args.to
    if target == "priority":
        if isinstance(out, MarketGame):
            out = reduce_market_to_playerspecific(out)
    elif target == "market":
        if isinstance(out, Game):
            out = reduce_priority_to_market(out)
    else:  # playerspecific
        if isinstance(out, Game) and not out.player_specific:
            out = reduce_market_to_playerspecific(reduce_priority_to_market(out))
        elif isinstance(out, MarketGame):
            out = reduce_market_to_playerspecific(out)

    args.output.write_bytes(emit_instance(out))
    if args.json:
        print(json.dumps({"ok": True, "output": str(args.output)}, sort_keys=True))
    else:
        print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    params = GenParams(
        players=args.players,
        resources=args.resources,
        model=args.model,
        space_kind=args.spaces,
        max_delay=args.max_delay,
        levels=args.levels,
        consistent=args.consistent,
        player_specific=args.player_specific,
    )
    try:
        doc = generate_random_instance(params, args.seed)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    payload = (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode()
    if args.output is None:
        sys.stdout.write(payload.decode())
    else:
        args.output.write_bytes(payload)
        if args.json:
            print(json.dumps({"ok": True, "output": str(args.output)}, sort_keys=True))
        else:
            print(f"wrote {args.output}")
    return EXIT_OK


if __name__ == "__main__":
    main()
