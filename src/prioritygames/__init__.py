"""Priority-based congestion games with exact arithmetic.

A library for modeling congestion games where resources rank players and
more prioritized co-users impose (finite or infinite) extra delay, for
computing pure Nash equilibria via layered construction, insertion, and
better-response dynamics, and for certifying every result against
brute-force oracles and exact potential functions.
"""

from .congestion import (
    CongestionView,
    Profile,
    State,
    best_response,
    congestion_view,
    entry_weights,
    has_better_response,
    is_better_response,
    is_pure_nash,
    player_cost,
    profile,
    validate_state,
)
from .core import (
    AffineDelay,
    ClassicDelay,
    DelaySpec,
    Game,
    PerPlayerDelay,
    PriorityFunction,
    TableDelay,
    build_game,
    evaluate_delay,
    required_table_bound,
    table_from_function,
    validate_delay_properties,
)
from .costs import INFINITY, ZERO, ExtCost, cost, sum_costs
from .dynamics import (
    MoveTrace,
    StepStats,
    TraceStep,
    count_steps,
    run_dynamics,
    solve_consistent_layered,
    solve_insertion,
)
from .errors import (
    BudgetExceededError,
    GameError,
    InconsistentPrioritiesError,
    InvariantViolatedError,
    LayerCapExhaustedError,
    LengthMismatchError,
    NoExchangeError,
    NonMonotoneDelayError,
    NotImprovingError,
    NotSingletonError,
    OutOfBoundError,
    ParseError,
    PlayerNotPlacedError,
    PlayerSpecificInputError,
    ShapeMismatchError,
    ValidationFailed,
    Violation,
)
from .generator import GenParams, generate_random_instance
from .jsonio import emit_instance, instance_to_document, parse_instance
from .markets import (
    AffineGame,
    ClassicGame,
    MarketGame,
    TriTable,
    affine_player_cost,
    build_affine_game,
    build_classic_game,
    build_market,
    classic_player_cost,
    market_is_pure_nash,
    market_player_cost,
    reduce_affine_to_priority,
    reduce_classic_to_priority,
    reduce_market_to_playerspecific,
    reduce_priority_to_market,
    tritable_from_function,
)
from .matroids import (
    ExplicitBasesSpace,
    ExplicitSpace,
    GraphicMatroid,
    PartitionMatroid,
    SingletonSpace,
    StrategySpace,
    UniformMatroid,
    exchange_step,
    greedy_min_base,
    is_base,
    lazy_path,
)
from .oracle import (
    CertifyReport,
    EnumerationBudget,
    brute_force_pne,
    certify_trace,
    enumerate_profiles,
)
from .potentials import (
    EQUAL,
    GREATER,
    LESS,
    InsertionPotentialValue,
    LexVector,
    ScalarPotential,
    insertion_potential,
    insertion_potential_compare,
    level_potential,
    lex_compare,
    lex_potential_singleton,
    market_lex_potential,
    tol_value,
)
from .traceio import read_trace_csv, trace_to_csv_text, write_trace_csv

__version__ = "0.1.0"
