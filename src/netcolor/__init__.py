"""Simulator and verification suite for decentralized graph coloring games.

Players on a graph each hold one of k colors and are happy when no
neighbor shares theirs. Unhappy players resample every round: greedily
(from colors no neighbor uses, needs k >= max_degree + 2) or frugally
(own color plus unused colors, needs only k >= max_degree + 1). The
package simulates these games at scale, enumerates them exactly when
small, and checks the known probabilistic guarantees on both routes.
"""

from .bounds import (
    BoundReport,
    DominanceReport,
    check_dominance,
    envelope_max_objective,
    frugal_bounds,
    greedy_bound,
    max_expectation_bound,
    mu,
)
from .campaign import (
    CampaignResult,
    CampaignSummary,
    ExperimentSpec,
    resolve_k,
    run_campaign,
    sweep,
)
from .engine import (
    ColoringState,
    GameConfig,
    History,
    RoundRecord,
    Strategy,
    TrialResult,
    available_set,
    initial_state,
    is_happy,
    is_proper,
    run,
    step,
    unhappy_vertices,
)
from .errors import (
    ConfigError,
    ContractViolation,
    EnumerationLimitError,
    GraphFormatError,
    IllegalPaletteError,
    NetcolorError,
)
from .graph import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    from_edge_list,
    generate,
    path_graph,
    read_edge_list,
    star_graph,
    write_edge_list,
)
from .oracle import (
    AvailableSizeCheck,
    Distribution,
    ExpectedTau,
    NeighborPartition,
    available_size_distribution,
    exact_expected_tau,
    one_round_distribution,
    partition_neighbors,
    two_round_floor_holds,
    two_round_happiness_prob,
)

__version__ = "0.1.0"
