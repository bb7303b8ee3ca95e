"""Random simple temporal graphs and maximum delta-temporal cliques.

A complete graph with i.i.d. uniform-[0,1] edge labels almost surely has a
largest delta-temporal clique (complete subgraph whose internal labels span
at most delta) of size concentrated around 2 ln n / ln(1/delta).  This
package bundles the closed-form analytics, three solvers (bruteforce /
exact / heuristic), seeded Monte Carlo experiments that test the closed
forms, and a CLI wrapping all of it.
"""

from .analytics import (
    expected_clique_count,
    k0_threshold,
    log_expected_clique_count,
    log_window_probability,
    min_density,
    minmax_joint_density,
    second_moment_overlap_bound,
    window_probability,
)
from .experiments import (
    ExperimentReport,
    PlantedInstance,
    build_planted_instance,
    conjecture2_probe,
    estimate_clique_count,
    estimate_window_probability,
    reduction_experiment,
    threshold_sweep,
)
from .graphs import (
    CliqueResult,
    IntervalTooWide,
    MissingEdge,
    NotADeltaClique,
    TemporalGraph,
    delta_clique_check,
    generate_er,
    generate_random_complete,
    is_delta_clique,
)
from .io import (
    GraphFormatError,
    dumps_temporal_graph,
    loads_temporal_graph,
    read_temporal_graph,
    write_temporal_graph,
)
from .seeds import derive_seed, mix64, uniform_block
from .solver import (
    BRUTEFORCE_MAX_N,
    InfeasibleConfigError,
    SolveResult,
    count_delta_cliques,
    greedy_static_clique,
    max_delta_clique_bruteforce,
    max_delta_clique_exact,
    max_delta_clique_heuristic,
    solve_max_delta_clique,
)

__version__ = "0.1.0"
