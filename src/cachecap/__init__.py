"""cachecap: capacity and entropy-efficiency analysis of caching networks.

Model a network of nodes that store classes of files and read from each
other with per-link transfer times, then ask how much the network can do:

- capacity: the growth exponent (bits per time unit) of the number of
  distinct read sequences a node can complete in a time budget, obtained
  from the largest root of the node's characteristic equation;
- entropy efficiency: the bits per time unit a given access process
  actually achieves, and the i.i.d. access distribution that attains the
  capacity;
- an exact task-counting oracle that validates the solver by brute force
  on grid-valued read times.
"""

from .model import (
    ScenarioError,
    FileClass,
    Node,
    Link,
    Network,
    CatalogEntry,
    EffectiveCatalog,
    build_network,
    load_scenario,
    read_scenario,
    scenario_digest,
    effective_catalog,
    task_time,
)
from .capacity import (
    SolverError,
    CharEquation,
    CharSolve,
    NodeCapacity,
    CapacityResult,
    char_eq_value,
    solve_characteristic,
    solve_characteristic_full,
    equation_for_node,
    catalog_capacity,
    node_capacity,
    network_capacity,
    analyze_network,
    OptimalDistribution,
    optimal_distribution,
)
from .oracle import (
    QuantizedCatalog,
    OraclePoint,
    OracleReport,
    quantize,
    quantize_node,
    infer_grid,
    count_tasks,
    count_series,
    convergence_report,
)
from .entropy import (
    IIDSource,
    MarkovSource,
    EmpiricalSource,
    AccessSource,
    EntropyEstimate,
    EfficiencyResult,
    NetworkEfficiency,
    iid_entropy,
    stationary_distribution,
    markov_entropy_rate,
    block_entropy_estimate,
    entropy_efficiency,
    network_entropy_efficiency,
)
from .traces import (
    SplitMix64,
    Trace,
    sample_iid,
    sample_markov,
    empirical_distribution,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"
