"""Deterministic simulator for duty-cycled gossip averaging on
anchor-rooted sensor networks."""

from .analysis import (
    SpectralReport,
    Trace,
    check_consensus_conditions,
    convergence_rounds,
    convergence_time,
    disagreement_of,
    drift,
    expected_weight_matrix,
    second_eigenvalue_modulus,
    spectral_radius,
)
from .duty_cycle import (
    ActivationMode,
    DutyCycleParams,
    activation_sequence,
    beacon_period,
    stationary_active_fraction,
)
from .engine import (
    RunConfig,
    closed_form_state,
    run_agent_sim,
    run_matrix_sim,
    run_pairwise_baseline,
    step_matrix,
    ticks_per_cycle,
)
from .errors import (
    ConfigError,
    GossipSimError,
    SimulationError,
    TopologyError,
    UnconnectableTopologyError,
)
from .graph import (
    Graph,
    LayerAssignment,
    TopologyParams,
    assign_layers,
    build_topology,
)
from .rules import RuleVariant, UpdateRule

__version__ = "0.1.0"
