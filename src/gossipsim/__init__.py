"""Deterministic simulator for duty-cycled gossip averaging on
anchor-rooted sensor networks."""

from .analysis import (
    SpectralReport,
    Trace,
    check_consensus_conditions,
    disagreement_of,
    expected_weight_matrix,
    second_eigenvalue_modulus,
    spectral_radius,
)
from .duty_cycle import DutyCycleParams, activation_sequence
from .engine import (
    RunConfig,
    run_agent_sim,
    run_matrix_sim,
    run_pairwise_baseline,
    step_matrix,
)
from .errors import (
    ConfigError,
    DisconnectedTopologyError,
    GossipSimError,
    SimulationError,
    TopologyError,
    UnconnectableTopologyError,
)
from .graph import (
    Graph,
    LayerAssignment,
    assign_layers,
    build_topology,
)
from .rules import RuleVariant, UpdateRule

__version__ = "0.1.0"
