"""Exception hierarchy shared across the package.

Kept in one place so the CLI can map error classes to exit codes without
importing every module.
"""


class GossipSimError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigError(GossipSimError):
    """Invalid configuration value, key, or combination."""


class TopologyError(GossipSimError):
    """Graph construction or validation failed."""


class DisconnectedTopologyError(TopologyError):
    """A graph is not connected from its anchor vertex."""


class UnconnectableTopologyError(TopologyError):
    """Random topology sampling exhausted its attempt budget without
    producing a graph that is connected from the anchor vertex."""


class SimulationError(GossipSimError):
    """Protocol rule violated at runtime (for example a state request
    arriving from a node that is not a neighbor)."""
