"""Closed-form oracle for scripted runs: the state at step k as the
explicit product (W_k ... W_1) x0, W_j the step_matrix of activation row
j, instead of the engine's recursion. No run calls it.

Mathematically equal to run_matrix_sim's row k; numerically it takes an
entirely different path, which is what makes it a useful cross-check.
"""

import numpy as np

from gossipsim import ConfigError, RunConfig, step_matrix
from gossipsim.engine import initial_states


def closed_form_state(cfg: RunConfig, activation_sequence: np.ndarray,
                      k: int) -> np.ndarray:
    seq = np.asarray(activation_sequence)
    if not (0 <= k <= seq.shape[0]):
        raise ConfigError(f"step {k} outside the scripted sequence of {seq.shape[0]}")
    w = np.eye(cfg.graph.node_count)
    for phi in seq[:k]:
        w = step_matrix(cfg.graph, cfg.rule, phi) @ w
    return w @ initial_states(cfg)[0]
