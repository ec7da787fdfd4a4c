"""Per-exchange reference runner for the pairwise baseline.

The engine runs a block of exchanges on a list of the states, takes the
nodes of all of them from one bulk draw of the rng's 32-bit words and
gathers the block's rows in one call. This is the loop it replaced: one
scalar rng.integers call per draw, the exchange applied to a numpy state
vector, and one copy of that vector recorded per exchange, in a
ListRecorder judged after every n exchanges and after the last. The
tests compare its traces with the engine's bit for bit.
"""

import numpy as np

from gossipsim.engine import _ACK, _REQUEST, RunConfig, initial_states

from list_recorder import ListRecorder


def run_pairwise_per_exchange(cfg: RunConfig, collect_messages: bool = False):
    g = cfg.graph
    n = g.node_count
    alpha = cfg.rule.alpha
    x, rng = initial_states(cfg)
    rec = ListRecorder(g, x, n, cfg.tolerance, collect_messages)
    nbrs = g.in_neighbors
    active = np.zeros(n, dtype=np.uint8)
    for k in range(1, cfg.max_iterations + 1):
        i = int(rng.integers(n))
        j = int(nbrs[i][rng.integers(len(nbrs[i]))])
        delta = alpha * (x[j] - x[i])
        x[i] += delta
        x[j] -= delta
        if rec.log is not None:
            rec.log.append((k, _REQUEST, i, j, None))
            rec.log.append((k, _ACK, j, i, float(x[j])))
        active[:] = 0
        active[[i, j]] = 1
        rec.record(x, np.arange(n)[None], active[None])
        if (k % n == 0 or k == cfg.max_iterations) and rec.judge():
            break
    return rec.finish(lambda updates, rows: dict.fromkeys((_REQUEST, _ACK), rows - 1))
