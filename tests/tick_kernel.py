"""Per-tick reference runners.

The engine compiles each beacon cycle, and each slice of a script, into
one schedule: it folds the initiators on a list of states and fills the
schedule's rows with one gather. This is the kernel it replaced,
apply_tick, which runs one tick's poll rounds in place on the state
vector, and the two runners built on it, which copy a row into a
ListRecorder after every tick. Patched over cli.run_agent_sim and
cli.run_matrix_sim, they run the CLI's runs, and the tests compare the
traces bit for bit.
"""

import numpy as np

from gossipsim import engine
from gossipsim.engine import (_ACK, _BEACON, _REQUEST, _WAKE_UP, ANCHOR_SRC, BROADCAST,
                              RunConfig, initial_states)
from gossipsim.errors import SimulationError
from gossipsim.rules import RuleVariant, UpdateRule

from list_recorder import ListRecorder


def apply_tick(x: np.ndarray, ids: list[int], rule: UpdateRule,
               in_nbrs: tuple[np.ndarray, ...], tick: int, log: list | None) -> None:
    """Run one tick's poll rounds on x in place, initiators in ids order."""
    sequential = rule.variant is RuleVariant.NEIGHBORHOOD_SET
    staged = []
    for i in ids:
        nb = in_nbrs[i]
        if not len(nb):
            raise SimulationError(f"node {i} has nobody to poll")
        polled = x[nb].tolist()
        if log is not None:
            for j, v in zip(nb.tolist(), polled):
                log.append((tick, _REQUEST, i, j, None))
                log.append((tick, _ACK, j, i, v))
        if sequential:
            x[nb] = x[i] = rule.fold((*polled, float(x[i])))
            if log is not None:
                log.append((tick, _WAKE_UP, i, BROADCAST, 1))
        else:
            staged.append(rule.fold((*polled, float(x[i]))))
    if not sequential:
        x[ids] = staged
        if log is not None:
            log.extend((tick, _WAKE_UP, i, BROADCAST, 1) for i in ids)


def run_agent_per_tick(cfg: RunConfig, collect_messages: bool = False):
    lay = engine.assign_layers(cfg.graph)
    waves = lay.layer_of == np.arange(1, lay.layer_count + 1)[:, None]
    wave_ids = [np.flatnonzero(w).tolist() for w in waves]
    x0, _ = initial_states(cfg)
    x = x0.copy()
    rec = ListRecorder(cfg.graph, x0, lay.layer_count, cfg.tolerance, collect_messages)
    every = np.arange(cfg.graph.node_count)[None]  # a row's source map into x
    if lay.layer_count == 1:
        rec.judge()
    cycles = 0
    while not rec.converged and cycles < cfg.max_iterations:
        cycles += 1
        if rec.log is not None:
            rec.log.append((rec.rows, _BEACON, ANCHOR_SRC, BROADCAST, None))
        for m in range(lay.layer_count):
            apply_tick(x, wave_ids[m], cfg.rule, cfg.graph.in_neighbors, rec.rows, rec.log)
            rec.record(x, every, waves[m][None])
        rec.judge()
    return rec.finish(lambda updates, _: engine._message_counts(cfg.graph, updates, cycles))


def run_matrix_per_tick(cfg: RunConfig, activation_sequence: np.ndarray,
                        collect_messages: bool = False):
    seq = np.asarray(activation_sequence)
    x, _ = initial_states(cfg)
    rec = ListRecorder(cfg.graph, x, 1, cfg.tolerance, collect_messages)
    every = np.arange(cfg.graph.node_count)[None]
    for k in range(cfg.max_iterations):
        apply_tick(x, np.flatnonzero(seq[k]).tolist(), cfg.rule, cfg.graph.in_neighbors,
                   k + 1, rec.log)
        rec.record(x, every, (seq[k] != 0)[None])
    return rec.finish(lambda updates, _: engine._message_counts(cfg.graph, updates, 0))
