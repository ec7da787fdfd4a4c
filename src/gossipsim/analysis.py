"""Run traces, convergence metrics, and spectral certification.

Two scalar metrics summarize a state vector x against the graph:

* drift: |mean(x) - x_avg|, where x_avg is the exact mean of the initial
  states. Any nonzero drift means the dynamics leaked mass.
* disagreement: sqrt((1/n) * sum_ij A_ij (x_i - x_j)^2) over ordered
  adjacent pairs, zero exactly at consensus.

Spectral certification works on an averaging matrix (usually the
expected one under an activation model): row stochasticity plus a
second eigenvalue strictly inside the unit circle certify consensus;
adding column stochasticity and rho(W - J) < 1, with J the uniform
projector, certifies convergence to the exact average.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from math import fsum

import numpy as np

from .errors import ConfigError
from .graph import Graph
from .rules import RuleVariant, UpdateRule, update_block

#: treat eigenvalue moduli closer than this as one multiplicity cluster,
#: and use the same tolerance for stochasticity checks
SPECTRAL_TOL = 1e-9

#: cells per block of rows in the passes over a whole trace, so that their
#: (rows, n) and (rows, arcs) work arrays stay near 2 MiB of float64 each
_BLOCK_CELLS = 1 << 18

#: trace row templates kept at once, one per distinct activation row
_MAX_TEMPLATES = 4096


@dataclass(frozen=True)
class Trace:
    """Recorded run: one row per update event plus the initial row.

    states[k] is the state vector after the k-th recorded event
    (states[0] is the initial vector), activations[k] flags the nodes
    that updated in that event, and ticks[k] is the integer wall-clock
    slot it happened in. cycle_ticks is the width of one beacon cycle in
    ticks; sustained convergence is judged over that window against
    tolerance. A trace is built once and never changes: its fields cannot
    be rebound and its row arrays are read-only, so everything derived
    from its rows is computed on first use and kept.
    """

    graph: Graph
    states: np.ndarray       # (rows, n) float64
    activations: np.ndarray  # (rows, n) uint8
    ticks: np.ndarray        # (rows,) int64
    cycle_ticks: int
    tolerance: float
    message_counts: dict[str, int] = field(default_factory=dict)
    messages: list[tuple[int, str, int, int, float | int | None]] | None = None

    def __post_init__(self) -> None:
        for rows in (self.states, self.activations, self.ticks):
            rows.flags.writeable = False

    @property
    def iterations(self) -> int:
        return self.states.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @cached_property
    def x_avg(self) -> float:
        """Exact mean of the initial states."""
        return fsum(self.states[0]) / self.graph.node_count

    @cached_property
    def drifts(self) -> np.ndarray:
        """|mean(x) - x_avg| of every row, each mean an exact fsum;
        read-only."""
        n, avg = self.graph.node_count, self.x_avg
        d = np.array([abs(fsum(x) / n - avg) for x in self.states])
        d.flags.writeable = False
        return d

    @cached_property
    def disagreements(self) -> np.ndarray:
        """Disagreement of every row, read-only, so that metrics.csv and
        the run's verdict share one pass."""
        e = disagreement_rows(self.states, self.graph)
        e.flags.writeable = False
        return e

    @cached_property
    def convergence_row(self) -> int | None:
        """First row from which disagreement stays below tolerance for a
        full beacon cycle, by sustained_run; None if it never does."""
        run = sustained_run(self.disagreements < self.tolerance, self.ticks,
                            self.cycle_ticks)
        return None if run is None else run[0]

    @property
    def converged(self) -> bool:
        """Whether the trace has a convergence row."""
        return self.convergence_row is not None

    @property
    def rounds_to_tolerance(self) -> int | None:
        """Convergence row counted in beacon cycles (per-node update rounds).

        Updates of cycle c land on ticks c * cycle_ticks + 1 onward, so the
        round count is ceil(tick / cycle_ticks): a run converging inside the
        first cycle reports 1, and an initial row already below tolerance
        reports 0. None when the trace never converged.
        """
        k = self.convergence_row
        return None if k is None else -(-int(self.ticks[k]) // self.cycle_ticks)

    def total_messages(self) -> int:
        return sum(self.message_counts.values())


def disagreement_of(x: np.ndarray, graph: Graph) -> float:
    """Adjacency-weighted RMS gap of a raw state vector."""
    return float(disagreement_rows(x[None], graph)[0])


def disagreement_rows(states: np.ndarray, graph: Graph) -> np.ndarray:
    """Disagreement of every row of a (rows, n) block of states, in
    blocks of rows so that the (arcs, rows) temporaries stay within
    about 2 * _BLOCK_CELLS cells.

    Summing an (arcs, rows) array over its arcs adds each row's terms
    left to right, except that numpy sums a single row pairwise. So every
    block holds at least two rows unless states has one: a row's value
    then does not depend on the rows around it. disagreement_of passes
    its vector as a one-row block, so it sums pairwise and can differ
    from a row of a taller block in the last bits. Rows of a diverging
    run read inf or nan without a warning.
    """
    i, j = graph.arcs
    rows = states.shape[0]
    step = max(2, _BLOCK_CELLS // len(i))
    parts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for block in np.array_split(states, max(1, rows // step)):
            cols = np.ascontiguousarray(block.T)
            diff = np.take(cols, i, axis=0) - np.take(cols, j, axis=0)
            parts.append(np.sqrt((diff * diff).sum(axis=0) / graph.node_count))
    return np.concatenate(parts)


def sustained_run(ok: np.ndarray, ticks: np.ndarray,
                  cycle_ticks: int) -> tuple[int, int] | None:
    """First run of ok rows whose ticks span cycle_ticks: its first row s
    and the first row k with ticks[k] - ticks[s] >= cycle_ticks - 1."""
    rows = np.arange(len(ok))
    start = np.maximum.accumulate(np.where(ok, 0, rows + 1))  # of each ok row's run
    spans = ok & (ticks - ticks[np.minimum(start, rows[-1])] >= cycle_ticks - 1)
    hit = np.flatnonzero(spans)
    return (int(start[hit[0]]), int(hit[0])) if len(hit) else None


def _square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    return m


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Spectrum of a square float matrix: the symmetric solver when m
    equals its transpose bit for bit, the general one otherwise."""
    if np.array_equal(m, m.T):
        return np.linalg.eigvalsh(m)
    return np.linalg.eigvals(m)


def _second_modulus(eigs: np.ndarray, tol: float) -> float:
    mods = np.sort(np.abs(eigs))[::-1]
    if len(mods) < 2:
        return 0.0
    top = mods[0]
    below = mods[mods < top - tol]
    if len(below) == 0:
        return float(mods[1])
    return float(below[0])


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus."""
    return float(np.abs(_eigenvalues(_square(m))).max())


def second_eigenvalue_modulus(m: np.ndarray, tol: float = SPECTRAL_TOL) -> float:
    """Modulus of the second-largest eigenvalue.

    Moduli within tol of the top value are treated as one multiplicity
    cluster: the identity reports 1 (its top cluster is everything), a
    rank-one projector reports 0. A negative eigenvalue counts by its
    modulus.
    """
    return _second_modulus(_eigenvalues(_square(m)), tol)


def format_value(v) -> str:
    """One output cell: lower-case bools, floats to 17 significant digits
    (enough to round-trip float64), anything else through str."""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@dataclass(frozen=True)
class SpectralReport:
    """Certification summary for one averaging matrix."""

    label: str
    size: int
    row_stochastic: bool
    column_stochastic: bool
    lambda2: float
    lambda2_below_one: bool
    rho_centered: float  # spectral radius of W - J
    rho_centered_below_one: bool
    certified_consensus: bool
    certified_average: bool

    CSV_FIELDS = ("label", "size", "row_stochastic", "column_stochastic",
                  "lambda2", "lambda2_below_one", "rho_centered",
                  "rho_centered_below_one", "certified_consensus",
                  "certified_average")

    def to_text(self) -> str:
        return "".join(f"{name}={val}\n" for name, val in self.to_csv_row().items())

    def to_csv_row(self) -> dict[str, str]:
        return {name: format_value(getattr(self, name)) for name in self.CSV_FIELDS}


def check_consensus_conditions(w: np.ndarray, label: str = "",
                               tol: float = SPECTRAL_TOL) -> SpectralReport:
    """Evaluate the four convergence conditions on an averaging matrix.

    Row stochasticity and lambda2 < 1 certify consensus on some value;
    column stochasticity and rho(W - J) < 1 upgrade that to consensus on
    the exact initial average.

    W's spectrum is solved once. A doubly stochastic W commutes with J
    and leaves the complement of the ones vector invariant, so
    spec(W - J) is spec(W) with one eigenvalue 1 replaced by 0; only a
    matrix that is not doubly stochastic has W - J solved as well.
    """
    w = _square(w)
    n = w.shape[0]
    ones = np.ones(n)
    row_ok = bool(np.abs(w @ ones - ones).max() <= tol)
    col_ok = bool(np.abs(ones @ w - ones).max() <= tol)
    eigs = _eigenvalues(w)
    lam2 = _second_modulus(eigs, tol)
    if row_ok and col_ok:
        centered = np.delete(eigs, np.argmin(np.abs(eigs - 1.0)))
        rho_c = float(np.abs(centered).max()) if len(centered) else 0.0
    else:
        rho_c = spectral_radius(w - np.full((n, n), 1.0 / n))
    lam2_ok = lam2 < 1.0 - tol
    rho_ok = rho_c < 1.0 - tol
    consensus = row_ok and lam2_ok
    average = consensus and col_ok and rho_ok
    return SpectralReport(
        label=label, size=n,
        row_stochastic=row_ok, column_stochastic=col_ok,
        lambda2=lam2, lambda2_below_one=lam2_ok,
        rho_centered=rho_c, rho_centered_below_one=rho_ok,
        certified_consensus=consensus, certified_average=average)


def expected_weight_matrix(g: Graph, rule: UpdateRule | None = None) -> np.ndarray:
    """Expected one-step matrix under the uniform activation model.

    Exact enumeration, no sampling: each node is the initiator with
    probability 1/n, and its update block replaces its rows of the
    identity. For the pairwise baseline the block is the mean exchange
    over the initiator's neighbors, so the result is exactly the pairwise
    averaging matrix of Boyd, Ghosh, Prabhakar and Shah, "Randomized
    Gossip Algorithms", IEEE Trans. Inf. Theory, 2006.
    """
    if rule is None:
        rule = UpdateRule()
    if rule.variant is RuleVariant.PAIRWISE_BASELINE and g.directed:
        raise ConfigError("pairwise baseline is defined for undirected graphs only")
    n = g.node_count
    w = np.eye(n)
    for i in range(n):
        rows, cols, b = update_block(g, i, rule)
        w[np.ix_(rows, cols)] += b / n
        w[rows, rows] -= 1.0 / n
    return w


def write_trace_csv(trace: Trace, fh) -> None:
    """trace CSV in long form: iteration, node_id, x, phi.

    Each x cell is f"{x:.17g}". A chain row changes only a few of its
    values, so one formatted cell per node is kept and reformatted only
    where the row's float64 bit pattern differs from the previous row's
    (comparing bits, not values, keeps -0.0 after 0.0 and NaN payload
    changes exact). Every other field is an integer, so no field ever
    needs CSV quoting, and each row is one %-substitution into a template
    cached by the row's activation bytes.
    """
    fh.write("iteration,node_id,x,phi\n")
    n = trace.graph.node_count
    states = np.ascontiguousarray(trace.states, dtype=np.float64)
    bits = states.view(np.int64)
    acts = trace.activations
    templates: dict[bytes, str] = {}
    # the iteration goes into the even slots, node i's cell into slot 2i + 1
    args = [""] * (2 * n)
    step = max(1, _BLOCK_CELLS // n)
    for b in range(0, trace.iterations, step):
        e = min(trace.iterations, b + step)
        if b:
            changed = bits[b:e] != bits[b - 1:e - 1]
        else:  # the first row formats every cell
            changed = np.ones((e, n), dtype=bool)
            changed[1:] = bits[1:e] != bits[:e - 1]
        r, c = np.nonzero(changed)
        vals = states[b:e][r, c].tolist()
        slots = (2 * c + 1).tolist()
        ends = np.searchsorted(r, np.arange(1, e - b + 1)).tolist()
        lo = 0
        for k, hi in zip(range(b, e), ends):
            for slot, x in zip(slots[lo:hi], vals[lo:hi]):
                args[slot] = f"{x:.17g}"
            lo = hi
            key = acts[k].tobytes()
            tmpl = templates.get(key)
            if tmpl is None:
                if len(templates) >= _MAX_TEMPLATES:  # rows that rarely repeat
                    templates.clear()
                tmpl = templates[key] = "".join(
                    f"%s,{i},%s,{int(a)}\n" for i, a in enumerate(acts[k].tolist()))
            args[0::2] = [str(k)] * n
            fh.write(tmpl % tuple(args))


def write_messages_csv(trace: Trace, fh) -> None:
    """message CSV: time, kind, src, dst, payload (dst -1 = broadcast)."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["time", "kind", "src", "dst", "payload"])
    for time, kind, src, dst, payload in (trace.messages or []):
        w.writerow([time, kind, src, dst, "" if payload is None else format_value(payload)])


def metrics_csv_text(trace: Trace) -> str:
    """metrics CSV: iteration, drift, disagreement (one row per event)."""
    rows = zip(trace.drifts.tolist(), trace.disagreements.tolist())
    return "iteration,drift,disagreement\n" + "".join(
        f"{k},{d:.17g},{e:.17g}\n" for k, (d, e) in enumerate(rows))


def trace_csv_text(trace: Trace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()
