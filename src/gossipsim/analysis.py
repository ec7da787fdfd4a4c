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
from math import fsum

import numpy as np

from .graph import Graph
from .rules import RuleVariant, UpdateRule

#: treat eigenvalue moduli closer than this as one multiplicity cluster,
#: and use the same tolerance for stochasticity checks
SPECTRAL_TOL = 1e-9

#: cells per block of rows in the passes over a whole trace, so that their
#: (rows, n) and (rows, arcs) work arrays stay near 2 MiB of float64 each
_BLOCK_CELLS = 1 << 18

#: trace row templates kept at once, one per distinct activation row
_MAX_TEMPLATES = 4096


@dataclass
class Trace:
    """Recorded run: one row per update event plus the initial row.

    states[k] is the state vector after the k-th recorded event
    (states[0] is the initial vector), activations[k] flags the nodes
    that updated in that event, and ticks[k] is the integer wall-clock
    slot it happened in. cycle_ticks is the width of one beacon cycle in
    ticks; sustained convergence is judged over that window.
    """

    graph: Graph
    states: np.ndarray       # (rows, n) float64
    activations: np.ndarray  # (rows, n) uint8
    ticks: np.ndarray        # (rows,) int64
    cycle_ticks: int
    x_avg: float
    converged: bool = False
    message_counts: dict[str, int] = field(default_factory=dict)
    messages: list[tuple[int, str, int, int, float | int | None]] | None = None

    @property
    def iterations(self) -> int:
        return self.states.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def total_messages(self) -> int:
        return sum(self.message_counts.values())


def make_trace(graph: Graph, x0: np.ndarray, cycle_ticks: int) -> Trace:
    """Fresh trace holding only the initial row."""
    x0 = np.asarray(x0, dtype=float)
    n = graph.node_count
    return Trace(
        graph=graph,
        states=x0.reshape(1, n).copy(),
        activations=np.zeros((1, n), dtype=np.uint8),
        ticks=np.zeros(1, dtype=np.int64),
        cycle_ticks=max(1, int(cycle_ticks)),
        x_avg=fsum(x0) / n,
    )


def drift(trace: Trace, k: int) -> float:
    """Absolute deviation of the mean at row k from the initial mean."""
    x = trace.states[k]
    return abs(fsum(x) / len(x) - trace.x_avg)


def drift_series(trace: Trace) -> np.ndarray:
    return np.array([drift(trace, k) for k in range(trace.iterations)])


def disagreement_of(x: np.ndarray, graph: Graph) -> float:
    """Adjacency-weighted RMS gap of a raw state vector."""
    i, j = graph.arcs
    if len(i) == 0:
        return 0.0
    diff = x[i] - x[j]
    return float(np.sqrt((diff * diff).sum() / graph.node_count))


def disagreement(trace: Trace, k: int) -> float:
    return disagreement_of(trace.states[k], trace.graph)


def disagreement_series(trace: Trace) -> np.ndarray:
    """Disagreement of every row, in blocks of rows so that the (rows,
    arcs) temporaries stay within about 2 * _BLOCK_CELLS cells.

    numpy sums the arcs of a one-row array pairwise but each row of a
    taller array left to right, so every block holds at least two rows
    unless the trace has one: the values are then those of one pass over
    the whole trace. disagreement_of sums its single row pairwise, so it
    can differ from the series in the last bits.
    """
    i, j = trace.graph.arcs
    if len(i) == 0:
        return np.zeros(trace.iterations)
    step = max(2, _BLOCK_CELLS // len(i))
    parts = []
    for block in np.array_split(trace.states, max(1, trace.iterations // step)):
        diff = block[:, i] - block[:, j]
        parts.append(np.sqrt((diff * diff).sum(axis=1) / trace.graph.node_count))
    return np.concatenate(parts)


def convergence_time(trace: Trace, tol: float) -> int | None:
    """First row index from which disagreement stays below tol for a
    full beacon cycle.

    Returns None when the trace never sustains tol for cycle_ticks
    worth of wall clock (a tail shorter than one cycle only counts if
    the engine stopped the run as converged).
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    eps = disagreement_series(trace)
    ok = eps < tol
    ticks = trace.ticks
    rows = trace.iterations
    bad_after = np.full(rows, rows, dtype=np.int64)  # first bad row at or after k
    nxt = rows
    for k in range(rows - 1, -1, -1):
        if not ok[k]:
            nxt = k
        bad_after[k] = nxt
    for k in range(rows):
        if not ok[k]:
            continue
        window_end = ticks[k] + trace.cycle_ticks  # exclusive
        j = bad_after[k]
        if j < rows and ticks[j] < window_end:
            continue  # a violation inside the window
        covered = ticks[rows - 1] >= window_end - 1
        if covered or trace.converged:
            return k
    return None


def convergence_rounds(trace: Trace, tol: float) -> int | None:
    """Convergence time counted in beacon cycles (per-node update rounds).

    Updates of cycle c land on ticks c * cycle_ticks + 1 onward, so the
    round count is ceil(tick / cycle_ticks): a run converging inside the
    first cycle reports 1, and an initial row already at tol reports 0.
    Returns None when the trace never converged.
    """
    k = convergence_time(trace, tol)
    if k is None:
        return None
    t = int(trace.ticks[k])
    return -(-t // trace.cycle_ticks)


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    return float(np.abs(np.linalg.eigvals(m)).max())


def second_eigenvalue_modulus(m: np.ndarray, tol: float = SPECTRAL_TOL) -> float:
    """Modulus of the second-largest eigenvalue.

    Moduli within tol of the top value are treated as one multiplicity
    cluster: the identity reports 1 (its top cluster is everything), a
    rank-one projector reports 0.
    """
    mods = np.sort(np.abs(np.linalg.eigvals(np.asarray(m, dtype=float))))[::-1]
    if len(mods) < 2:
        return 0.0
    top = mods[0]
    below = mods[mods < top - tol]
    if len(below) == 0:
        return float(mods[1])
    return float(below[0])


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
        lines = []
        for name in self.CSV_FIELDS:
            val = getattr(self, name)
            if isinstance(val, bool):
                lines.append(f"{name}={str(val).lower()}")
            elif isinstance(val, float):
                lines.append(f"{name}={val:.17g}")
            else:
                lines.append(f"{name}={val}")
        return "\n".join(lines) + "\n"

    def to_csv_row(self) -> list[str]:
        out = []
        for name in self.CSV_FIELDS:
            val = getattr(self, name)
            if isinstance(val, bool):
                out.append(str(val).lower())
            elif isinstance(val, float):
                out.append(f"{val:.17g}")
            else:
                out.append(str(val))
        return out


def check_consensus_conditions(w: np.ndarray, label: str = "",
                               tol: float = SPECTRAL_TOL) -> SpectralReport:
    """Evaluate the four convergence conditions on an averaging matrix.

    Row stochasticity and lambda2 < 1 certify consensus on some value;
    column stochasticity and rho(W - J) < 1 upgrade that to consensus on
    the exact initial average.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"need a square matrix, got shape {w.shape}")
    n = w.shape[0]
    ones = np.ones(n)
    row_ok = bool(np.abs(w @ ones - ones).max() <= tol)
    col_ok = bool(np.abs(ones @ w - ones).max() <= tol)
    lam2 = second_eigenvalue_modulus(w, tol)
    jmat = np.full((n, n), 1.0 / n)
    rho_c = spectral_radius(w - jmat)
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


def single_active_matrix(g: Graph, i: int, rule: UpdateRule) -> np.ndarray:
    """Effective full-state matrix when only node i runs one update.

    Inactive rows hold their value (identity), which is what the engine
    does; the neighborhood-set variant also rewrites the polled
    neighbors' rows with the common average.
    """
    n = g.node_count
    nbrs = np.flatnonzero(g.adjacency[:, i])
    if len(nbrs) == 0:
        raise ValueError(f"node {i} has no in-neighbors")
    w = np.eye(n)
    if rule.variant is RuleVariant.NEIGHBORHOOD_SET:
        s = np.append(nbrs, i)
        w[np.ix_(s, s)] = 1.0 / len(s)
        mask = np.ones(n, dtype=bool)
        mask[s] = False
        for r in s:
            w[r, mask] = 0.0
    elif rule.variant is RuleVariant.PURE_NEIGHBOR:
        w[i, :] = 0.0
        w[i, nbrs] = 1.0 / len(nbrs)
    elif rule.variant is RuleVariant.SELF_ADDITIVE:
        w[i, nbrs] = 1.0 / len(nbrs)
    else:
        raise ValueError("pairwise baseline has no single-active matrix; "
                         "use expected_weight_matrix")
    return w


def expected_weight_matrix(g: Graph, rule: UpdateRule | None = None) -> np.ndarray:
    """Expected one-step matrix under the uniform activation model.

    Exact enumeration, no sampling: for the poll-round rules each node is
    the single active updater with probability 1/n; for the pairwise
    baseline the initiator is uniform and its partner uniform among its
    neighbors (that expectation is exactly the pairwise averaging
    matrix).
    """
    if rule is None:
        rule = UpdateRule()
    n = g.node_count
    if rule.variant is RuleVariant.PAIRWISE_BASELINE:
        from .graph import consensus_weight_matrix
        return consensus_weight_matrix(g, rule)
    acc = np.zeros((n, n))
    for i in range(n):
        acc += single_active_matrix(g, i, rule)
    return acc / n


def write_metrics_csv(trace: Trace, fh) -> None:
    """metrics CSV: iteration, drift, disagreement (one row per event)."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["iteration", "drift", "disagreement"])
    d = drift_series(trace)
    e = disagreement_series(trace)
    for k in range(trace.iterations):
        w.writerow([k, f"{d[k]:.17g}", f"{e[k]:.17g}"])


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
        pl = "" if payload is None else f"{payload:.17g}" if isinstance(payload, float) else str(payload)
        w.writerow([time, kind, src, dst, pl])


def metrics_csv_text(trace: Trace) -> str:
    buf = io.StringIO()
    write_metrics_csv(trace, buf)
    return buf.getvalue()


def trace_csv_text(trace: Trace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()
