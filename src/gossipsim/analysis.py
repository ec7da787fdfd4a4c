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

import io
from dataclasses import InitVar, dataclass, field
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
#: (rows, n) and (rows, arcs) work arrays stay near 2 MiB of float64 each;
#: the engine's recorder chunks and source maps keep the same budget
_BLOCK_CELLS = 1 << 18

#: characters per write of an output file: 256 KiB of the CSVs' ASCII
#: text, and at most 1 MiB of any text once UTF-8 encoded
_WRITE_CHARS = 1 << 18


@dataclass(frozen=True)
class Trace:
    """Recorded run: one row per tick plus the initial row.

    states[k] is the state vector after tick k (states[0] is the initial
    vector) and activations[k] flags the nodes that updated in that tick.
    cycle_ticks is the width of one beacon cycle in ticks, and so in rows;
    sustained convergence is judged over that window against tolerance.
    A trace is built once and never changes: its fields cannot
    be rebound and its row arrays are read-only, so everything derived
    from its rows is computed on first use and kept. judged, when given,
    is the disagreement_rows series of states, already computed (the
    engine's recorder passes the values it judged by), and seeds
    disagreements; dataclasses.replace passes none, so a trace built that
    way computes its own.
    """

    graph: Graph
    states: np.ndarray       # (rows, n) float64
    activations: np.ndarray  # (rows, n) uint8
    cycle_ticks: int
    tolerance: float
    message_counts: dict[str, int] = field(default_factory=dict)
    messages: list[tuple[int, str, int, int, float | int | None]] | None = None
    judged: InitVar[np.ndarray | None] = None

    def __post_init__(self, judged: np.ndarray | None) -> None:
        for rows in (self.states, self.activations):
            rows.flags.writeable = False
        if judged is not None:
            judged.flags.writeable = False
            self.__dict__["disagreements"] = judged

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
        """|mean(x) - x_avg| of every row, each mean from a correctly
        rounded sum, bit for bit as math.fsum gives it; read-only."""
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
            d = np.abs(_row_fsums(self.states) / self.graph.node_count - self.x_avg)
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
        run = sustained_run(self.disagreements < self.tolerance, self.cycle_ticks)
        return None if run is None else run[0]

    @property
    def converged(self) -> bool:
        """Whether the trace has a convergence row."""
        return self.convergence_row is not None

    @property
    def rounds_to_tolerance(self) -> int | None:
        """Convergence row counted in beacon cycles (per-node update rounds).

        Updates of cycle c land on rows c * cycle_ticks + 1 onward, so the
        round count is ceil(row / cycle_ticks): a run converging inside the
        first cycle reports 1, and an initial row already below tolerance
        reports 0. None when the trace never converged.
        """
        k = self.convergence_row
        return None if k is None else -(-k // self.cycle_ticks)

    def total_messages(self) -> int:
        return sum(self.message_counts.values())


def disagreement_of(x: np.ndarray, graph: Graph) -> float:
    """Adjacency-weighted RMS gap of a raw state vector, its arc terms
    summed pairwise, as numpy sums a flat vector; so it can differ in the
    last bits from the vector's row in disagreement_rows."""
    i, j = graph.arcs
    with np.errstate(over="ignore", invalid="ignore"):
        diff = x[i] - x[j]
        return float(np.sqrt((diff * diff).sum() / len(x)))


def disagreement_rows(states: np.ndarray, graph: Graph) -> np.ndarray:
    """Disagreement of every row of a (rows, n) block of states.

    Each row's arc terms are added left to right, in arc order, whatever
    the height of the block, so disagreement_rows(s)[k] is bit-equal to
    disagreement_rows(s[k:k + 1])[0]. The rows go in blocks of at least
    two, unless there is one, and each block carries one accumulator per
    row across chunks of arcs: it adds the accumulators into the chunk's
    first terms, then sums the chunk down its first axis, which numpy
    does in order while a row of the chunk holds two or more values. A
    lone row, which numpy would sum pairwise, takes a cumulative sum,
    which is in order. The (n, rows) and (arcs, rows) work arrays stay
    within about _BLOCK_CELLS cells each. Rows of a diverging run read
    inf or nan without a warning.
    """
    i, j = graph.arcs
    rows, n = states.shape
    out = np.empty(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = max(1, rows // max(2, _BLOCK_CELLS // n))
        for b in range(blocks):
            lo, hi = b * rows // blocks, (b + 1) * rows // blocks
            cols = np.ascontiguousarray(states[lo:hi].T)
            step = max(1, _BLOCK_CELLS // (hi - lo))
            acc = None
            for a in range(0, len(i), step):
                terms = cols[i[a:a + step]]
                terms -= cols[j[a:a + step]]
                terms *= terms
                if acc is not None:
                    np.add(acc, terms[0], out=terms[0])
                acc = terms.sum(axis=0) if rows > 1 else np.cumsum(terms, axis=0)[-1]
            np.sqrt(acc / n, out=out[lo:hi])
    return out


def _two_sum_tree(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float sum down axis 0 of an (m, rows) array, adding its halves
    pairwise in about log2(m) levels, with Knuth's TwoSum error of every
    addition: (total, errors), errors an (m - 1, rows) array. While no
    addition overflows, total plus the exact sum of the errors is the
    exact sum of the column. Overwrites cols with partial sums.
    """
    m, rows = cols.shape
    errors = np.empty((max(m - 1, 0), rows))
    done = 0
    while m > 1:
        h = m // 2
        a, b = cols[:h], cols[h:2 * h]
        s = a + b
        z = s - a
        e = errors[done:done + h]
        np.subtract(s, z, out=e)
        np.subtract(a, e, out=e)  # a - (s - z)
        np.subtract(b, z, out=z)
        e += z
        cols[:h] = s
        if m % 2:  # the odd column moves up a level unpaired
            cols[h] = cols[2 * h]
        done += h
        m = h + m % 2
    return (cols[0] if m else np.zeros(rows)), errors


def _row_fsums(states: np.ndarray) -> np.ndarray:
    """math.fsum of every row of a (rows, n) array, in blocks of rows.

    A TwoSum tree gives each row's float sum hi and its errors; a second
    tree sums those to lo and leaves m errors of its own, whose exact sum
    E2 is at most m times the largest, and so at most the bound 2 m max|e|
    however that product rounds. The exact sum is hi + lo + E2 (Ogita,
    Rump and Oishi, "Accurate Sum and Dot Product", SIAM J. Sci. Comput.,
    2005). With c = fl(hi + lo) and r its exact rounding error, c is the
    correctly rounded sum when E2 is zero, or when |r| plus the bound is
    below half the gap from |c| down to the next float (the smaller gap
    at a power of two). Every other row, and every row with a value that
    is not finite or large enough that a sum could overflow, goes to
    fsum, so the values and the exceptions (OverflowError, ValueError)
    are fsum's.
    """
    rows, n = states.shape
    sums = np.empty(rows)
    step = max(1, _BLOCK_CELLS // (4 * n))  # its four (n, step) work arrays share the budget
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(0, rows, step):
            block = states[b:b + step]
            cols = np.array(block.T, dtype=np.float64, order="C")
            small = np.abs(cols).max(axis=0) < 2.0 ** 1020 / n  # False at nan and inf
            hi, errors = _two_sum_tree(cols)
            lo, rest = _two_sum_tree(errors)
            c = hi + lo
            z = c - hi
            r = (hi - (c - z)) + (lo - z)
            bound = 2.0 * len(rest) * np.abs(rest).max(axis=0, initial=0.0)
            mag = np.abs(c)
            half_gap = 0.5 * (mag - np.nextafter(mag, 0.0))
            exact = small & ((bound == 0.0) | (np.abs(r) + bound < half_gap))
            sums[b:b + step] = c
            for k in np.flatnonzero(~exact).tolist():
                sums[b + k] = fsum(block[k])
    return sums


def sustained_run(ok: np.ndarray, cycle_ticks: int) -> tuple[int, int] | None:
    """First run of cycle_ticks consecutive ok rows: its first row s and
    its last row s + cycle_ticks - 1."""
    rows = np.arange(len(ok))
    start = np.maximum.accumulate(np.where(ok, 0, rows + 1))  # of each ok row's run
    spans = ok & (rows - start >= cycle_ticks - 1)
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

    Row k puts f"{k}," before each of its nodes' f"{i},{x:.17g},{phi}\n"
    parts. A part is rebuilt only where the node's float64 bit pattern or
    activation flag differs from the previous row's (comparing bits, not
    values, keeps -0.0 after 0.0 and NaN payload changes exact); a chain
    row changes about 3 of its 50. A neighborhood-set fold writes one
    value to its whole closed neighbourhood, so the changed cells of a
    block of rows hold few distinct values: each distinct bit pattern is
    formatted once. Every field but x is an integer, so no field ever
    needs CSV quoting. Rows are written about _WRITE_CHARS at a time.
    """
    fh.write("iteration,node_id,x,phi\n")
    n = trace.graph.node_count
    states = np.ascontiguousarray(trace.states, dtype=np.float64)
    bits = states.view(np.int64)
    acts = trace.activations
    parts = [""] * (n + 1)  # a first empty part, so that a row is f"{k},".join(parts)
    batch, size = [], 0
    step = max(1, _BLOCK_CELLS // n)
    for b in range(0, trace.iterations, step):
        e = min(trace.iterations, b + step)
        if b:
            changed = (bits[b:e] != bits[b - 1:e - 1]) | (acts[b:e] != acts[b - 1:e - 1])
        else:  # the first row formats every part
            changed = np.ones((e, n), dtype=bool)
            changed[1:] = (bits[1:e] != bits[:e - 1]) | (acts[1:e] != acts[:e - 1])
        r, c = np.nonzero(changed)
        values, index = np.unique(bits[b:e][r, c], return_inverse=True)
        texts = [f"{x:.17g}" for x in values.view(np.float64).tolist()]
        cells = zip(c.tolist(), index.tolist(), acts[b:e][r, c].tolist())
        counts = np.bincount(r, minlength=e - b).tolist()
        for k, m in zip(range(b, e), counts):
            for _, (i, x, a) in zip(range(m), cells):
                parts[i + 1] = f"{i},{texts[x]},{a}\n"
            row = f"{k},".join(parts)
            batch.append(row)
            size += len(row)
            if size >= _WRITE_CHARS:
                fh.write("".join(batch))
                batch, size = [], 0
    fh.write("".join(batch))


def write_messages_csv(trace: Trace, fh) -> None:
    """message CSV: time, kind, src, dst, payload (dst -1 = broadcast).

    One line per message, the payload empty when there is none and a
    float one to 17 significant digits, as format_value writes it. Kinds
    are plain words and every other field a number, so no field ever
    needs CSV quoting. Lines are written about _WRITE_CHARS at a time.
    """
    fh.write("time,kind,src,dst,payload\n")
    messages = trace.messages or []
    step = max(1, _WRITE_CHARS // 32)  # a line is about 32 characters
    for lo in range(0, len(messages), step):
        lines = []
        for t, kind, src, dst, v in messages[lo:lo + step]:
            cell = "" if v is None else f"{v:.17g}" if type(v) is float else format_value(v)
            lines.append(f"{t},{kind},{src},{dst},{cell}\n")
        fh.write("".join(lines))


def metrics_csv_text(trace: Trace) -> str:
    """metrics CSV: iteration, drift, disagreement (one row per event).

    Drift takes few distinct values (4 over the chain preset's 46,969
    rows), so each is formatted once; being an absolute value, it is
    never -0.0, which would share a cell with 0.0.
    """
    values, index = np.unique(trace.drifts, return_inverse=True)
    cells = [f"{d:.17g}" for d in values.tolist()]
    rows = zip(index.tolist(), trace.disagreements.tolist())
    return "iteration,drift,disagreement\n" + "".join(
        f"{k},{cells[d]},{e:.17g}\n" for k, (d, e) in enumerate(rows))


def trace_csv_text(trace: Trace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()
