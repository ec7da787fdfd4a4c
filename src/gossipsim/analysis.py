"""Run traces, convergence metrics, and spectral certification.

Two scalar metrics summarize a state vector x against the graph:

* drift: |mean(x) - x_avg|, where x_avg is the exact mean of the initial
  states. Any nonzero drift means the dynamics leaked mass.
* disagreement: sqrt((1/n) * sum_ij A_ij (x_i - x_j)^2) over ordered
  adjacent pairs, zero exactly at consensus.

One function, row_chunks, gathers rows out of the blocks a run keeps
them in, _BLOCK_CELLS cells at a time: the engine's recorder judges
every row through it, once, and the series it judges by becomes the
trace's disagreements; every pass over a finished trace reads its rows
through it too, by Trace.row_blocks. The row kernels take the chunk
they are given and allocate no work array larger than that budget: the
drift sums' trees, which run in place on the chunk with one work array
shared by all the chunks of a pass, the judge's arc terms
(disagreement_rows, which takes a chunk of fewer than _SHORT_ROWS rows
a row at a time) and the trace writer's lists of changed cells all keep
to it.

Beyond the chunks, a pass over a finished trace keeps only its result:
the drifts are summed into the one array they are kept in, the window
rule (sustained_run) reads the rows where a series switches rather than
arrays of its length, and the output texts are made a piece at a time:
trace.csv a row at a time by trace_csv_texts, metrics.csv a block of
rows at a time by metrics_csv_blocks, messages.csv a line at a time by
messages_csv_texts, so that no text of a whole file is built. This
module only makes text; the CLI's one writer, cli._write_text, opens
every output file and writes the texts in batches of _WRITE_CHARS.

Spectral certification works on an averaging matrix (usually the
expected one under an activation model): row stochasticity plus a
second eigenvalue strictly inside the unit circle certify consensus;
adding column stochasticity and rho(W - J) < 1, with J the uniform
projector, certifies convergence to the exact average.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
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

#: cells per chunk of rows that row_chunks gathers, so that a chunk's
#: states take 512 KiB of float64. The one budget: the engine's scripted
#: and pairwise blocks and the duty cycle's blocks of draws read it from
#: here when they run. The work arrays of a pass hold no more each: the
#: row sums' one work array a budget, the judge's two arrays of arc
#: terms half of one, the trace writer's cells a sixty-fourth
_BLOCK_CELLS = 1 << 16

#: chunks of fewer rows than this are taken a row at a time: summed down
#: their first axis, their arc terms would run inner loops of two or three
#: values (measured slower than a row's cumulative sum at n = 4000 to 10^5)
_SHORT_ROWS = 4

#: characters per write of an output file: cli._write_text joins its
#: texts into writes of at least this many, 64 KiB of the CSVs' ASCII
#: text. Larger batches measured no faster on narrow rows and slower on
#: wide ones, whose joined and encoded copies then outgrow what the
#: allocator reuses
_WRITE_CHARS = 1 << 16


@dataclass(frozen=True)
class Trace:
    """Recorded run: one row per tick plus the initial row.

    Row k holds the state vector after tick k (row 0 is the initial
    vector) and the activation flags of the nodes that updated in that
    tick. The rows are kept as the engine's kernel made them: blocks,
    each a triple (values, src, acts) whose rows are the states
    values.take(src) and the flags acts, src and acts being (rows, n)
    arrays; the blocks' rows follow one another. Every pass over the rows
    reads them through row_blocks; states and activations build the
    whole arrays, for a reader that wants them once.
    cycle_ticks is the width of one beacon cycle in ticks, and so in rows;
    sustained convergence is read over that window against tolerance.
    disagreements is the disagreement of every row, as the engine's
    recorder computed it, so that metrics.csv and the run's verdict share
    one pass; dataclasses.replace carries it to the new trace.
    A trace is built once and never changes: its fields cannot
    be rebound and its arrays are read-only, so everything derived
    from its rows is computed on first use and kept.
    """

    graph: Graph
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    cycle_ticks: int
    tolerance: float
    disagreements: np.ndarray
    message_counts: dict[str, int] = field(default_factory=dict)
    messages: list[tuple[int, str, int, int, float | int | None]] | None = None

    def __post_init__(self) -> None:
        for block in self.blocks:
            for a in block:
                a.flags.writeable = False
        self.disagreements.flags.writeable = False

    @cached_property
    def iterations(self) -> int:
        return sum(len(src) for _, src, _ in self.blocks)

    def row_blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Every row, as row_chunks gives them."""
        return row_chunks(self.blocks)

    @property
    def states(self) -> np.ndarray:
        """Every row's states, as one read-only (rows, n) array built on
        each call from copies of row_blocks' chunks."""
        out = np.concatenate([states.copy() for _, states, _ in self.row_blocks()])
        out.flags.writeable = False
        return out

    @property
    def activations(self) -> np.ndarray:
        """Every row's activation flags, as one read-only (rows, n) array
        built on each call."""
        out = np.concatenate([acts for _, _, acts in self.blocks])
        out.flags.writeable = False
        return out

    @property
    def final_state(self) -> np.ndarray:
        values, src, _ = self.blocks[-1]
        return values[src[-1]]

    @cached_property
    def x_avg(self) -> float:
        """Exact mean of the initial states."""
        values, src, _ = self.blocks[0]
        return fsum(values[src[0]]) / self.graph.node_count

    @cached_property
    def drifts(self) -> np.ndarray:
        """|mean(x) - x_avg| of every row, each mean from a correctly
        rounded sum, bit for bit as math.fsum gives it; read-only. Each
        chunk's sums go straight into the array that is kept, and the
        mean, difference and magnitude are taken in place on it."""
        d, k = np.empty(self.iterations), 0
        for sums in _row_fsums(states for _, states, _ in self.row_blocks()):
            d[k:k + len(sums)] = sums
            k += len(sums)
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
            np.divide(d, self.graph.node_count, out=d)
            np.subtract(d, self.x_avg, out=d)
            np.abs(d, out=d)
        d.flags.writeable = False
        return d

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


def row_chunks(blocks: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
               ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Every row of the (values, src, acts) blocks, whose rows follow one
    another, as (k, states, acts) chunks of _BLOCK_CELLS // n rows (one
    at least; the last what is left), k the index of the chunk's first
    row; a chunk may span blocks. This is the one gather of rows out of
    blocks: the engine's recorder judges each block it is handed through
    it, and every pass over a trace reads the trace's blocks through it.

    A chunk's states are gathered straight into the C-contiguous (n, rows)
    columns that disagreement_rows and _row_fsums sum, and handed over as
    their (rows, n) transpose; the buffer is reused, and each chunk yielded
    overwrites it: a caller is done with a chunk by its next, and may
    write in it until then, as _row_fsums does. A chunk's
    flags are a view of its block's when all its rows come from one block;
    only a chunk that spans blocks copies them, into a (rows, n) buffer
    allocated for the first such chunk.
    """
    n = blocks[0][1].shape[1]
    total = sum(len(src) for _, src, _ in blocks)
    height = max(1, min(_BLOCK_CELLS // n, total))
    flat, flags = np.empty(n * height), None
    k = fill = 0  # the chunk's first row and its rows filled
    for values, src, acts in blocks:
        a = 0
        while a < len(src):
            rows = min(height, total - k)
            cols = flat[:n * rows].reshape(n, rows)
            m = min(len(src) - a, rows - fill)
            # clip: the maps are in range, and take then writes out in
            # place unless the chunk spans blocks, when out is not contiguous
            values.take(src[a:a + m].T, out=cols[:, fill:fill + m], mode="clip")
            if m < rows:  # the chunk spans blocks
                if flags is None:
                    flags = np.empty((height, n), dtype=np.uint8)
                flags[fill:fill + m] = acts[a:a + m]
            fill, a = fill + m, a + m
            if fill == rows:
                yield k, cols.T, acts[a - m:a] if m == rows else flags[:rows]
                k, fill = k + rows, 0


def disagreement_of(x: np.ndarray, graph: Graph) -> float:
    """Adjacency-weighted RMS gap of a raw state vector, its arc terms
    summed pairwise, as numpy sums a flat vector; so it can differ in the
    last bits from the vector's row in disagreement_rows."""
    i, j = graph.arcs
    with np.errstate(over="ignore", invalid="ignore"):
        diff = x[i] - x[j]
        return float(np.sqrt((diff * diff).sum() / len(x)))


def disagreement_rows(states: np.ndarray, graph: Graph) -> np.ndarray:
    """Disagreement of every row of a (rows, n) chunk of states.

    Each row's arc terms are added left to right, in arc order, whatever
    the height of the chunk, so disagreement_rows(s)[k] is bit-equal to
    disagreement_rows(s[k:k + 1])[0]. A chunk of _SHORT_ROWS or more rows
    is summed as its (n, rows) columns, read in place when states is the
    transpose of a C-contiguous array, as row_chunks gathers it; a
    shorter one a row at a time. Both go through _arc_sums. Rows of a
    diverging run read inf or nan without a warning.
    """
    i, j = graph.arcs
    with np.errstate(over="ignore", invalid="ignore"):
        if len(states) < _SHORT_ROWS:
            out = np.array([_arc_sums(np.ascontiguousarray(x), i, j) for x in states])
        else:
            out = _arc_sums(np.ascontiguousarray(states.T), i, j)
        np.sqrt(out / states.shape[1], out=out)
    return out


def _arc_sums(cols: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Sum of (cols[i] - cols[j]) ** 2 over the arcs (i, j), in arc order:
    of one row, cols of shape (n,), or of each column of an (n, rows)
    array. The arcs go in chunks whose two work arrays of terms hold about
    _BLOCK_CELLS // 2 cells each, reused from chunk to chunk; each chunk
    adds the sums so far into its first terms. A row's chunk takes a
    cumulative sum, which is in order, where numpy would sum a flat vector
    pairwise; a chunk of columns is summed down its first axis, which
    numpy does in order while a row of it holds two or more values.
    """
    lone = cols.ndim == 1
    step = max(1, _BLOCK_CELLS // 2 // (1 if lone else cols.shape[1]))
    acc = t = u = None
    for a in range(0, len(i), step):
        ia, ja = i[a:a + step], j[a:a + step]
        if t is None:  # the first chunk's terms are the work arrays
            t, u = cols.take(ia, axis=0), cols.take(ja, axis=0)
        else:  # clip: the arcs are in range, and out is not buffered
            t, u = t[:len(ia)], u[:len(ia)]
            cols.take(ia, axis=0, out=t, mode="clip")
            cols.take(ja, axis=0, out=u, mode="clip")
        np.subtract(t, u, out=t)
        np.multiply(t, t, out=t)
        if acc is not None:
            np.add(acc, t[:1], out=t[:1])
        acc = np.cumsum(t, out=u)[-1] if lone else t.sum(axis=0)
    return acc


def _two_sum_tree(cols: np.ndarray, work: np.ndarray) -> None:
    """Float sum down axis 0 of an (m, rows) array, in place: its halves
    are added pairwise in about log2(m) levels, an odd row left unpaired
    at the front, with Knuth's TwoSum error of every addition. Leaves the
    total in cols[0] and the m - 1 errors in cols[1:]; while no addition
    overflows, the total plus the exact sum of the errors is the exact
    sum of the column. work is scratch of at least m rows.
    """
    m = len(cols)
    while m > 1:
        h, o = m // 2, m % 2
        a, b = cols[o:o + h], cols[o + h:m]
        s, z = work[:h], work[h:2 * h]
        np.add(a, b, out=s)
        np.subtract(s, a, out=z)
        np.subtract(b, z, out=b)
        np.subtract(s, z, out=z)
        np.subtract(a, z, out=z)  # a - (s - z)
        np.add(z, b, out=b)  # the level's errors, after its sums
        a[...] = s
        m = o + h


def _row_fsums(chunks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """math.fsum of every row of each (rows, n) chunk in turn: an array
    of a chunk's sums for each chunk.

    A TwoSum tree gives each row's float sum hi and its errors; a second
    tree sums those to lo and leaves m errors of its own, whose exact sum
    E2 is at most m times the largest, and so at most the bound 2 m max|e|
    however that product rounds. The exact sum is hi + lo + E2 (Ogita,
    Rump and Oishi, "Accurate Sum and Dot Product", SIAM J. Sci. Comput.,
    2005). With c = fl(hi + lo) and r its exact rounding error, c is the
    correctly rounded sum when E2 is zero, or when |r| plus the bound is
    below half the gap from |c| down to the next float (the smaller gap
    at a power of two). A row with a value that is not finite or large
    enough that a sum could overflow goes to fsum, so the values and the
    exceptions (OverflowError, ValueError) are fsum's; every other row the
    bound leaves open is the fsum of its column after the trees, whose
    additions are error-free, so that the column's exact sum is the row's.

    Both trees run in place on the chunk's (n, rows) columns: on the chunk
    itself when it is the transpose of a writable C-contiguous array, as
    row_chunks hands them over, which it then overwrites; on a copy
    otherwise. Only the rows that go to fsum whole are copied out first.
    The chunks share one work array, allocated again only for a chunk with
    more cells than every one before it: a fresh one for each chunk of a
    pass would fault its pages in anew.
    """
    scratch = None
    for states in chunks:
        rows, n = states.shape
        if scratch is None or len(scratch) < states.size:
            scratch = np.empty(states.size)
        work = scratch[:states.size].reshape(n, rows)
        cols = states.T
        if not (cols.flags.c_contiguous and cols.flags.writeable):
            cols = cols.copy()
        limit = 2.0 ** 1020 / n  # no sum of n values below it overflows
        with np.errstate(over="ignore", invalid="ignore"):
            # False at nan and inf
            small = (cols.max(axis=0) < limit) & (cols.min(axis=0) > -limit)
            large = np.flatnonzero(~small)
            whole = cols.T[large]  # their rows, before the trees
            _two_sum_tree(cols, work)
            _two_sum_tree(cols[1:], work)
            hi, lo, rest = cols[0], (cols[1] if n > 1 else 0.0), cols[2:]
            sums = hi + lo
            z = sums - hi
            r = (hi - (sums - z)) + (lo - z)
            biggest = np.maximum(rest.max(axis=0, initial=0.0),
                                 -rest.min(axis=0, initial=0.0))
            bound = 2.0 * len(rest) * biggest
            mag = np.abs(sums)
            half_gap = 0.5 * (mag - np.nextafter(mag, 0.0))
            exact = small & ((bound == 0.0) | (np.abs(r) + bound < half_gap))
            for k, row in zip(large.tolist(), whole):
                sums[k] = fsum(row)
            for k in np.flatnonzero(~exact & small).tolist():
                sums[k] = fsum(cols[:, k])
        yield sums


def sustained_run(ok: np.ndarray, cycle_ticks: int) -> tuple[int, int] | None:
    """First run of cycle_ticks consecutive ok rows: its first row s and
    its last row s + cycle_ticks - 1. Read off the rows where ok switches,
    so no work array is longer than ok by more than two rows."""
    padded = np.zeros(len(ok) + 2, dtype=bool)
    padded[1:-1] = ok
    edges = np.flatnonzero(padded[1:] != padded[:-1])  # each ok run's first row and its end
    hit = np.flatnonzero(edges[1::2] - edges[::2] >= cycle_ticks)
    if not len(hit):
        return None
    s = int(edges[2 * hit[0]])
    return s, s + cycle_ticks - 1


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


def trace_csv_texts(trace: Trace) -> Iterator[str]:
    """trace CSV in long form: iteration, node_id, x, phi; its header,
    then the text of each row.

    Row k puts f"{k}," before each of its nodes' f"{i},{x:.17g},{phi}\n"
    parts. A part is rebuilt only where the node's float64 bit pattern or
    activation flag differs from the previous row's (comparing bits, not
    values, keeps -0.0 after 0.0 and NaN payload changes exact); a chain
    row changes about 3 of its 50. The rows come a chunk at a time from
    Trace.row_blocks, and each chunk's last row is carried into the
    next's comparison. A neighborhood-set fold writes one value to its
    whole closed neighbourhood, so the changed cells of a chunk of rows
    hold few distinct values. They are listed a group of rows at a time,
    at most about _BLOCK_CELLS // 64 cells a group, and each distinct bit
    pattern of a group is formatted once. Every field but x is an
    integer, so no field ever needs CSV quoting.
    """
    yield "iteration,node_id,x,phi\n"
    n = trace.graph.node_count
    parts = [""] * (n + 1)  # a first empty part, so that a row is f"{k},".join(parts)
    last = None  # the bits and flags of the row before the block
    group = max(1, _BLOCK_CELLS // 64)
    for b, states, acts in trace.row_blocks():
        bits = states.view(np.int64)
        changed = np.empty(states.shape, dtype=bool)
        np.not_equal(bits[1:], bits[:-1], out=changed[1:])
        changed[1:] |= acts[1:] != acts[:-1]
        if last is None:  # the first row formats every part
            changed[0] = True
        else:
            changed[0] = (bits[0] != last[0]) | (acts[0] != last[1])
        last = bits[-1].copy(), acts[-1].copy()
        r, c = np.nonzero(changed)
        counts = np.bincount(r, minlength=len(states))
        ends = np.cumsum(counts)  # of each row's cells in r and c
        lo = 0
        while lo < len(states):
            # rows lo to hi, at least one, with at most group changed cells
            first = ends[lo] - counts[lo]
            hi = max(lo + 1, int(np.searchsorted(ends, first + group, "right")))
            rg, cg = r[first:ends[hi - 1]], c[first:ends[hi - 1]]
            values, index = np.unique(bits[rg, cg], return_inverse=True)
            texts = [f"{x:.17g}" for x in values.view(np.float64).tolist()]
            cells = zip(cg.tolist(), index.tolist(), acts[rg, cg].tolist())
            for k, m in enumerate(counts[lo:hi].tolist(), b + lo):
                for _, (i, x, a) in zip(range(m), cells):
                    parts[i + 1] = f"{i},{texts[x]},{a}\n"
                yield f"{k},".join(parts)
            lo = hi


def messages_csv_texts(trace: Trace) -> Iterator[str]:
    """message CSV: time, kind, src, dst, payload (dst -1 = broadcast);
    its header, then one line per message.

    The payload is empty when there is none, and a float one is written
    to 17 significant digits, as format_value writes it. Kinds are plain
    words and every other field a number, so no field ever needs CSV
    quoting.
    """
    yield "time,kind,src,dst,payload\n"
    for t, kind, src, dst, v in trace.messages or []:
        cell = "" if v is None else f"{v:.17g}" if type(v) is float else format_value(v)
        yield f"{t},{kind},{src},{dst},{cell}\n"


def metrics_csv_blocks(trace: Trace) -> Iterator[str]:
    """The text of the metrics CSV a block of _WRITE_CHARS // 64 rows at a
    time (a row is at most about 60 characters), so that no text of the
    whole series is built. Each block is one call through the module's
    name metrics_csv_text."""
    step = _WRITE_CHARS // 64
    for start in range(0, trace.iterations, step):
        yield metrics_csv_text(trace, start, start + step)


def metrics_csv_text(trace: Trace, start: int = 0, stop: int | None = None) -> str:
    """metrics CSV: iteration, drift, disagreement (one row per event), of
    the rows start to stop (to the last row when stop is None). Only the
    block that starts at row 0 carries the header, so the texts of blocks
    that cut the rows join to the text of the whole trace.

    Drift takes few distinct values (4 over the chain preset's 46,969
    rows), so each of a block's is formatted once; being an absolute
    value, it is never -0.0, which would share a cell with 0.0. A row is
    %-formatted, which gives the f-string's text about a third faster.
    """
    values, index = np.unique(trace.drifts[start:stop], return_inverse=True)
    cells = [f"{d:.17g}" for d in values.tolist()]
    rows = zip(index.tolist(), trace.disagreements[start:stop].tolist())
    head = "iteration,drift,disagreement\n" if start == 0 else ""
    return head + "".join(["%d,%s,%.17g\n" % (k, cells[d], e)
                           for k, (d, e) in enumerate(rows, start)])


def trace_csv_text(trace: Trace) -> str:
    """The whole text of the trace CSV."""
    return "".join(trace_csv_texts(trace))
