"""Random weighted/costed complete-digraph instances.

Every directed edge (i, j), i != j, carries an independent weight and an
independent cost, each drawn as U**s with U uniform on [0, 1) and
0 < s <= 1. All draws come from one PCG64 stream seeded with the seed
modulo 2**64, which PCG64 takes exactly: edge (i, j)'s weight is the
stream's draw i*n + j and its cost draw n*n + i*n + j, one 64-bit output
per double. PCG64 jumps ahead by any distance in O(log distance) steps
(O'Neill, "PCG: A family of simple fast space-efficient statistically good
algorithms for random number generation", 2014), so a generator placed at
any position draws the same bits there as the whole stream would. Rows are
therefore drawn in independent chunks, one per CPU this process may run
on, and the result depends on neither the chunk count nor thread order.
The thread count is not a setting: it is read from the CPU affinity, and
small instances are drawn on the calling thread.
Diagonal entries hold +inf so no row scan can ever select a self-loop.

Rows are drawn in blocks of _ROW_BLOCK rows (``_draw_rows``). While a
block is still in cache it is raised to the power s, gets its +inf
diagonal and yields each row's cheapest weight and cheapest cost edge.

``generate`` draws nothing: it returns an instance fixed by (n, s, seed)
whose first ``scan`` draws it. That scan hands each block, drawn into
buffers of its row chunk, to the caller's visit, and keeps only each row's
cheapest edges, the weight and cost at both of their columns, and the
entries the visits name. ``edges`` gathers from those and draws a whole
row on request; any other read of the matrices (``weights``, ``costs``,
``cheapest_*`` before the first scan, ``save``, a later scan, a gather of
an entry not kept) draws and stores both matrices once, as one generation
does, and the instance is dense from then on. ``from_arrays`` and ``load``
make dense instances, whose row minima come from the same block scan.

The on-disk format is a small self-describing binary: magic ``CARB``, a
version word, the header (n, s, seed), then the raw little-endian weight
matrix followed by the cost matrix.
"""

from __future__ import annotations

import csv
import mmap
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InstanceFormatError

_MAGIC = b"CARB"
_VERSION = 1
_HEADER = struct.Struct("<4sIQdQ")  # magic, version, n, s, seed
_MASK64 = (1 << 64) - 1
# Rows per block of a row scan: a block stays in cache while it is scanned,
# and no n x n work array is needed.
_ROW_BLOCK = 32
# A block of a stored instance's scan holds at least _ROW_BLOCK rows and at
# most about this many entries: at small n, a visit per 32 rows costs more
# in calls than the cache saves.
_BLOCK_ENTRIES = 1 << 16
# Below this n, a draw runs on the calling thread: starting a pool costs
# more than a second core saves.
_THREADED_MIN_N = 512


class Instance:
    """Immutable instance: n x n weight and cost matrices, diagonal +inf.

    ``cheapest_weights`` and ``cheapest_costs`` hold each row's lightest and
    cheapest edge: its column (ties: the smallest) and its value. ``n``,
    ``s``, ``seed`` and every array it hands out are read-only. A generated
    instance is drawn by its first ``scan`` or stored on the first read that
    needs the matrices (see the module docstring); either happens under a
    lock, once, so an instance may be shared across threads. It pickles and
    copies without the lock: from (n, s, seed) alone while it is not
    stored, else with its matrices, so it may go to a process pool too.
    """

    def __init__(self, n: int, s: float, seed: int, matrices=None):
        self._n, self._s, self._seed = n, s, seed
        self._lock = threading.RLock()
        self._matrices = None  # (weights, costs) once dense
        self._cheapest = None  # (cheapest_weights, cheapest_costs) once drawn
        self._kept = None  # (flat indices, weights, costs) of a streamed instance
        if matrices is not None:
            weights, costs = matrices
            self._set_dense(weights, costs, (_cheapest_edges(weights), _cheapest_edges(costs)))

    def __reduce__(self):
        return Instance, (self._n, self._s, self._seed, self._matrices)

    @property
    def n(self) -> int:
        return self._n

    @property
    def s(self) -> float:
        return self._s

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def weights(self) -> np.ndarray:
        return self._dense()[0]

    @property
    def costs(self) -> np.ndarray:
        return self._dense()[1]

    @property
    def cheapest_weights(self) -> tuple[np.ndarray, np.ndarray]:
        return self._minima()[0]

    @property
    def cheapest_costs(self) -> tuple[np.ndarray, np.ndarray]:
        return self._minima()[1]

    def _minima(self):
        if self._cheapest is None:
            self._dense()
        return self._cheapest

    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        if self._matrices is None:
            with self._lock:
                if self._matrices is None:
                    self._materialize()
        return self._matrices

    def _set_dense(self, weights, costs, cheapest) -> None:
        for a in (weights, costs, *cheapest[0], *cheapest[1]):
            a.flags.writeable = False
        self._cheapest, self._kept = cheapest, None
        self._matrices = weights, costs

    def _materialize(self) -> None:
        """Draw and store both matrices, as one generation of (n, s, seed).
        The kept entries are dropped first: the matrices hold them."""
        self._kept = None
        n = self.n
        weights, costs = np.empty((n, n)), np.empty((n, n))
        cheapest = _empty_minima(n), _empty_minima(n)

        def draw(r0, r1):
            rows = _draw_rows(self.seed, self.s, n, r0, r1, cheapest,
                              lambda b0, b1: (weights[b0:b1], costs[b0:b1]))
            for _ in rows:
                pass

        _in_row_chunks(draw, n, n >= _THREADED_MIN_N)
        self._set_dense(weights, costs, cheapest)

    def draw_by(self, first_scan) -> None:
        """Call ``first_scan`` if the instance is still to be drawn: a
        caller with a scan to make anyway makes it the scan that draws.
        For None, the instance is stored instead."""
        with self._lock:
            if self._cheapest is None:
                if first_scan is None:
                    self._dense()
                else:
                    first_scan()

    def scan(self, visitor, threaded: bool):
        """Visit every row, block by block of at most ``_block_rows(n)``
        rows (_ROW_BLOCK rows while drawing), in row chunks as
        ``_in_row_chunks`` makes them. ``visitor(t0, t1)``, called on the
        thread that scans rows [t0, t1), returns the chunk's visit, which is
        called on each of its blocks in turn as ``visit(b0, b1, weights,
        costs)`` with the block's rows of both matrices (read them only).
        A visit may return ascending flat indices row * n + column of
        entries of its block; the scan returns them joined in row order, or
        None if no visit returned any.

        The scan that draws an instance keeps those entries for ``edges``,
        and always in threads from _THREADED_MIN_N rows on.
        """
        if self._matrices is None:
            with self._lock:
                if self._cheapest is None:
                    return self._stream(visitor, threaded or self.n >= _THREADED_MIN_N)
        weights, costs = self._dense()
        step = _block_rows(self.n)

        def chunk(t0, t1):
            visit = visitor(t0, t1)
            found = []
            for b0 in range(t0, t1, step):
                b1 = min(b0 + step, t1)
                named = visit(b0, b1, weights[b0:b1], costs[b0:b1])
                if named is not None:
                    found.append(named)
            return found

        return _joined(_in_row_chunks(chunk, self.n, threaded))

    def _stream(self, visitor, threaded: bool):
        """``scan`` of an instance still to be drawn: each block is drawn
        into buffers of its chunk and visited while it is in cache."""
        n = self.n
        cheapest = _empty_minima(n), _empty_minima(n)

        def chunk(t0, t1):
            visit = visitor(t0, t1)
            # A mapping of their own, unmapped when the chunk ends: heap
            # buffers stay resident in the thread's allocator arena.
            rows = min(t1 - t0, _ROW_BLOCK)
            buffers = np.frombuffer(mmap.mmap(-1, 2 * rows * n * 8)).reshape(2, rows, n)
            found, kept = [], []
            blocks = _draw_rows(self.seed, self.s, n, t0, t1, cheapest,
                                lambda b0, b1: buffers[:, : b1 - b0])
            for b0, b1, weights, costs in blocks:
                named = visit(b0, b1, weights, costs)
                starts = np.arange(b0, b1) * n
                keys = [starts + cheapest[0][0][b0:b1], starts + cheapest[1][0][b0:b1]]
                if named is not None:
                    found.append(named)
                    keys.append(named)
                keys = np.concatenate(keys)
                keys.sort()  # then each once: np.unique costs more per block
                keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
                local = keys - b0 * n
                kept.append((keys, weights.reshape(-1)[local], costs.reshape(-1)[local]))
            return found, kept

        chunks = _in_row_chunks(chunk, n, threaded)
        kept = [block for _, blocks in chunks for block in blocks]
        self._kept = tuple(np.concatenate(part) for part in zip(*kept))
        for a in (*self._kept, *cheapest[0], *cheapest[1]):
            a.flags.writeable = False
        self._cheapest = cheapest
        return _joined(found for found, _ in chunks)

    def edges(self, rows, cols=None) -> tuple[np.ndarray, np.ndarray]:
        """The weights and the costs at (rows, cols), broadcast as numpy
        indexing does; ``cols`` None: the whole rows. Read only."""
        if self._matrices is None:
            with self._lock:
                if self._kept is not None:
                    if cols is None:
                        for row in np.unique(rows):
                            self._draw_row(int(row))
                        cols = np.arange(self.n)
                        rows = np.asarray(rows)[..., None]
                    gathered = self._kept_edges(rows, cols)
                    if gathered is not None:
                        return gathered
        weights, costs = self._dense()
        if cols is None:
            return weights[rows], costs[rows]
        return weights[rows, cols], costs[rows, cols]

    def _kept_edges(self, rows, cols):
        """The kept entries at (rows, cols), or None if one is not kept."""
        keys, weights, costs = self._kept
        flat = np.asarray(rows) * self.n + cols
        at = np.minimum(keys.searchsorted(flat), len(keys) - 1)
        if not (keys[at] == flat).all():
            return None
        return weights[at], costs[at]

    def _draw_row(self, row: int) -> None:
        """Keep every entry of ``row`` of a streamed instance."""
        n = self.n
        lo, hi = self._kept[0].searchsorted((row * n, (row + 1) * n))
        if hi - lo == n:
            return
        drawn = np.empty((2, 1, n))
        for _ in _draw_rows(self.seed, self.s, n, row, row + 1, None, lambda b0, b1: drawn):
            pass
        parts = zip(self._kept, (row * n + np.arange(n), *drawn.reshape(2, n)))
        self._kept = tuple(np.concatenate((a[:lo], r, a[hi:])) for a, r in parts)
        for a in self._kept:
            a.flags.writeable = False


def _block_rows(n: int) -> int:
    """The most rows a block of a stored instance's scan holds."""
    return max(_ROW_BLOCK, _BLOCK_ENTRIES // n)


def _empty_minima(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays for each row's cheapest edge: its column and its value."""
    return np.empty(n, dtype=np.intp), np.empty(n)


def _joined(chunks):
    """The flat index arrays of ``chunks`` (lists, in row order) as one."""
    found = [named for chunk in chunks for named in chunk]
    if len(found) > 1:
        return np.concatenate(found)
    return found[0] if found else None


def _row_minima(block: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
    """Each row's smallest entry of ``block``: its column (ties: the
    smallest) into ``cols`` and its value into ``values``."""
    block.argmin(axis=1, out=cols)
    values[:] = block[np.arange(len(block)), cols]


def _cheapest_edges(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's smallest entry of a whole matrix, by the block scan that
    the draw makes."""
    n = len(m)
    cols, values = _empty_minima(n)
    for r0 in range(0, n, _ROW_BLOCK):
        rows = slice(r0, r0 + _ROW_BLOCK)
        _row_minima(m[rows], cols[rows], values[rows])
    return cols, values


def _stream_at(seed: int, position: int) -> np.random.Generator:
    """A generator whose next draw is the seed's stream at ``position``."""
    bitgen = np.random.PCG64(seed & _MASK64)
    if position:  # placing costs more than drawing a small instance
        bitgen.advance(position)
    return np.random.Generator(bitgen)


def _draw_rows(seed: int, s: float, n: int, r0: int, r1: int, cheapest, into):
    """Draw rows [r0, r1) of the weights and the costs, block by block of
    _ROW_BLOCK rows, into the two arrays that ``into(b0, b1)`` gives, and
    yield each block as (b0, b1, weights, costs) while it is in cache:
    raised to the power s, with its +inf diagonal, and its rows' cheapest
    edges found into ``cheapest`` (the two matrices' column and value
    arrays, or None)."""
    gens = None
    for b0 in range(r0, r1, _ROW_BLOCK):
        b1 = min(b0 + _ROW_BLOCK, r1)
        blocks = into(b0, b1)
        if gens is None:
            gen = _stream_at(seed, b0 * n)
            # a block of all rows runs on from the weights into the costs
            gens = gen, gen if b1 - b0 == n else _stream_at(seed, n * n + b0 * n)
        for gen, block, minima in zip(gens, blocks, cheapest or (None, None)):
            gen.random(out=block)
            if s != 1.0:
                np.power(block, s, out=block)
            # entries (t, b0 + t): row t's own column
            block.reshape(-1)[b0 :: n + 1] = np.inf
            if minima is not None:
                _row_minima(block, minima[0][b0:b1], minima[1][b0:b1])
        yield (b0, b1, *blocks)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _in_row_chunks(work, rows: int, threaded: bool) -> list:
    """``work(t0, t1)`` over consecutive ranges that cover [0, rows), and
    its results in range order. Threaded, there is one range per CPU this
    process may run on, each of at least one block of rows, on threads that
    start and end inside the call, so a forked worker inherits none; else
    one range on the calling thread."""
    chunks = min(_cpu_count(), rows // _ROW_BLOCK) if threaded else 1
    if chunks <= 1:
        return [work(0, rows)]
    bounds = [rows * k // chunks for k in range(chunks + 1)]
    with ThreadPoolExecutor(max_workers=chunks) as pool:
        done = [pool.submit(work, t0, t1) for t0, t1 in zip(bounds, bounds[1:])]
        return [d.result() for d in done]


def generate(n: int, s: float, seed: int) -> Instance:
    """The instance with i.i.d. U**s weights and costs on every edge drawn
    from (n, s, seed); it is drawn when it is first read (module docstring)."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    return Instance(n, s, seed)


def _model_violation(n: int, s: float, weights: np.ndarray, costs: np.ndarray) -> str | None:
    """Why an instance from outside the program falls outside the model, or
    None: the model needs n >= 2, 0 < s <= 1, a +inf diagonal and finite,
    nonnegative off-diagonal weights and costs."""
    if n < 2:
        return f"n must be at least 2, got {n}"
    if not 0.0 < s <= 1.0:
        return f"s must lie in (0, 1], got {s}"
    for name, m in (("weight", weights), ("cost", costs)):
        if not np.isposinf(m.diagonal()).all():
            return f"every diagonal {name} must be +inf"
        # with a +inf diagonal, exactly the off-diagonal entries are finite
        if np.count_nonzero(np.isfinite(m)) != n * n - n:
            return f"every off-diagonal {name} must be finite"
        if m.min() < 0:
            return f"{name}s must be nonnegative, got {m.min()!r}"
    return None


def from_arrays(weights, costs, s: float = 1.0, seed: int = 0) -> Instance:
    """Build an instance from explicit matrices (diagonal is overwritten).

    Raises ValueError unless n >= 2, 0 < s <= 1 and every off-diagonal
    weight and cost is finite and nonnegative.
    """
    w = np.array(weights, dtype=np.float64)
    c = np.array(costs, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape != c.shape:
        raise ValueError(f"expected matching square matrices, got {w.shape} and {c.shape}")
    n = w.shape[0]
    np.fill_diagonal(w, np.inf)
    np.fill_diagonal(c, np.inf)
    problem = _model_violation(n, s, w, c)
    if problem:
        raise ValueError(problem)
    return Instance(n, s, seed, (w, c))


def save(instance: Instance, path) -> None:
    """Write the self-describing binary file; load() round-trips bit-for-bit."""
    header = _HEADER.pack(
        _MAGIC, _VERSION, instance.n, instance.s, instance.seed & _MASK64
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(instance.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(instance.costs, dtype="<f8").tobytes())


def load(path) -> Instance:
    """Read an instance file written by save(). Each matrix is read straight
    into its array, so no copy of the file's bytes is held.

    Raises InstanceFormatError for a malformed file and for one whose
    instance is outside the model (see from_arrays).
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise InstanceFormatError(f"{path}: too short for a header ({size} bytes)")
        magic, version, n, s, seed = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != _MAGIC:
            raise InstanceFormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise InstanceFormatError(f"{path}: unsupported version {version}")
        body = size - _HEADER.size
        expected = 2 * n * n * 8
        if body != expected:
            raise InstanceFormatError(
                f"{path}: payload is {body} bytes but header n={n} implies {expected}"
            )
        weights, costs = np.empty((2, n, n), dtype="<f8")
        for m in (weights, costs):
            fh.readinto(m)
    problem = _model_violation(n, s, weights, costs)
    if problem:
        raise InstanceFormatError(f"{path}: {problem}")
    return Instance(n, s, seed, (weights, costs))


def export_csv(instance: Instance, path) -> None:
    """Dump off-diagonal edges as rows (i, j, weight, cost), 0-indexed."""
    weights, costs = instance.weights, instance.costs
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "weight", "cost"])
        for i in range(instance.n):
            for j in range(instance.n):
                if i == j:
                    continue
                writer.writerow([i, j, repr(float(weights[i, j])), repr(float(costs[i, j]))])
