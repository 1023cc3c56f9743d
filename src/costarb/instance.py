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

Each chunk draws its rows in blocks of _ROW_BLOCK rows and, while a block
is still in cache, raises it to the power s, writes its +inf diagonal and
finds each row's cheapest edge. So every instance carries the cheapest
weight and cheapest cost edge of each row at no extra pass; ``from_arrays``
and ``load`` find them with the same block scan.

The on-disk format is a small self-describing binary: magic ``CARB``, a
version word, the header (n, s, seed), then the raw little-endian weight
matrix followed by the cost matrix.
"""

from __future__ import annotations

import csv
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InstanceFormatError

_MAGIC = b"CARB"
_VERSION = 1
_HEADER = struct.Struct("<4sIQdQ")  # magic, version, n, s, seed
_MASK64 = (1 << 64) - 1
# Rows per block of a row scan: a block stays in cache while it is scanned,
# and no n x n work array is needed.
_ROW_BLOCK = 32
# Below this n, generate draws on the calling thread: starting a pool costs
# more than a second core saves.
_THREADED_MIN_N = 512


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable dense instance: n x n weight and cost matrices, diagonal +inf.

    ``cheapest_weights`` and ``cheapest_costs`` hold each row's lightest and
    cheapest edge: its column (ties: the smallest) and its value.
    """

    n: int
    s: float
    weights: np.ndarray
    costs: np.ndarray
    seed: int
    cheapest_weights: tuple[np.ndarray, np.ndarray]
    cheapest_costs: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        for a in (self.weights, self.costs, *self.cheapest_weights, *self.cheapest_costs):
            a.flags.writeable = False


def _row_minima(block: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
    """Each row's smallest entry of ``block``: its column (ties: the
    smallest) into ``cols`` and its value into ``values``."""
    block.argmin(axis=1, out=cols)
    values[:] = block[np.arange(len(block)), cols]


def _cheapest_edges(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's smallest entry of a whole matrix, by the block scan that
    generate makes as it draws."""
    n = len(m)
    cols, values = np.empty(n, dtype=np.intp), np.empty(n)
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


def _draw_rows(seed: int, s: float, r0: int, r1: int, parts) -> None:
    """Draw rows [r0, r1) of each (stream offset, matrix, cheapest columns,
    cheapest values) in ``parts``, block by block: while a block is in
    cache, raise it to the power s, write its +inf diagonal and find each
    row's cheapest edge."""
    gen, position = None, None
    for offset, m, cols, values in parts:
        n = m.shape[1]
        # a chunk of all rows runs on from one matrix into the next
        if position != offset + r0 * n:
            gen = _stream_at(seed, offset + r0 * n)
        position = offset + r1 * n
        for b0 in range(r0, r1, _ROW_BLOCK):
            b1 = min(b0 + _ROW_BLOCK, r1)
            block = m[b0:b1]
            gen.random(out=block)
            if s != 1.0:
                np.power(block, s, out=block)
            # entries (t, b0 + t): row t's own column
            block.reshape(-1)[b0 :: n + 1] = np.inf
            _row_minima(block, cols[b0:b1], values[b0:b1])


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
    """Draw an instance with i.i.d. U**s weights and costs on every edge."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    weights, costs = np.empty((n, n)), np.empty((n, n))
    cheapest_weights = np.empty(n, dtype=np.intp), np.empty(n)
    cheapest_costs = np.empty(n, dtype=np.intp), np.empty(n)
    parts = ((0, weights, *cheapest_weights), (n * n, costs, *cheapest_costs))
    _in_row_chunks(
        lambda r0, r1: _draw_rows(seed, s, r0, r1, parts), n, n >= _THREADED_MIN_N
    )
    return Instance(
        n=n, s=s, weights=weights, costs=costs, seed=seed,
        cheapest_weights=cheapest_weights, cheapest_costs=cheapest_costs,
    )


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


def _dense_instance(n: int, s: float, weights, costs, seed: int) -> Instance:
    """An instance of matrices already inside the model."""
    return Instance(
        n=n, s=s, weights=weights, costs=costs, seed=seed,
        cheapest_weights=_cheapest_edges(weights), cheapest_costs=_cheapest_edges(costs),
    )


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
    return _dense_instance(n, s, w, c, seed)


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
    """Read an instance file written by save().

    Raises InstanceFormatError for a malformed file and for one whose
    instance is outside the model (see from_arrays).
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise InstanceFormatError(f"{path}: too short for a header ({len(data)} bytes)")
    magic, version, n, s, seed = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise InstanceFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise InstanceFormatError(f"{path}: unsupported version {version}")
    body = len(data) - _HEADER.size
    expected = 2 * n * n * 8
    if body != expected:
        raise InstanceFormatError(
            f"{path}: payload is {body} bytes but header n={n} implies {expected}"
        )
    block = n * n * 8
    weights = np.frombuffer(
        data, dtype="<f8", count=n * n, offset=_HEADER.size
    ).reshape(n, n).copy()
    costs = np.frombuffer(
        data, dtype="<f8", count=n * n, offset=_HEADER.size + block
    ).reshape(n, n).copy()
    problem = _model_violation(n, s, weights, costs)
    if problem:
        raise InstanceFormatError(f"{path}: {problem}")
    return _dense_instance(n, s, weights, costs, seed)


def export_csv(instance: Instance, path) -> None:
    """Dump off-diagonal edges as rows (i, j, weight, cost), 0-indexed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "weight", "cost"])
        for i in range(instance.n):
            for j in range(instance.n):
                if i == j:
                    continue
                writer.writerow(
                    [i, j, repr(float(instance.weights[i, j])), repr(float(instance.costs[i, j]))]
                )
