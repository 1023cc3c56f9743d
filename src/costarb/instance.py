"""Random weighted/costed complete-digraph instances.

Every directed edge (i, j), i != j, carries an independent weight and an
independent cost, each drawn as U**s with U uniform on [0, 1) and
0 < s <= 1. All draws come from a single counter-based Philox stream keyed
on the seed: edge (i, j)'s weight sits at stream position i*n + j and its
cost at n*n + i*n + j, so regeneration is bit-for-bit reproducible and does
not depend on evaluation or thread order. Diagonal entries hold +inf so no
row scan can ever select a self-loop.

The on-disk format is a small self-describing binary: magic ``CARB``, a
version word, the header (n, s, seed), then the raw little-endian weight
matrix followed by the cost matrix.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable dense instance: n x n weight and cost matrices, diagonal +inf."""

    n: int
    s: float
    weights: np.ndarray
    costs: np.ndarray
    seed: int

    def __post_init__(self):
        self.weights.flags.writeable = False
        self.costs.flags.writeable = False

    @cached_property
    def cheapest_costs(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's cheapest-cost edge: its column (ties: the smallest) and
        its cost. Found once per instance, block by block of rows: numpy
        copies a read-only matrix whole to take its argmin."""
        cols = np.concatenate([
            np.argmin(self.costs[r0 : r0 + _ROW_BLOCK], axis=1)
            for r0 in range(0, self.n, _ROW_BLOCK)
        ])
        costs = self.costs[np.arange(self.n), cols]
        cols.flags.writeable = False
        costs.flags.writeable = False
        return cols, costs


def _uniform_matrices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two n x n uniforms from one Philox stream keyed on the seed."""
    gen = np.random.Generator(np.random.Philox(key=[seed & _MASK64, 0]))
    u_weights = gen.random((n, n))
    u_costs = gen.random((n, n))
    return u_weights, u_costs


def generate(n: int, s: float, seed: int) -> Instance:
    """Draw an instance with i.i.d. U**s weights and costs on every edge."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    weights, costs = _uniform_matrices(n, seed)
    for u in (weights, costs):  # in place: the instance holds only these two
        if s != 1.0:
            np.power(u, s, out=u)
        np.fill_diagonal(u, np.inf)
    return Instance(n=n, s=s, weights=weights, costs=costs, seed=seed)


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
    return Instance(n=n, s=s, weights=w, costs=c, seed=seed)


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
    return Instance(n=n, s=s, weights=weights, costs=costs, seed=seed)


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
