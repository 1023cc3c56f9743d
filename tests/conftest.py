import threading

import numpy as np
import pytest

from costarb import from_arrays
from costarb import instance as instance_module

# Hand-checkable 3-vertex instance used across the dual/oracle tests.
# All 8 fixed-point-free mappings, (f(0), f(1), f(2)) with weight/cost:
#   (1,0,1): 1.10/1.30   (1,0,2)=invalid   (1,2,1): 0.70/1.90
#   (1,0,0)=invalid ...  enumerated over f(0) in {1,2}, f(1) in {0,2}, f(2) in {0,1}
WORKED_W = [
    [0.0, 0.20, 0.70],
    [0.50, 0.0, 0.10],
    [0.90, 0.40, 0.0],
]
WORKED_C = [
    [0.0, 0.60, 0.15],
    [0.20, 0.0, 0.80],
    [0.30, 0.50, 0.0],
]


@pytest.fixture
def worked():
    return from_arrays(WORKED_W, WORKED_C)


@pytest.fixture
def two_cycles():
    """Two cheap 2-cycles, {0, 1} and {2, 3}: the mapping [1, 0, 3, 2] costs
    0.04, but every arborescence needs an edge between them, which costs 50."""
    w = np.full((4, 4), 0.5)
    c = np.full((4, 4), 50.0)
    for a, b in ((0, 1), (2, 3)):
        c[a, b] = c[b, a] = 0.01
    return from_arrays(w, c)


def all_mappings(n):
    """Every fixed-point-free assignment on n vertices, lexicographic order."""
    import itertools

    choices = [[j for j in range(n) if j != i] for i in range(n)]
    for combo in itertools.product(*choices):
        yield np.asarray(combo, dtype=np.int64)


def spy_on_chunks(monkeypatch) -> list:
    """(t0, t1, thread) of every row chunk that an instance draws or scans
    from now on: its rows and the thread it ran on."""
    chunks = []
    shipped = instance_module._in_row_chunks

    def spy(work, rows, threaded):
        def traced(t0, t1):
            chunks.append((t0, t1, threading.current_thread()))
            return work(t0, t1)

        return shipped(traced, rows, threaded)

    monkeypatch.setattr(instance_module, "_in_row_chunks", spy)
    return chunks
