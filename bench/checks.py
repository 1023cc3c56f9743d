"""Output checks computed apart from the solver, with plain numpy.

Each check returns a list of problems; an empty list means the output
passed. ``self_test`` corrupts a genuine solver result and shows that every
check rejects its corruption, so that a pass means something.
"""

from __future__ import annotations

import math

import numpy as np

# Absolute tolerance on recomputed sums, as the solver's own bookkeeping.
SUM_TOL = 1e-9
# Relative tolerance on the dual bound: far below the one-part-in-1e6 shift
# that the self-test must catch, far above float summation-order noise.
BOUND_RTOL = 1e-10
# Rows per block when scanning W + lambda*C, so that the check adds a few MB
# to the process's peak memory rather than another n x n matrix.
ROW_BLOCK = 256


def arborescence_problems(parent, root, weight, cost, weights, costs, c0) -> list:
    """Recompute weight and cost from the parent array and chase every
    vertex to the root by pointer doubling."""
    parent = np.asarray(parent, dtype=np.int64)
    n = weights.shape[0]
    if parent.shape != (n,):
        return [f"parent array has shape {parent.shape}, expected ({n},)"]
    if not 0 <= root < n or parent[root] != -1:
        return [f"root {root} is not a vertex with parent -1"]
    rows = np.flatnonzero(np.arange(n) != root)
    p = parent[rows]
    if p.min() < 0 or p.max() >= n or (p == rows).any():
        return ["a non-root vertex has no valid parent"]

    hop = parent.copy()
    hop[root] = root
    for _ in range(n.bit_length()):  # hop = parent^(2^k), 2^k > n
        hop = hop[hop]
    stuck = np.flatnonzero(hop != root)
    problems = []
    if stuck.size:
        problems.append(
            f"{stuck.size} vertices never reach root {root}, e.g. {stuck[:5].tolist()}"
        )
    w = float(weights[rows, p].sum())
    c = float(costs[rows, p].sum())
    if abs(w - weight) > SUM_TOL:
        problems.append(f"reported weight {weight!r} != recomputed {w!r}")
    if abs(c - cost) > SUM_TOL:
        problems.append(f"reported cost {cost!r} != recomputed {c!r}")
    if not c <= c0:
        problems.append(f"recomputed cost {c!r} exceeds budget {c0!r}")
    return problems


def dual_bound(weights, costs, lam: float, c0: float) -> float:
    """sum_i min_{j != i} (W + lam*C)[i, j] - lam*c0, scanned in row blocks."""
    n = weights.shape[0]
    mins = np.empty(n)
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        with np.errstate(invalid="ignore"):  # lam = 0 times the inf diagonal
            score = weights[start:stop] + lam * costs[start:stop]
        score[np.arange(stop - start), np.arange(start, stop)] = np.inf
        mins[start:stop] = score.min(axis=1)
    return float(mins.sum()) - lam * c0


def bound_problems(lower_bound, mapping_weight, weights, costs, lam, c0) -> list:
    """The reported bound is the dual at the reported multiplier, and the
    chosen mapping does not beat it."""
    expected = dual_bound(weights, costs, lam, c0)
    problems = []
    if abs(lower_bound - expected) > BOUND_RTOL * max(1.0, abs(expected)):
        problems.append(f"lower bound {lower_bound!r} != recomputed dual {expected!r}")
    if mapping_weight < expected - SUM_TOL:
        problems.append(f"mapping weight {mapping_weight!r} below dual bound {expected!r}")
    return problems


def band_problems(mean_ratio: float, low: float, high: float) -> list:
    """Mean weight over the closed-form target lies in the acceptance band."""
    if low <= mean_ratio <= high:
        return []
    return [f"mean weight / closed form = {mean_ratio:.4f} outside [{low}, {high}]"]


def self_test(instance_mod, arborescence_mod) -> list:
    """Corrupt one genuine result three ways (and the band once); return
    (case, rejected) pairs. The genuine result must pass every check."""
    n = 64
    c0 = math.sqrt(n)
    inst = instance_mod.generate(n, 1.0, 7)
    res = arborescence_mod.solve_constrained_arborescence(inst, c0)
    arb = res.arborescence
    W, C = inst.weights, inst.costs
    lam = res.trace["lambda_star"]
    mapping_weight = res.trace["mapping_weight"]

    def arb_rejects(parent, budget, problem):
        found = arborescence_problems(parent, arb.root, arb.weight, arb.cost, W, C, budget)
        return any(problem in text for text in found)

    def bound_rejects(bound):
        found = bound_problems(bound, mapping_weight, W, C, lam, c0)
        return any("!= recomputed dual" in text for text in found)

    # Close a 2-cycle: v's parent u now points back at v.
    cyclic = arb.parent.copy()
    v = next(int(x) for x in range(n) if x != arb.root and cyclic[x] != arb.root)
    cyclic[cyclic[v]] = v
    genuine = (
        arborescence_problems(arb.parent, arb.root, arb.weight, arb.cost, W, C, c0)
        + bound_problems(res.lower_bound, mapping_weight, W, C, lam, c0)
    )
    return [
        ("genuine result accepted", not genuine),
        ("parent array with a cycle rejected", arb_rejects(cyclic, c0, "never reach root")),
        ("lower bound shifted by 1e-6 rejected", bound_rejects(res.lower_bound * (1 + 1e-6))),
        ("cost above c0 rejected", arb_rejects(arb.parent, arb.cost * (1 - 1e-6), "exceeds budget")),
        ("mean ratio outside band rejected", bool(band_problems(1.2, 0.9, 1.1))),
    ]
