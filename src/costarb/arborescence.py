"""Functional digraphs, cycle repair, Edmonds' baseline, and exact oracles.

A mapping's digraph {(i, f(i))} has out-degree one everywhere and decomposes
into components, each a directed cycle with trees hanging off it. Deleting
one out-edge per cycle and re-pointing the freed vertex into an already
rooted component turns the mapping into a spanning structure in which every
non-root vertex owns exactly one edge (v, parent[v]) and parent chains reach
the root. Weights and costs are summed over those n-1 edges; under the
i.i.d. edge model this orientation is distribution-equivalent to the
conventional away-from-root one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .dual import Mapping, _solve_mapping_full, make_mapping
from .errors import InfeasibleBudgetError, RepairBudgetExceededError, SizeLimitError
from .instance import Instance

_ORACLE_MAX_N = 7


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Cycles and components of a functional digraph."""

    cycles: list
    component_of: np.ndarray
    component_sizes: list
    largest_component: int


@dataclass(frozen=True, eq=False)
class Arborescence:
    """Parent map over non-root vertices; parent[root] = -1."""

    root: int
    parent: np.ndarray
    weight: float
    cost: float

    def to_dict(self, trace: Optional[dict] = None) -> dict:
        parents = [None if v == self.root else int(p) for v, p in enumerate(self.parent)]
        out = {
            "root": int(self.root),
            "parent": parents,
            "weight": self.weight,
            "cost": self.cost,
        }
        if trace is not None:
            out["trace"] = trace
        return out


def decompose(mapping: Union[Mapping, np.ndarray]) -> Decomposition:
    """Find all cycles and components by iterated-pointer traversal.

    Walks each unvisited vertex forward, marking the current path; hitting
    the path again closes a new cycle, hitting settled territory merges into
    that component. O(n) total. Component ids index into ``cycles``; the
    largest component (smallest id on ties) is singled out.
    """
    f_arr = mapping.f if isinstance(mapping, Mapping) else np.asarray(mapping)
    n = len(f_arr)
    f = f_arr.tolist()
    comp = [-1] * n
    on_path = [-1] * n  # epoch stamp of the walk that touched the vertex
    cycles: list[list[int]] = []

    for start in range(n):
        if comp[start] != -1:
            continue
        path = []
        v = start
        while comp[v] == -1 and on_path[v] != start:
            on_path[v] = start
            path.append(v)
            v = f[v]
        if comp[v] != -1:
            cid = comp[v]
        else:
            cid = len(cycles)
            cycles.append(path[path.index(v):])
        for u in path:
            comp[u] = cid

    sizes = [0] * len(cycles)
    for cid in comp:
        sizes[cid] += 1
    largest = max(range(len(sizes)), key=lambda i: (sizes[i], -i))
    return Decomposition(
        cycles=cycles,
        component_of=np.asarray(comp, dtype=np.int64),
        component_sizes=sizes,
        largest_component=largest,
    )


def uniform_mapping(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random fixed-point-free assignment."""
    r = rng.integers(0, n - 1, size=n)
    return r + (r >= np.arange(n))


def repair(
    mapping: Mapping, instance: Instance, c0: float, lambda_star: float
) -> Arborescence:
    """Break every cycle and reconnect into one spanning parent structure.

    The largest component is processed first: the cycle vertex whose out-edge
    has the largest W + lambda*C (ties: smallest index) loses that edge and
    becomes the root. Remaining cycles, largest component first, each free
    the analogous vertex and re-point it at the vertex in the already-rooted
    set minimising W + lambda*C among edges that keep the running cost within
    c0. If no in-budget reconnection exists the cheapest-cost edge is used
    and RepairBudgetExceededError is raised at the end, carrying the
    completed structure.
    """
    return _repair(mapping, instance, c0, lambda_star, decompose(mapping))


def _repair(
    mapping: Mapping, instance: Instance, c0: float, lambda_star: float, dec: Decomposition
) -> Arborescence:
    """repair, given the mapping's decomposition ``dec``."""
    if lambda_star < 0:
        raise ValueError(f"lambda_star must be nonnegative, got {lambda_star}")
    n = instance.n
    weights, costs = instance.weights, instance.costs

    order = sorted(
        range(len(dec.cycles)), key=lambda cid: (-dec.component_sizes[cid], cid)
    )
    parent = mapping.f.astype(np.int64).copy()
    running_w = mapping.weight
    running_c = mapping.cost
    rooted = np.zeros(n, dtype=bool)
    budget_breached = False

    def break_vertex(cycle):
        scores = [weights[v, parent[v]] + lambda_star * costs[v, parent[v]] for v in cycle]
        top = max(scores)
        return min(v for v, sc in zip(cycle, scores) if sc == top)

    root_cid = order[0]
    root = break_vertex(dec.cycles[root_cid])
    running_w -= weights[root, parent[root]]
    running_c -= costs[root, parent[root]]
    parent[root] = -1
    rooted[dec.component_of == root_cid] = True

    for cid in order[1:]:
        v = break_vertex(dec.cycles[cid])
        running_w -= weights[v, parent[v]]
        running_c -= costs[v, parent[v]]
        room = c0 - running_c

        with np.errstate(invalid="ignore"):  # lam=0 turns the inf diagonal into nan
            scores = weights[v] + lambda_star * costs[v]
        scores = np.where(rooted & (costs[v] <= room), scores, np.inf)
        if np.isinf(scores.min()):
            # fall back to the cheapest reconnection and flag the breach
            scores = np.where(rooted, costs[v], np.inf)
            budget_breached = True
        u = int(np.argmin(scores))
        parent[v] = u
        running_w += weights[v, u]
        running_c += costs[v, u]
        rooted[dec.component_of == cid] = True

    arb = Arborescence(root=root, parent=parent, weight=float(running_w), cost=float(running_c))
    if budget_breached:
        raise RepairBudgetExceededError(
            f"no reconnection kept cost within {c0:.6g} (reached {running_c:.6g}); "
            "retry with a larger tighten",
            best_effort=arb,
        )
    return arb


def validate(arb: Arborescence, instance: Instance) -> tuple[bool, list]:
    """Structural and bookkeeping checks; diagnostics name each violation."""
    n = instance.n
    diags = []
    parent = arb.parent
    if parent.shape != (n,):
        return False, [f"parent array has shape {parent.shape}, expected ({n},)"]
    if not 0 <= arb.root < n:
        diags.append(f"root {arb.root} out of range")
        return False, diags
    if parent[arb.root] != -1:
        diags.append(f"root {arb.root} has parent {parent[arb.root]}")
    non_root = [v for v in range(n) if v != arb.root]
    for v in non_root:
        p = parent[v]
        if not 0 <= p < n:
            diags.append(f"vertex {v} has out-of-range parent {p}")
        elif p == v:
            diags.append(f"vertex {v} is its own parent")
    if diags:
        return False, diags

    # memoized parent chase: each vertex is walked at most once overall
    parent_list = parent.tolist()
    reaches_root = bytearray(n)
    reaches_root[arb.root] = 1
    for v in non_root:
        if reaches_root[v]:
            continue
        path = []
        u = v
        while not reaches_root[u]:
            path.append(u)
            u = parent_list[u]
            if len(path) > n:
                # walk never reached the root: v sits on or below a cycle
                cycle = [v]
                u = parent_list[v]
                while u != v and len(cycle) <= n:
                    cycle.append(u)
                    u = parent_list[u]
                diags.append(f"cycle reachable from vertex {v}: {cycle[:8]}")
                return False, diags
        for w in path:
            reaches_root[w] = 1

    rows = np.asarray(non_root)
    w = float(instance.weights[rows, parent[rows]].sum())
    c = float(instance.costs[rows, parent[rows]].sum())
    if abs(w - arb.weight) > 1e-9:
        diags.append(f"weight field {arb.weight!r} != recomputed {w!r}")
    if abs(c - arb.cost) > 1e-9:
        diags.append(f"cost field {arb.cost!r} != recomputed {c!r}")
    return (not diags), diags


def _min_out_tree(score: np.ndarray, root: int) -> np.ndarray:
    """Minimum spanning out-edge tree: every v != root picks one out-edge
    (v -> parent) and parent chains reach the root.

    Recursive cycle contraction. Ties break toward the smallest vertex
    index, making the result deterministic.
    """
    n = score.shape[0]
    masked = score.copy()
    np.fill_diagonal(masked, np.inf)
    masked[root, :] = np.inf
    parent = np.argmin(masked, axis=1)
    parent[root] = -1

    # locate a cycle among the chosen out-edges, if any
    color = np.zeros(n, dtype=np.int8)  # 0 new, 1 active, 2 done
    color[root] = 2
    cycle = None
    for start in range(n):
        if color[start]:
            continue
        path = []
        v = start
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            v = parent[v]
        if color[v] == 1:
            cycle = path[path.index(v):]
        for u in path:
            color[u] = 2
        if cycle:
            break
    if cycle is None:
        return parent

    in_cycle = np.zeros(n, dtype=bool)
    in_cycle[cycle] = True
    keep = [v for v in range(n) if not in_cycle[v]]
    m = len(keep)
    q = m  # contracted supernode id in the reduced graph
    new_id = {v: i for i, v in enumerate(keep)}

    reduced = np.full((m + 1, m + 1), np.inf)
    reduced[np.ix_(range(m), range(m))] = score[np.ix_(keep, keep)]

    cyc = np.asarray(cycle)
    chosen = score[cyc, parent[cyc]]  # cost of each cycle vertex's cycle edge
    # out of the cycle: leaving vertex v pays its edge minus the cycle edge it drops
    out_scores = score[cyc][:, keep] - chosen[:, None]
    exit_vertex = cyc[np.argmin(out_scores, axis=0)]
    reduced[q, :m] = out_scores.min(axis=0)
    # into the cycle: remember which cycle vertex each outside vertex would target
    in_scores = score[keep][:, cyc]
    entry_target = cyc[np.argmin(in_scores, axis=1)]
    reduced[:m, q] = in_scores.min(axis=1)

    reduced_root = new_id[root]
    sub_parent = _min_out_tree(reduced, reduced_root)

    result = np.empty(n, dtype=np.int64)
    result[root] = -1
    for v in keep:
        p = sub_parent[new_id[v]]
        if v == root:
            continue
        result[v] = entry_target[new_id[v]] if p == q else keep[p]
    for v in cyc:
        result[v] = parent[v]
    # the supernode's out-edge is realised by one cycle vertex, which drops
    # its cycle edge
    p = int(sub_parent[q])
    result[int(exit_vertex[p])] = keep[p]
    return result


def edmonds(
    instance: Instance,
    edge_score: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> Arborescence:
    """Minimum-total-score spanning arborescence over all roots.

    ``edge_score`` receives the weight and cost matrices and returns the score
    matrix; the default scores by weight alone. The best root is found in one
    pass via a virtual super-root joined to every vertex at a uniform large
    score, so exactly one real vertex attaches to it.
    """
    n = instance.n
    if edge_score is None:
        score = instance.weights.copy()
    else:
        with np.errstate(invalid="ignore"):  # score fns may turn the inf diagonal into nan
            score = np.array(edge_score(instance.weights, instance.costs), dtype=np.float64)
        if score.shape != (n, n):
            raise ValueError(f"edge_score returned shape {score.shape}, expected {(n, n)}")
    np.fill_diagonal(score, np.inf)
    finite = score[np.isfinite(score)]
    big = 2.0 * (n + 1) * (float(np.abs(finite).max()) + 1.0) if finite.size else 1.0

    full = np.full((n + 1, n + 1), np.inf)
    full[:n, :n] = score
    full[:n, n] = big
    parent = _min_out_tree(full, n)

    root = int(np.nonzero(parent[:n] == n)[0][0])
    parent = parent[:n].copy()
    parent[root] = -1
    rows = np.asarray([v for v in range(n) if v != root])
    weight = float(instance.weights[rows, parent[rows]].sum())
    cost = float(instance.costs[rows, parent[rows]].sum())
    return Arborescence(root=root, parent=parent, weight=weight, cost=cost)


def _enumerate_choice_sums(values: np.ndarray, choices: list) -> np.ndarray:
    """Total over the cartesian product of per-row choices, in lex order."""
    totals = np.zeros(1)
    for i, cols in enumerate(choices):
        totals = (totals[:, None] + values[i, cols][None, :]).ravel()
    return totals


def exact_mapping_oracle(instance: Instance, c0: float) -> Mapping:
    """Global constrained-mapping optimum by enumerating all (n-1)^n maps."""
    n = instance.n
    if n > _ORACLE_MAX_N:
        raise SizeLimitError(f"mapping oracle capped at n={_ORACLE_MAX_N}, got {n}")
    choices = [[j for j in range(n) if j != i] for i in range(n)]
    weights = _enumerate_choice_sums(instance.weights, choices)
    costs = _enumerate_choice_sums(instance.costs, choices)
    feasible = costs <= c0
    if not feasible.any():
        raise InfeasibleBudgetError(f"no mapping fits budget {c0:.6g}")
    best = int(np.argmin(np.where(feasible, weights, np.inf)))
    f = np.empty(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        best, r = divmod(best, n - 1)
        f[i] = choices[i][r]
    return make_mapping(instance, f)


def exact_arborescence_oracle(instance: Instance, c0: float) -> Arborescence:
    """Global constrained optimum by enumerating roots x parent assignments."""
    n = instance.n
    if n > _ORACLE_MAX_N:
        raise SizeLimitError(f"arborescence oracle capped at n={_ORACLE_MAX_N}, got {n}")
    best: Optional[tuple[float, int, np.ndarray]] = None
    for root in range(n):
        non_root = [v for v in range(n) if v != root]
        m = (n - 1) ** (n - 1)
        parents = np.empty((m, n), dtype=np.int64)
        parents[:, root] = root  # self-loop: the chase below parks at the root
        stride = m
        for v in non_root:
            cols = np.asarray([u for u in range(n) if u != v])
            stride //= n - 1
            idx = (np.arange(m) // stride) % (n - 1)
            parents[:, v] = cols[idx]

        reach = parents.copy()
        rows = np.arange(m)[:, None]
        for _ in range(n - 1):
            reach = parents[rows, reach]
        valid = (reach == root).all(axis=1)
        if not valid.any():
            continue
        w = np.zeros(m)
        c = np.zeros(m)
        for v in non_root:
            w += instance.weights[v, parents[:, v]]
            c += instance.costs[v, parents[:, v]]
        feasible = valid & (c <= c0)
        if not feasible.any():
            continue
        i = int(np.argmin(np.where(feasible, w, np.inf)))
        if best is None or w[i] < best[0]:
            best = (float(w[i]), root, parents[i].copy())

    if best is None:
        raise InfeasibleBudgetError(f"no arborescence fits budget {c0:.6g}")
    weight, root, parent = best
    parent[root] = -1
    rows = np.asarray([v for v in range(n) if v != root])
    cost = float(instance.costs[rows, parent[rows]].sum())
    return Arborescence(root=root, parent=parent, weight=weight, cost=cost)


@dataclass(frozen=True, eq=False)
class PipelineResult:
    arborescence: Arborescence
    lower_bound: float
    trace: dict = field(default_factory=dict)


def solve_constrained_arborescence(
    instance: Instance,
    c0: float,
    tighten: Optional[float] = None,
) -> PipelineResult:
    """Full pipeline: dual mapping solve -> cycle repair -> validation.

    The lower bound certifies the constrained-mapping optimum at the original
    budget. The trace records the dual maximiser, how many dual evaluations
    of each kind it took, its candidate columns per row, how many cycles
    were broken and edges added, and how much of the tightening margin the
    repair used.
    """
    solution, opt = _solve_mapping_full(instance, c0, tighten)
    dec = decompose(solution.mapping)
    arb = _repair(solution.mapping, instance, c0, opt.lambda_star, dec)
    ok, diags = validate(arb, instance)
    if not ok:
        raise AssertionError(f"repair produced an invalid arborescence: {diags}")
    trace = {
        "lambda_star": opt.lambda_star,
        "lower_bound": solution.lower_bound,
        "mapping_weight": solution.mapping.weight,
        "mapping_cost": solution.mapping.cost,
        "cycles_broken": len(dec.cycles),
        "edges_added": len(dec.cycles) - 1,
        "w_max_used": solution.w_max_used,
        "c_max_used": solution.c_max_used,
        "slack_used": arb.cost - solution.mapping.cost,
        "dual_full_evaluations": opt.full_evaluations,
        "dual_candidate_evaluations": opt.candidate_evaluations,
        "dual_sample_evaluations": opt.sample_evaluations,
        "dual_candidate_width": opt.candidate_width,
    }
    return PipelineResult(arborescence=arb, lower_bound=solution.lower_bound, trace=trace)
