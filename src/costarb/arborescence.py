"""Functional digraphs, cycle repair, Edmonds' algorithm, and exact oracles.

A mapping's digraph {(i, f(i))} has out-degree one everywhere and decomposes
into components, each a directed cycle with trees hanging off it. Deleting
one out-edge per cycle and re-pointing the freed vertex into an already
rooted component turns the mapping into a spanning structure in which every
non-root vertex owns exactly one edge (v, parent[v]) and parent chains reach
the root. Weights and costs are summed over those n-1 edges; under the
i.i.d. edge model this orientation is distribution-equivalent to the
conventional away-from-root one. Edmonds' algorithm gives the minimum
arborescence of W + lam*C for any multiplier lam >= 0, contracting cycles in
place on the rows of one dense score matrix: no column is touched, and ties
break toward the smallest original column.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .dual import DualEvaluation, Mapping, _bracket, _lambda_ceiling, _line, _meet
from .dual import make_mapping, solve_mapping
from .errors import InfeasibleBudgetError, SizeLimitError
from .instance import Instance

_ORACLE_MAX_N = 7


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Cycles and components of a functional digraph."""

    cycles: list
    component_of: np.ndarray
    component_sizes: list


@dataclass(frozen=True, eq=False)
class Arborescence:
    """Parent map over non-root vertices; parent[root] = -1."""

    root: int
    parent: np.ndarray
    weight: float
    cost: float

    def to_dict(self) -> dict:
        parents = [None if v == self.root else int(p) for v, p in enumerate(self.parent)]
        return {
            "root": int(self.root),
            "parent": parents,
            "weight": self.weight,
            "cost": self.cost,
        }


def decompose(mapping: Union[Mapping, np.ndarray]) -> Decomposition:
    """Find all cycles and components by iterated-pointer traversal.

    Walks each unvisited vertex forward, marking the current path; hitting
    the path again closes a new cycle, hitting settled territory merges into
    that component. O(n) total. Component ids index into ``cycles``.
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

    component_of = np.asarray(comp, dtype=np.int64)
    sizes = np.bincount(component_of, minlength=len(cycles)).tolist()
    return Decomposition(cycles=cycles, component_of=component_of, component_sizes=sizes)


def uniform_mapping(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random fixed-point-free assignment."""
    r = rng.integers(0, n - 1, size=n)
    return r + (r >= np.arange(n))


def repair(
    mapping: Mapping, instance: Instance, c0: float, lambda_star: float, dec: Decomposition
) -> Arborescence:
    """Break every cycle of ``mapping``, whose decomposition is ``dec``, and
    reconnect into one spanning parent structure.

    The largest component is processed first: the cycle vertex whose out-edge
    has the largest W + lambda*C (ties: smallest index) loses that edge and
    becomes the root. Remaining cycles, largest component first, each free
    the analogous vertex and re-point it at the vertex in the already-rooted
    set minimising W + lambda*C among edges that keep the running cost within
    c0. If no in-budget reconnection exists the cheapest-cost edge is used,
    so the completed arborescence may cost more than c0; the caller checks.
    Raises ValueError unless 0 <= lambda_star < inf.
    """
    if not 0.0 <= lambda_star < math.inf:
        raise ValueError(f"lambda_star must be nonnegative and finite, got {lambda_star}")
    n = instance.n

    order = sorted(
        range(len(dec.cycles)), key=lambda cid: (-dec.component_sizes[cid], cid)
    )
    parent = mapping.f.astype(np.int64).copy()
    running_w = mapping.weight
    running_c = mapping.cost
    rooted = np.zeros(n, dtype=bool)

    # the vertex that loses its out-edge, and that edge's weight and cost
    def break_vertex(cycle):
        weights, costs = instance.edges(cycle, parent[cycle])
        scores = (weights + lambda_star * costs).tolist()
        top = max(scores)
        k = cycle.index(min(v for v, sc in zip(cycle, scores) if sc == top))
        return cycle[k], weights[k], costs[k]

    root_cid = order[0]
    root, weight, cost = break_vertex(dec.cycles[root_cid])
    running_w -= weight
    running_c -= cost
    parent[root] = -1
    rooted[dec.component_of == root_cid] = True

    for cid in order[1:]:
        v, weight, cost = break_vertex(dec.cycles[cid])
        running_w -= weight
        running_c -= cost
        room = c0 - running_c

        # the freed vertex's whole row: the only one that repair reads
        weights, costs = instance.edges(v)
        with np.errstate(invalid="ignore"):  # lam=0 turns the inf diagonal into nan
            scores = weights + lambda_star * costs
        scores = np.where(rooted & (costs <= room), scores, np.inf)
        if np.isinf(scores.min()):
            # fall back to the cheapest reconnection; later breaks may regain the budget
            scores = np.where(rooted, costs, np.inf)
        u = int(np.argmin(scores))
        parent[v] = u
        running_w += weights[u]
        running_c += costs[u]
        rooted[dec.component_of == cid] = True

    return Arborescence(root=root, parent=parent, weight=float(running_w), cost=float(running_c))


def validate(arb: Arborescence, instance: Instance) -> tuple[bool, list]:
    """Structural and bookkeeping checks; diagnostics name each violation.

    Reachability is one walk through ``decompose``, the root made a fixed
    point: any cycle but the root's self-loop is an error, reported with the
    first vertex outside the root's component and the cycle it runs into.
    """
    n = instance.n
    diags = []
    parent = arb.parent
    if parent.shape != (n,):
        return False, [f"parent array has shape {parent.shape}, expected ({n},)"]
    if not 0 <= arb.root < n:
        diags.append(f"root {arb.root} out of range")
        return False, diags
    parent_list = parent.tolist()
    if parent_list[arb.root] != -1:
        diags.append(f"root {arb.root} has parent {parent_list[arb.root]}")
    non_root = [v for v in range(n) if v != arb.root]
    for v in non_root:
        p = parent_list[v]
        if not 0 <= p < n:
            diags.append(f"vertex {v} has out-of-range parent {p}")
        elif p == v:
            diags.append(f"vertex {v} is its own parent")
    if diags:
        return False, diags

    chains = parent.copy()
    chains[arb.root] = arb.root
    dec = decompose(chains)
    if len(dec.cycles) > 1:
        v = int(np.argmax(dec.component_of != dec.component_of[arb.root]))
        cycle = dec.cycles[dec.component_of[v]]
        diags.append(f"cycle reachable from vertex {v}: {cycle[:8]}")
        return False, diags

    rows = np.asarray(non_root)
    weights, costs = instance.edges(rows, parent[rows])
    w, c = float(weights.sum()), float(costs.sum())
    if abs(w - arb.weight) > 1e-9:
        diags.append(f"weight field {arb.weight!r} != recomputed {w!r}")
    if abs(c - arb.cost) > 1e-9:
        diags.append(f"cost field {arb.cost!r} != recomputed {c!r}")
    return (not diags), diags


def _min_out_tree(score: np.ndarray, root: int) -> list:
    """Minimum spanning out-edge tree: every v != root picks one out-edge
    (v -> parent) and parent chains reach the root. Returns each vertex's
    parent as a list, the root its own.

    ``score`` has a +inf diagonal and root row. Its rows are overwritten and
    no column is touched. Cycles are contracted in place (Tarjan 1977, with
    the Camerini-Fratta-Maffioli 1979 correction). A cycle's first vertex
    stands for it. Its row becomes each column's cheapest way out: the
    minimum over the members' rows, each minus the cycle edge its member
    drops, with +inf at the columns the supernode holds. A row keeps the
    original column it chose, and ``rep`` names the supernode that holds
    each original vertex, so the columns need no merging. A walk from each
    vertex follows the chosen out-edges, memoising the vertices known to
    reach the root; a new cycle can only run through the new supernode, so
    the walk goes on from there. Each contraction pushes, per column, the
    first member that attains the column's way out, and the expansion
    unwinds the pushes in reverse. Ties break toward the smallest original
    column, and a supernode's out-edge toward the member first in the cycle.
    """
    m = score.shape[0]
    choice = score.argmin(axis=1).tolist()
    choice[root] = root
    rep = np.arange(m)
    held = {}  # the original vertices of each supernode made so far
    alive = [True] * m
    reaches_root = [False] * m
    reaches_root[root] = True
    walked = [-1] * m  # the start of the walk that last met the vertex
    pushes = []
    for start in range(m):
        path = []
        v = start
        while alive[v] and not reaches_root[v]:
            if walked[v] != start:
                walked[v] = start
                path.append(v)
                v = rep[choice[v]]
                continue
            # the walk met itself: contract the cycle into its first vertex
            i = path.index(v)
            cycle = path[i:]
            del path[i + 1:]
            cycle_choice = [choice[u] for u in cycle]
            ways_out = np.empty((len(cycle), m))
            for u, c, scores in zip(cycle, cycle_choice, ways_out):
                np.subtract(score[u], score[u, c], out=scores)
            row = score[v]
            ways_out.min(axis=0, out=row)
            # the first member attaining each column's way out
            exits = np.full(m, cycle[-1], dtype=np.int32)
            for u, scores in zip(cycle[-2::-1], ways_out[-2::-1]):
                exits[scores == row] = u
            inside = np.concatenate([held.pop(u, (u,)) for u in cycle])
            held[v] = inside
            row[inside] = np.inf
            rep[inside] = v
            for u in cycle[1:]:
                alive[u] = False
            pushes.append((v, cycle, cycle_choice, exits))
            choice[v] = int(row.argmin())
            v = rep[choice[v]]
        for u in path:
            reaches_root[u] = True

    for v, cycle, cycle_choice, exits in reversed(pushes):
        p = choice[v]
        for u, c in zip(cycle, cycle_choice):
            choice[u] = c
        choice[exits[p]] = p
    return choice


def edmonds(instance: Instance, lam: float = 0.0) -> Arborescence:
    """Minimum spanning arborescence of W + lam*C over all roots.

    The best root is found in one pass via a virtual super-root joined to
    every vertex at a uniform large score, so exactly one real vertex
    attaches to it. One (n+1) x (n+1) score matrix is made per call; cycles
    are contracted on its rows only, and no column is touched. Among equal
    scores a vertex, or a contracted cycle, takes the smallest original
    column as its parent. Raises ValueError unless 0 <= lam < inf.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    n = instance.n
    score = np.empty((n + 1, n + 1))
    block = score[:n, :n]
    with np.errstate(invalid="ignore"):  # lam=0 turns the inf diagonal into nan
        np.multiply(instance.costs, lam, out=block)
    block += instance.weights
    np.fill_diagonal(score, -np.inf)
    big = 2.0 * (n + 1) * (float(block.max()) + 1.0)
    np.fill_diagonal(score, np.inf)
    score[:n, n] = big
    score[n] = np.inf
    choice = _min_out_tree(score, n)

    root = choice.index(n)
    parent = np.array(choice[:n], dtype=np.int64)
    parent[root] = -1
    rows = np.flatnonzero(parent >= 0)
    weight = float(instance.weights[rows, parent[rows]].sum())
    cost = float(instance.costs[rows, parent[rows]].sum())
    return Arborescence(root=root, parent=parent, weight=weight, cost=cost)


@functools.lru_cache(maxsize=_ORACLE_MAX_N)
def _choice_table(n: int) -> np.ndarray:
    """Flat index i*n + j of row i's r-th out-neighbour j at [i, r]: j is r,
    or r + 1 from r = i on. Read-only; built on the first call for each n."""
    r = np.arange(n - 1)
    i = np.arange(n)[:, None]
    table = i * n + r + (r >= i)
    table.flags.writeable = False
    return table


def _edge_values(instance: Instance) -> np.ndarray:
    """Each edge's weight and cost as one complex number W + iC, flat by
    edge index i*n + j. Complex addition adds the two parts as two float
    additions would, so one gather and one sum serve both totals."""
    edges = np.empty(instance.n * instance.n, dtype=complex)
    edges.real = instance.weights.ravel()
    edges.imag = instance.costs.ravel()
    return edges


def _enumerate_choice_sums(values: np.ndarray) -> np.ndarray:
    """Total over the cartesian product of each row's values, summed from
    0.0 over the rows in turn. Each row's choice is put outermost, so the
    last row's varies slowest in the result and every step's inner loop
    runs over all the totals so far."""
    totals = np.zeros(1, dtype=values.dtype)
    for row in values:
        totals = (row[:, None] + totals).ravel()
    return totals


def _mapping_sums(values: np.ndarray, n: int) -> np.ndarray:
    """Each mapping's total of ``values``, flat by edge index, in the lex
    order of the rows' choices read from the last row to the first."""
    return _enumerate_choice_sums(values[_choice_table(n)])


def _in_budget_weights(totals: np.ndarray, c0: float, kind: str) -> np.ndarray:
    """The weights of the totals W + iC, +inf where C exceeds c0. Raises
    InfeasibleBudgetError when no total fits."""
    feasible = totals.imag <= c0
    if not feasible.any():
        raise InfeasibleBudgetError(f"no {kind} fits budget {c0:.6g}")
    return np.where(feasible, totals.real, np.inf)


def exact_mapping_oracle(instance: Instance, c0: float) -> Mapping:
    """Global constrained-mapping optimum by enumerating all (n-1)^n maps;
    of equally light ones, the first in lex order of the rows' choices."""
    n = instance.n
    if n > _ORACLE_MAX_N:
        raise SizeLimitError(f"mapping oracle capped at n={_ORACLE_MAX_N}, got {n}")
    if math.isnan(c0):
        raise ValueError(f"c0 must be a number, got {c0}")
    weights = _in_budget_weights(_mapping_sums(_edge_values(instance), n), c0, "mapping")
    lightest = np.flatnonzero(weights == weights.min())
    # row i's choice digits, of each lightest map, are the enumeration's
    # index digits in reverse; take the lex-first map
    shape = (n - 1,) * n
    digits = np.array(np.unravel_index(lightest, shape))[::-1]
    r = digits[:, np.ravel_multi_index(digits, shape).argmin()]
    # digit r of row i is its r-th out-neighbour: r, or r + 1 from r = i on
    return make_mapping(instance, r + (r >= np.arange(n)))


def _exact_mapping_weight(instance: Instance, c0: float) -> float:
    """``exact_mapping_oracle(instance, c0).weight``, bit for bit, without
    choosing or building the map: the same enumeration's least in-budget
    weight. The map's weight sums its edges in the enumeration's order."""
    totals = _mapping_sums(_edge_values(instance), instance.n)
    return float(_in_budget_weights(totals, c0, "mapping").min())


@functools.lru_cache(maxsize=_ORACLE_MAX_N)
def _arborescence_table(n: int) -> np.ndarray:
    """Every spanning arborescence on n vertices as a read-only (n-1) x
    n^(n-1) array of flat edge indices v*n + parent[v].

    Row k holds the k-th non-root vertex's edge. Columns come root by root,
    n^(n-2) per root (Cayley), and within a root in the lex order of the
    non-root vertices' choice digits, digit r of vertex v naming its r-th
    out-neighbour. Built on the first call for each n.
    """
    # each non-root vertex's choice digit, one row per digit string in lex order
    digits = np.indices((n - 1,) * (n - 1)).reshape(n - 1, -1).T
    blocks = []
    for root in range(n):
        non_root = np.delete(np.arange(n), root)
        # a self-loop at the root: the chase below parks there
        parents = np.insert(digits + (digits >= non_root), root, root, axis=1)
        # 2^k >= n - 1 steps of the chase reach the root from all that can
        reach = parents
        for _ in range((n - 2).bit_length()):
            reach = np.take_along_axis(reach, reach, axis=1)
        valid = parents[(reach == root).all(axis=1)]
        blocks.append((non_root * n + valid[:, non_root]).T)
    table = np.concatenate(blocks, axis=1)
    table.flags.writeable = False
    return table


def _arborescence_sums(values: np.ndarray, n: int) -> np.ndarray:
    """Each arborescence's total of ``values``, flat by edge index, in the
    table's column order: summed over the non-root vertices in increasing
    order from 0.0, the order of ``_enumerate_choice_sums``."""
    table = _arborescence_table(n)
    totals = np.zeros(table.shape[1], dtype=values.dtype)
    # one row of edges at a time: a gather of the whole table allocates n - 1
    # times as much per call, and took 2.5x as long at n = 6
    for edges in table:
        totals += values[edges]
    return totals


def exact_arborescence_oracle(instance: Instance, c0: float) -> Arborescence:
    """Global constrained optimum over every spanning arborescence.

    The arborescences are the columns of a table built once per n, and the
    first lightest in-budget column wins: the earliest root, and the first
    arborescence in that root's lex order.
    """
    n = instance.n
    if n > _ORACLE_MAX_N:
        raise SizeLimitError(f"arborescence oracle capped at n={_ORACLE_MAX_N}, got {n}")
    if math.isnan(c0):
        raise ValueError(f"c0 must be a number, got {c0}")
    totals = _arborescence_sums(_edge_values(instance), n)
    best = int(np.argmin(_in_budget_weights(totals, c0, "arborescence")))
    edges = _arborescence_table(n)[:, best]
    parent = np.full(n, -1, dtype=np.int64)
    parent[edges // n] = edges % n
    return Arborescence(
        root=best // n ** (n - 2), parent=parent,
        weight=float(totals.real[best]), cost=float(totals.imag[best]),
    )


def _exact_arborescence_weight(instance: Instance) -> float:
    """``exact_arborescence_oracle(instance, inf).weight``, bit for bit:
    the least total of the weights alone. Every cost is finite, so every
    arborescence fits, and a sum of the real parts is the real part of the
    complex sum."""
    return float(_arborescence_sums(instance.weights.ravel(), instance.n).min())


class Trace(NamedTuple):
    """A pipeline run's report beside its tree and lower bound; rows take these names."""

    lambda_star: float  # the mapping dual's maximiser
    mapping_weight: float  # the mapping the repair started from
    mapping_cost: float
    cycles_broken: int  # the mapping's cycles, also when the fallback ran
    w_max_used: float  # the mapping's heaviest edge weight
    c_max_used: float  # and its costliest edge cost
    slack_used: float  # the tree's cost minus the mapping's
    dual_full_evaluations: int
    dual_candidate_evaluations: int
    dual_candidate_width: int
    edmonds_calls: int  # the fallback's; 0 when the repaired tree fit


@dataclass(frozen=True, eq=False)
class PipelineResult:
    arborescence: Arborescence
    lower_bound: float
    trace: dict


class _EdmondsEvaluator:
    """The dual's search over Lagrangian arborescences: each lam's Edmonds
    tree, made once, as the DualEvaluation of the arborescence dual."""

    def __init__(self, instance: Instance, c0: float):
        self.instance, self.c0 = instance, c0
        self.trees = {}  # lam -> its evaluation; one Edmonds call each

    def at(self, lam: float) -> DualEvaluation:
        if lam not in self.trees:
            tree = edmonds(self.instance, lam)
            phi = _line(tree, lam, self.c0)
            self.trees[lam] = DualEvaluation(lam, phi, tree, tree.cost - self.c0)
        return self.trees[lam]

    def ends(self, a: float, b: float) -> tuple[DualEvaluation, DualEvaluation]:
        return self.at(a), self.at(b)

    @staticmethod
    def crossing(e_lo: DualEvaluation, e_hi: DualEvaluation) -> float:
        lo, hi = e_lo.argmin, e_hi.argmin
        return (hi.weight - lo.weight) / (lo.cost - hi.cost)


def _lagrangian_arborescence(
    instance: Instance, c0: float, lambda_star: float
) -> tuple[Arborescence, int]:
    """The feasible-side Lagrangian arborescence, and the Edmonds calls made.

    The lambda=0 tree if it fits c0. Otherwise the mapping dual's bracket
    search (``dual._bracket``) and line meeting (``dual._meet``) run on the
    trees, from a = 0 and b = ``lambda_star`` (n log n for 0). Raises
    InfeasibleBudgetError if the tree at the search's ceiling, the
    cheapest-cost arborescence, is over budget.
    """
    n = instance.n
    evaluate = _EdmondsEvaluator(instance, c0)
    if evaluate.at(0.0).subgradient <= 0:
        return evaluate.at(0.0).argmin, 1
    try:
        ends = _bracket(evaluate, 0.0, lambda_star or n * math.log(n))
    except ArithmeticError:
        cost = evaluate.at(_lambda_ceiling(n)).argmin.cost
        message = f"cheapest arborescence costs {cost:.6g} > budget {c0:.6g}"
        raise InfeasibleBudgetError(message) from None
    return _meet(evaluate, *ends)[2].argmin, len(evaluate.trees)


def solve_constrained_arborescence(instance: Instance, c0: float) -> PipelineResult:
    """Full pipeline: dual mapping solve at c0 -> cycle repair -> validation.

    When the repaired arborescence costs more than c0, the mapping dual's
    search on Edmonds' trees of W + lambda*C, from 0 and lambda*, returns the
    feasible-side Lagrangian arborescence instead. Raises InfeasibleBudgetError
    when no mapping fits c0, or when the cheapest-cost arborescence does not.

    The lower bound certifies the constrained-mapping optimum; it and
    lambda* stay the mapping dual's when the fallback runs. The trace is
    ``Trace._asdict()``: the mapping, the dual's counters, the cycles broken,
    the slack used and the fallback's Edmonds calls (0 when the repair fit).
    """
    solution = solve_mapping(instance, c0)
    opt = solution.dual
    dec = decompose(solution.mapping)
    arb = repair(solution.mapping, instance, c0, opt.lambda_star, dec)
    edmonds_calls = 0
    if arb.cost > c0:
        arb, edmonds_calls = _lagrangian_arborescence(instance, c0, opt.lambda_star)
    ok, diags = validate(arb, instance)
    if not ok:
        raise AssertionError(f"the pipeline produced an invalid arborescence: {diags}")
    trace = Trace(
        opt.lambda_star, solution.mapping.weight, solution.mapping.cost,
        len(dec.cycles), solution.w_max_used, solution.c_max_used,
        arb.cost - solution.mapping.cost, opt.full_evaluations,
        opt.candidate_evaluations, opt.candidate_width, edmonds_calls,
    )
    return PipelineResult(arb, solution.lower_bound, trace._asdict())
