"""Lagrangian dual of the budget-constrained minimum-weight mapping problem.

A mapping assigns every vertex i an out-neighbour f(i) != i. Relaxing the
budget C(f) <= c0 with a multiplier lam >= 0 gives the dual function

    phi(lam, c0) = min_f [ W(f) + lam * C(f) ] - lam * c0,

whose inner minimum decomposes per row: each vertex independently picks the
edge minimising W + lam*C. phi is concave piecewise-linear in lam with
subgradient C(f_lam) - c0, which is non-increasing under a fixed smallest-
column tie-break, so its maximiser is the breakpoint where the subgradient
changes sign. The feasible-side argmin plus a one-row swap closes the
duality gap to at most one edge weight.

The maximiser is found exactly, in three stages, of which only the first
scans the whole n x n matrix:

1. Full evaluations stepped geometrically from n log n find a bracket
   [a, b] with subgradient > 0 at a and <= 0 at b.
2. Each row keeps as candidates the columns j with fl(W + a*C) <= its
   minimum at b. Rounding is monotone, so every argmin at any lam in
   [a, b], ties included, is a candidate.
3. Each mapping's phi-line is W + lam*(C - c0). The lines of the argmins
   at the two bracket ends meet at some lam in between, where the argmin is
   evaluated on the candidates. If it is one of the two, lam is the
   maximiser; otherwise it replaces the end on the side of its subgradient
   sign. phi has finitely many pieces, so this ends after a few steps.

Each stage-3 step costs O(n*k) for k candidates per row. Full scans run
block by block of rows, so no n x n work array is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleBudgetError, TightenTooLargeError
from .instance import Instance

_LAMBDA_OVERFLOW_GUARD = 1e30
# Step of the bracket search: a larger step saves full evaluations but widens
# [a, b] and so the candidate sets.
_BRACKET_FACTOR = 8.0
# Relative lower end of the downward bracket search.
_BRACKET_FLOOR = 1e-10
# Rows per block of a full scan: a block of W + lam*C stays in cache between
# being computed and being scanned, and no n x n work array is needed.
_ROW_BLOCK = 32


@dataclass(frozen=True, eq=False)
class Mapping:
    """Fixed-point-free vertex assignment with its total weight and cost."""

    f: np.ndarray
    weight: float
    cost: float


@dataclass(frozen=True, eq=False)
class DualEvaluation:
    lam: float
    phi: float
    argmin: Mapping
    subgradient: float


@dataclass(frozen=True, eq=False)
class DualOptimum:
    """The maximiser lambda_star with the argmins on either side of it:
    mapping_low costs more than c0 and mapping_high at most c0 (both are
    the lambda=0 argmin when that fits the budget).

    The counters are deterministic: n x n evaluations, evaluations on the
    per-row candidate columns, and the padded number of candidates per row
    (0 when none were built).
    """

    lambda_star: float
    phi_star: float
    mapping_low: Mapping
    mapping_high: Mapping
    full_evaluations: int
    candidate_evaluations: int
    candidate_width: int


@dataclass(frozen=True, eq=False)
class MappingSolution:
    """Feasible mapping plus the dual certificate bounding the optimum below."""

    mapping: Mapping
    lower_bound: float
    w_max_used: float
    c_max_used: float


def make_mapping(instance: Instance, f: np.ndarray) -> Mapping:
    """Attach recomputed weight/cost totals to an assignment array."""
    f = np.asarray(f, dtype=np.int64)
    rows = np.arange(instance.n)
    if f.shape != (instance.n,) or np.any(f == rows) or f.min() < 0 or f.max() >= instance.n:
        raise ValueError("f must map every vertex to a different vertex")
    weight = float(instance.weights[rows, f].sum())
    cost = float(instance.costs[rows, f].sum())
    return Mapping(f=f, weight=weight, cost=cost)


class _PhiEvaluator:
    """Dual evaluations on one instance, counted by kind.

    A full evaluation scans W + lam*C block by block of rows through a
    reusable buffer. Once ``build_candidates`` has run, ``on_candidates``
    scans only each row's candidate columns, with the same arithmetic and
    the same gather-and-sum, so it returns the full evaluation bit for bit
    at any lam in the bracket the candidates were built for.
    """

    def __init__(self, instance: Instance, c0: float):
        self.instance = instance
        self.c0 = c0
        self._rows = np.arange(instance.n)
        self._block = np.empty((min(instance.n, _ROW_BLOCK), instance.n))
        self.full_evaluations = 0
        self.candidate_evaluations = 0
        self.candidate_width = 0

    def _scores(self, r0: int, lam: float) -> np.ndarray:
        """W + lam*C on the block of rows from r0 on, diagonal +inf."""
        inst = self.instance
        rows = slice(r0, min(r0 + _ROW_BLOCK, inst.n))
        scores = self._block[: rows.stop - r0]
        with np.errstate(invalid="ignore"):  # lam=0 turns the inf diagonal into nan
            np.multiply(inst.costs[rows], lam, out=scores)
        scores += inst.weights[rows]
        scores.reshape(-1)[r0 :: inst.n + 1] = np.inf  # entries (i, r0 + i)
        return scores

    def _evaluation(self, lam: float, f, w_chosen, c_chosen) -> DualEvaluation:
        weight = float(w_chosen.sum())
        cost = float(c_chosen.sum())
        phi_val = weight + lam * cost - lam * self.c0
        return DualEvaluation(
            lam=lam,
            phi=phi_val,
            argmin=Mapping(f=f, weight=weight, cost=cost),
            subgradient=cost - self.c0,
        )

    def full(self, lam: float) -> tuple[DualEvaluation, np.ndarray]:
        """Full evaluation plus each row's minimum of W + lam*C."""
        inst = self.instance
        f = np.empty(inst.n, dtype=np.intp)
        minima = np.empty(inst.n)
        for r0 in range(0, inst.n, _ROW_BLOCK):
            scores = self._scores(r0, lam)
            block_f = scores.argmin(axis=1)  # first occurrence = smallest column
            f[r0 : r0 + len(scores)] = block_f
            minima[r0 : r0 + len(scores)] = scores[np.arange(len(scores)), block_f]
        self.full_evaluations += 1
        rows = self._rows
        e = self._evaluation(lam, f, inst.weights[rows, f], inst.costs[rows, f])
        return e, minima

    def __call__(self, lam: float) -> DualEvaluation:
        return self.full(lam)[0]

    def build_candidates(self, a: float, minima_b: np.ndarray) -> None:
        """Keep, per row, the columns j with fl(W + a*C) <= the row's minimum
        at some b >= a.

        Rounding is monotone and costs are nonnegative, so for lam in [a, b]
        every column attaining the row minimum, ties included, passes the
        test. Columns are kept ascending, so argmin's first occurrence is
        still the smallest column. Rows are padded with W = inf, C = 0.
        """
        inst = self.instance
        n = inst.n
        found_rows, found_cols = [], []
        for r0 in range(0, n, _ROW_BLOCK):
            scores = self._scores(r0, a)
            r, c = np.nonzero(scores <= minima_b[r0 : r0 + len(scores), None])
            found_rows.append(r + r0)
            found_cols.append(c)
        rows = np.concatenate(found_rows)
        cols = np.concatenate(found_cols)
        counts = np.bincount(rows, minlength=n)
        slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        k = int(counts.max())
        self._cand_cols = np.zeros((n, k), dtype=np.intp)
        self._cand_w = np.full((n, k), np.inf)
        self._cand_c = np.zeros((n, k))
        self._cand_cols[rows, slot] = cols
        self._cand_w[rows, slot] = inst.weights[rows, cols]
        self._cand_c[rows, slot] = inst.costs[rows, cols]
        self._cand_buf = np.empty((n, k))
        self._cand_offsets = self._rows * k
        self.candidate_width = k

    def on_candidates(self, lam: float) -> DualEvaluation:
        np.multiply(self._cand_c, lam, out=self._cand_buf)
        self._cand_buf += self._cand_w
        chosen = self._cand_buf.argmin(axis=1) + self._cand_offsets
        self.candidate_evaluations += 1
        return self._evaluation(
            lam, self._cand_cols.take(chosen), self._cand_w.take(chosen), self._cand_c.take(chosen)
        )


def phi(instance: Instance, lam: float, c0: float) -> DualEvaluation:
    """Single dual evaluation: per-row argmin of W + lam*C in one O(n^2) scan."""
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if c0 <= 0:
        raise ValueError(f"c0 must be positive, got {c0}")
    return _PhiEvaluator(instance, c0)(lam)


def min_cost_sum(instance: Instance) -> float:
    """Sum of per-row cost minima: the cheapest any mapping can cost."""
    return float(instance.costs.min(axis=1).sum())


def maximize_dual(instance: Instance, c0: float) -> DualOptimum:
    """Maximise phi(., c0) exactly: the maximiser is a breakpoint of phi.

    If the unconstrained weight-minimal mapping already fits the budget the
    maximiser is lambda=0. Otherwise a bracket found by full evaluations is
    narrowed by meeting the two bracket mappings' lines on the per-row
    candidate columns (see the module docstring) until the argmin where they
    meet is one of the two. Raises InfeasibleBudgetError when even the
    per-row cost-minimal mapping exceeds c0.

    phi_star is the largest phi evaluated, a weak-duality certificate. The
    counters on the result say how many evaluations of each kind were made.
    """
    return _maximize_dual(instance, c0, min_cost_sum(instance))


def _maximize_dual(instance: Instance, c0: float, cheapest: float) -> DualOptimum:
    """maximize_dual, given the cheapest mapping's cost ``cheapest``."""
    if c0 <= 0:
        raise ValueError(f"c0 must be positive, got {c0}")
    if cheapest > c0:
        raise InfeasibleBudgetError(
            f"cheapest mapping costs {cheapest:.6g} > budget {c0:.6g}"
        )

    evaluate = _PhiEvaluator(instance, c0)
    e_zero = evaluate(0.0)
    phi_best = e_zero.phi
    e_lo = e_hi = e_zero
    lam = 0.0
    if e_zero.subgradient > 0:
        # 1. A bracket [a, b] with subgradient > 0 at a and <= 0 at b, from
        # full evaluations stepped geometrically away from n log n.
        b = instance.n * math.log(instance.n)
        e_hi, minima_b = evaluate.full(b)
        phi_best = max(phi_best, e_hi.phi)
        if e_hi.subgradient > 0:
            ceiling = b  # the last doubling of n log n within the guard
            while ceiling * 2.0 <= _LAMBDA_OVERFLOW_GUARD:
                ceiling *= 2.0
            while e_hi.subgradient > 0:
                if b == ceiling:
                    raise ArithmeticError("subgradient never changed sign; lambda overflow")
                e_lo, b = e_hi, min(b * _BRACKET_FACTOR, ceiling)
                e_hi, minima_b = evaluate.full(b)
                phi_best = max(phi_best, e_hi.phi)
        else:
            # a = 0 is on the positive side; the floor only bounds the
            # number of full passes.
            while b / _BRACKET_FACTOR > _BRACKET_FLOOR * (1.0 + b):
                e_mid, minima_mid = evaluate.full(b / _BRACKET_FACTOR)
                phi_best = max(phi_best, e_mid.phi)
                if e_mid.subgradient > 0:
                    e_lo = e_mid
                    break
                e_hi, minima_b, b = e_mid, minima_mid, e_mid.lam

        # 2. Every argmin at any lam in [a, b] is among the candidates.
        evaluate.build_candidates(e_lo.lam, minima_b)

        # 3. Meet the bracket mappings' lines W + lam*(C - c0). Where they
        # meet, either the argmin is one of them, and lam is the breakpoint
        # that maximises phi, or it is a mapping strictly below both, which
        # replaces the end on its side. Each step narrows (lo, hi).
        weights, costs = instance.weights, instance.costs
        while True:
            low, high = e_lo.argmin, e_hi.argmin
            # Summed over only the rows where the two differ, the totals'
            # rounding does not swamp the differences.
            rows = np.flatnonzero(low.f != high.f)
            dw = weights[rows, high.f[rows]] - weights[rows, low.f[rows]]
            dc = costs[rows, low.f[rows]] - costs[rows, high.f[rows]]
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = float(dw.sum() / dc.sum())
            if not e_lo.lam < lam < e_hi.lam:
                # rounding: clamp into [lo, hi], taking hi for nan
                lam = max(e_lo.lam, min(e_hi.lam, lam))
                break
            e = evaluate.on_candidates(lam)
            phi_best = max(phi_best, e.phi)
            if (e.argmin.weight, e.argmin.cost) in (
                (low.weight, low.cost), (high.weight, high.cost)
            ):
                break
            if e.subgradient > 0:
                e_lo = e
            else:
                e_hi = e

    return DualOptimum(
        lambda_star=lam, phi_star=phi_best,
        mapping_low=e_lo.argmin, mapping_high=e_hi.argmin,
        full_evaluations=evaluate.full_evaluations,
        candidate_evaluations=evaluate.candidate_evaluations,
        candidate_width=evaluate.candidate_width,
    )


def default_tighten(instance: Instance, c0: float) -> float:
    """Budget margin reserved for the later mapping->arborescence repair.

    Constant-order budgets shrink by n**-1/2; growing budgets by
    min(1, c0 * n**-1/4 * log n). The margin is additionally capped at half
    the gap to the cheapest possible mapping so tightening alone can never
    fabricate infeasibility.
    """
    return _default_tighten(instance.n, c0, min_cost_sum(instance))


def _default_tighten(n: int, c0: float, cheapest: float) -> float:
    log_n = math.log(n)
    if c0 <= log_n:
        rule = min(n ** -0.5, c0 / 2.0)
    else:
        rule = min(1.0, c0 * n ** -0.25 * log_n)
    headroom = c0 - cheapest
    return max(0.0, min(rule, headroom / 2.0))


def _row_argmin(matrix: np.ndarray) -> np.ndarray:
    """np.argmin(matrix, axis=1), block by block of rows: numpy copies a
    read-only matrix whole to take its argmin."""
    return np.concatenate([
        np.argmin(matrix[r0 : r0 + _ROW_BLOCK], axis=1)
        for r0 in range(0, matrix.shape[0], _ROW_BLOCK)
    ])


def _solve_mapping_full(
    instance: Instance,
    c0: float,
    tighten: Optional[float] = None,
) -> tuple[MappingSolution, DualOptimum]:
    if c0 <= 0:
        raise ValueError(f"c0 must be positive, got {c0}")
    n = instance.n
    rows = np.arange(n)
    # Each row's cheapest-cost edge, found once: their costs sum to
    # min_cost_sum bit for bit, for the feasibility check and the tightening
    # headroom, and the one-row swap below moves a row onto one of them.
    cheap_cols = _row_argmin(instance.costs)
    cheap_costs = instance.costs[rows, cheap_cols]
    cheapest = float(cheap_costs.sum())
    if tighten is None:
        tighten = _default_tighten(n, c0, cheapest)
    if tighten < 0:
        raise ValueError(f"tighten must be nonnegative, got {tighten}")
    c0_tight = c0 - tighten
    if c0_tight <= 0:
        raise TightenTooLargeError(
            f"tighten {tighten:.6g} leaves non-positive working budget from c0={c0:.6g}"
        )

    opt = _maximize_dual(instance, c0_tight, cheapest)
    lam = opt.lambda_star

    candidates = [opt.mapping_high]
    if opt.mapping_low.cost <= c0:
        candidates.append(opt.mapping_low)

    # One-row swap: move a single row of the infeasible-side mapping to its
    # cheapest-cost edge, keeping the rest intact; at most one row differs.
    f_low = opt.mapping_low.f
    cost_delta = cheap_costs - instance.costs[rows, f_low]
    weight_delta = instance.weights[rows, cheap_cols] - instance.weights[rows, f_low]
    swapped_cost = opt.mapping_low.cost + cost_delta
    feasible = swapped_cost <= c0
    if feasible.any():
        new_weights = opt.mapping_low.weight + np.where(feasible, weight_delta, np.inf)
        i = int(np.argmin(new_weights))
        f_swap = f_low.copy()
        f_swap[i] = cheap_cols[i]
        candidates.append(make_mapping(instance, f_swap))

    best = min(candidates, key=lambda m: m.weight)
    # Dual value against the ORIGINAL budget: any multiplier certifies a
    # lower bound, and the inner minimum at lambda* is already known.
    lower_bound = (
        opt.mapping_high.weight + lam * opt.mapping_high.cost - lam * c0
    )
    w_max = float(instance.weights[rows, best.f].max())
    c_max = float(instance.costs[rows, best.f].max())
    solution = MappingSolution(
        mapping=best, lower_bound=lower_bound, w_max_used=w_max, c_max_used=c_max
    )
    return solution, opt


def solve_mapping(
    instance: Instance, c0: float, tighten: Optional[float] = None
) -> MappingSolution:
    """Near-optimal feasible mapping with a weak-duality certificate.

    Maximises the dual at the tightened budget c0 - tighten, then returns the
    lightest among the feasible-side mapping, the infeasible-side mapping if
    it happens to fit, and its best single-row swap to a cheapest-cost edge.
    ``tighten=None`` applies default_tighten; the reported lower bound always
    refers to the original budget.
    """
    solution, _ = _solve_mapping_full(instance, c0, tighten)
    return solution


@dataclass(frozen=True)
class ConcentrationReport:
    n: int
    s: float
    lam: float
    trials: int
    mean: float
    rel_std: float
    max_rel_dev: float


def empirical_concentration(
    n: int, s: float, lam: float, trials: int, seed: int
) -> ConcentrationReport:
    """Spread of S = sum_i min_j (W + lam*C) over freshly drawn instances."""
    if not 0 <= lam <= n * math.log(max(n, 2)):
        raise ValueError(f"lambda must lie in [0, n log n], got {lam}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    from .instance import generate

    values = np.empty(trials)
    for t in range(trials):
        # Each instance is freed before the next is drawn.
        values[t] = _PhiEvaluator(generate(n, s, seed + t), 0.0).full(lam)[1].sum()
    mean = float(values.mean())
    rel_std = float(values.std(ddof=1) / mean) if trials > 1 else 0.0
    max_rel_dev = float(np.abs(values - mean).max() / mean)
    return ConcentrationReport(
        n=n, s=s, lam=lam, trials=trials,
        mean=mean, rel_std=rel_std, max_rel_dev=max_rel_dev,
    )
