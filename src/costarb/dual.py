"""Lagrangian dual of the budget-constrained minimum-weight mapping problem.

A mapping assigns every vertex i an out-neighbour f(i) != i. Relaxing the
budget C(f) <= c0 with a multiplier lam >= 0 gives the dual function

    phi(lam, c0) = min_f [ W(f) + lam * C(f) ] - lam * c0,

whose inner minimum decomposes per row: each vertex independently picks the
edge minimising W + lam*C. phi is concave piecewise-linear in lam with
subgradient C(f_lam) - c0, which is non-increasing under a fixed smallest-
column tie-break, so the maximiser is found by bisection on the subgradient
sign. The feasible-side argmin plus a one-row swap closes the duality gap to
at most one edge weight.

The bisection runs from [0, n log n] down to a width of 1e-10, about fifty
steps, but only a few of them scan the whole n x n matrix:

1. Full evaluations stepped geometrically from n log n find a bracket
   [a, b] with subgradient > 0 at a and <= 0 at b.
2. Each row keeps as candidates the columns j with fl(W + a*C) <= its
   minimum at b. Rounding is monotone, so every argmin at any lam in
   [a, b], ties included, is a candidate.
3. The bisection is replayed step for step. A point below a or above b
   takes its known sign unevaluated; a point in [a, b] is evaluated on the
   candidates with the same arithmetic as a full scan. An end point left
   outside [a, b] gets a full evaluation, and so does a skipped point whose
   phi weak duality cannot place below phi*.

The replay visits the same points and takes the same branches as the plain
bisection, so lambda*, phi* and both bracket mappings are the same bit for
bit, at O(n*k) cost per step for k candidates per row. Full scans run block
by block of rows, so no n x n work array is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleBudgetError, TightenTooLargeError
from .instance import Instance

_BISECTION_TOL_FACTOR = 1e-10
_LAMBDA_OVERFLOW_GUARD = 1e30
# Step of the bracket search: a larger step saves full evaluations but widens
# [a, b] and so the candidate sets.
_BRACKET_FACTOR = 8.0
# Relative bound on the rounding in a computed phi, far above the float64
# error of any sum and product it is made of.
_PHI_ROUNDING = 1e-12
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
    """Maximiser bracket: mappings from the cost>=c0 and cost<=c0 sides.

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


def maximize_dual(
    instance: Instance, c0: float, lambda_tol: Optional[float] = None
) -> DualOptimum:
    """Maximise phi(., c0) by bisection on the subgradient sign.

    Searches [0, n log n], doubling the upper end if the subgradient is still
    positive there. If the unconstrained weight-minimal mapping already fits
    the budget the maximiser is lambda=0. Raises InfeasibleBudgetError when
    even the per-row cost-minimal mapping exceeds c0.

    With ``lambda_tol`` unset the bracket narrows to 1e-10 * (1 + bracket
    scale), tight enough that both bracket mappings differ in at most the
    single row whose argmin flips at the maximiser.

    Most bisection steps run on per-row candidate columns rather than the
    full matrix (see the module docstring); the result is the same bit for
    bit. The counters on the result say how many evaluations of each kind
    were made.
    """
    return _maximize_dual(instance, c0, lambda_tol, min_cost_sum(instance))


def _tolerance(lambda_tol: Optional[float], hi: float) -> float:
    return lambda_tol if lambda_tol is not None else _BISECTION_TOL_FACTOR * (1.0 + hi)


def _maximize_dual(
    instance: Instance, c0: float, lambda_tol: Optional[float], cheapest: float
) -> DualOptimum:
    """maximize_dual, given the cheapest mapping's cost ``cheapest``."""
    if c0 <= 0:
        raise ValueError(f"c0 must be positive, got {c0}")
    if lambda_tol is not None and lambda_tol <= 0:
        raise ValueError(f"lambda_tol must be positive, got {lambda_tol}")
    if cheapest > c0:
        raise InfeasibleBudgetError(
            f"cheapest mapping costs {cheapest:.6g} > budget {c0:.6g}"
        )

    evaluate = _PhiEvaluator(instance, c0)

    def optimum(lambda_star, phi_star, e_low, e_high) -> DualOptimum:
        return DualOptimum(
            lambda_star=lambda_star, phi_star=phi_star,
            mapping_low=e_low.argmin, mapping_high=e_high.argmin,
            full_evaluations=evaluate.full_evaluations,
            candidate_evaluations=evaluate.candidate_evaluations,
            candidate_width=evaluate.candidate_width,
        )

    e_zero = evaluate(0.0)
    if e_zero.subgradient <= 0:
        return optimum(0.0, e_zero.phi, e_zero, e_zero)

    # 1. A bracket [a, b] with subgradient > 0 at a and <= 0 at b, from full
    # evaluations stepped geometrically away from n log n.
    top = instance.n * math.log(instance.n)
    e_top, minima_b = evaluate.full(top)
    a, b = 0.0, top
    if e_top.subgradient > 0:
        ceiling = top  # the last doubling of top that stays within the guard
        while ceiling * 2.0 <= _LAMBDA_OVERFLOW_GUARD:
            ceiling *= 2.0
        e_b = e_top
        while e_b.subgradient > 0:
            if b == ceiling:
                raise ArithmeticError("subgradient never changed sign; lambda overflow")
            a, b = b, min(b * _BRACKET_FACTOR, ceiling)
            e_b, minima_b = evaluate.full(b)
    else:
        # Stop stepping down at the bisection's tolerance; a = 0 is known to
        # be on the positive side.
        while b / _BRACKET_FACTOR > _tolerance(lambda_tol, b):
            e_mid, minima_mid = evaluate.full(b / _BRACKET_FACTOR)
            if e_mid.subgradient > 0:
                a = b / _BRACKET_FACTOR
                break
            b, minima_b = b / _BRACKET_FACTOR, minima_mid

    # 2. Every argmin at any lam in [a, b] is among the candidates.
    evaluate.build_candidates(a, minima_b)

    # 3. Replay the bisection from [0, n log n]. Points outside [a, b] have a
    # known subgradient sign and are skipped.
    visited = [e_zero, e_top]
    skipped = []

    def probe(lam: float) -> tuple[bool, Optional[DualEvaluation]]:
        if lam < a or lam > b:
            skipped.append(lam)
            return lam < a, None
        e = evaluate.on_candidates(lam)
        visited.append(e)
        return e.subgradient > 0, e

    lo, e_lo, hi, e_hi = 0.0, e_zero, top, e_top
    positive = e_top.subgradient > 0
    while positive:  # ends by b, which is within the overflow guard
        lo, e_lo = hi, e_hi
        hi *= 2.0
        positive, e_hi = probe(hi)

    while hi - lo > _tolerance(lambda_tol, hi):
        mid = 0.5 * (lo + hi)
        positive, e_mid = probe(mid)
        if positive:
            lo, e_lo = mid, e_mid
        else:
            hi, e_hi = mid, e_mid

    if e_lo is None:
        e_lo = evaluate(lo)
        visited.append(e_lo)
    if e_hi is None:
        e_hi = evaluate(hi)
        visited.append(e_hi)
    phi_best = max(e.phi for e in visited)
    # phi_star is the largest phi among the points the bisection visits,
    # skipped ones included. By weak duality a skipped point's phi is at most
    # W + lam*(C - c0) of the end point's mapping on its side; only where
    # that bound comes within rounding of phi_best, as where phi is flat, is
    # the point evaluated.
    for lam in skipped:
        if lam in (lo, hi):
            continue
        near = e_lo.argmin if lam < lo else e_hi.argmin
        bound = near.weight + lam * (near.cost - c0)
        slack = _PHI_ROUNDING * (near.weight + lam * near.cost + lam * c0)
        if bound + slack >= phi_best:
            phi_best = max(phi_best, evaluate(lam).phi)
    return optimum(hi, phi_best, e_lo, e_hi)


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
    lambda_tol: Optional[float] = None,
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

    opt = _maximize_dual(instance, c0_tight, lambda_tol, cheapest)
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
    instance: Instance,
    c0: float,
    tighten: Optional[float] = None,
    lambda_tol: Optional[float] = None,
) -> MappingSolution:
    """Near-optimal feasible mapping with a weak-duality certificate.

    Maximises the dual at the tightened budget c0 - tighten, then returns the
    lightest among the feasible-side mapping, the infeasible-side mapping if
    it happens to fit, and its best single-row swap to a cheapest-cost edge.
    ``tighten=None`` applies default_tighten; the reported lower bound always
    refers to the original budget.
    """
    solution, _ = _solve_mapping_full(instance, c0, tighten, lambda_tol)
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
        inst = generate(n, s, seed + t)
        with np.errstate(invalid="ignore"):
            scores = inst.weights + lam * inst.costs
        np.fill_diagonal(scores, np.inf)
        values[t] = scores.min(axis=1).sum()
    mean = float(values.mean())
    rel_std = float(values.std(ddof=1) / mean) if trials > 1 else 0.0
    max_rel_dev = float(np.abs(values - mean).max() / mean)
    return ConcentrationReport(
        n=n, s=s, lam=lam, trials=trials,
        mean=mean, rel_std=rel_std, max_rel_dev=max_rel_dev,
    )
