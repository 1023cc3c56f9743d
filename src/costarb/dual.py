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

Each row's cheapest-cost edge (``Instance.cheapest_costs``) serves
twice: the costs sum to the cheapest any mapping can cost, so a smaller
budget is infeasible, and the edges are the lam -> inf argmins that the
one-row swap moves a row onto. Each row's lightest edge
(``Instance.cheapest_weights``) is the lam = 0 argmin, so whether the
budget binds at all costs no pass of its own. A generated instance is
drawn by its first pass (``Instance.scan``), which finds those edges while
it draws. ``maximize_dual`` makes that pass first: where the budget is
slack in all but rare trials (``_budget_is_slack``) it only draws; where
the paper gives the maximiser it evaluates the first bracket ends (stage
1) and collects the candidates too, so it is the trial's one full pass.
Elsewhere, and below 256 rows, the instance is stored first, since a
later pass would store it anyway. Every later read, by the dual, the swap and
the arborescence stages, gathers entries that the first pass kept
(``Instance.edges``), and the dual never asks how the instance is held.

The maximiser is found exactly, in three stages, of which only the first
scans the whole n x n matrix. Stages 1 and 3 (``_bracket``, ``_meet``) take
any evaluator: the arborescence fallback runs them on Edmonds' trees.

1. Full evaluations find a bracket [a, b] with subgradient > 0 at a and
   <= 0 at b. From n = 256 on, the paper's closed-form maximiser lam^
   (``asymptotics.lambda_hint``, which assumes the model's U**s scale)
   puts b at 1.5*lam^ and a at lam^/1.5. Below 256, or without a hint,
   b starts at n log n and a at b/8. An end with the wrong sign steps
   outward by a factor of 8, one pass per step, which
   ``_PhiEvaluator.ends`` makes. The hint only picks where the full
   passes look: every bracket is confirmed by them.
2. Each row keeps as candidates the columns j with fl(W + a*C) <= its
   minimum at b, collected in the pass at a once the block's minima at b
   are known. Rounding is monotone and costs are nonnegative, so every
   argmin at any lam in [a, b], ties included, is a candidate.
3. Each mapping's phi-line is W + lam*(C - c0). The lines of the argmins
   at the two bracket ends meet at some lam in between, where the argmin is
   evaluated on the candidates. If it is one of the two, lam is the
   maximiser; otherwise it replaces the end on the side of its subgradient
   sign. phi has finitely many pieces, so this ends after a few steps.
   The dual's maximum is then the feasible-side argmin's line at lam.

Each stage-3 step costs O(n*k) for k candidates per row. Full scans run
block by block of rows, so no n x n work array is allocated. A scan of at
least 2**22 entries runs in row chunks, one per CPU this process may run
on, on threads that end with the scan. Every value is the same bits for
any number of chunks: the rows are independent and the candidates are
joined in row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import _theorem2_band, lambda_hint
from .errors import InfeasibleBudgetError
from .instance import Instance, _block_rows, _row_minima

_LAMBDA_OVERFLOW_GUARD = 1e30
# Step of the bracket search: a larger step saves full evaluations but widens
# [a, b] and so the candidate sets.
_BRACKET_FACTOR = 8.0
# Relative lower end of the downward bracket search.
_BRACKET_FLOOR = 1e-10
# From _HINT_MIN_N rows on, the paper's maximiser, widened by _HINT_MARGIN
# each way, is the first guess at the bracket. Below it the search from
# n log n makes fewer passes.
_HINT_MIN_N = 256
_HINT_MARGIN = 1.5
# A full pass runs in row chunks on threads from this many entries (n*n) on:
# below it, starting threads costs more than they save.
_THREADED_MIN_ENTRIES = 1 << 22


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
    the lambda=0 argmin when that fits the budget). phi_star is phi at
    lambda_star, read off mapping_high's line.

    The counters are deterministic: n x n evaluations (a pass at both
    bracket ends counts two), evaluations on the per-row candidate
    columns, and the padded number of candidates per row (0 when none
    were built).
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
    """Feasible mapping plus the dual certificate bounding the optimum below,
    and the dual optimum it was chosen from."""

    mapping: Mapping
    lower_bound: float
    w_max_used: float
    c_max_used: float
    dual: DualOptimum


def _line(m: Mapping, lam: float, c0: float) -> float:
    """m's phi-line W + lam*C - lam*c0: phi(lam) if m is the argmin at lam."""
    return m.weight + lam * m.cost - lam * c0


def make_mapping(instance: Instance, f: np.ndarray) -> Mapping:
    """Attach recomputed weight/cost totals to an assignment array."""
    f = np.asarray(f, dtype=np.int64)
    rows = np.arange(instance.n)
    if f.shape != (instance.n,) or np.any(f == rows) or f.min() < 0 or f.max() >= instance.n:
        raise ValueError("f must map every vertex to a different vertex")
    weights, costs = instance.edges(rows, f)
    return Mapping(f=f, weight=float(weights.sum()), cost=float(costs.sum()))


class _PhiEvaluator:
    """Dual evaluations on one instance, counted by kind.

    A full evaluation scans W + lam*C block by block of rows
    (``Instance.scan``), each chunk of rows through its own buffer. Once
    ``keep_candidates`` has run, ``at`` scans only each row's candidate
    columns, with the same arithmetic and the same gather-and-sum, so it
    returns the full evaluation bit for bit at any lam in the bracket the
    candidates were collected for. A pass takes the weight and the cost at
    each argmin while their block is in cache; every later gather is
    ``Instance.edges``, of candidates and of each row's cheapest edges.
    """

    def __init__(self, instance: Instance, c0: float):
        self.instance = instance
        self.c0 = c0
        self.rows = np.arange(instance.n)
        self.full_evaluations = 0
        self.candidate_evaluations = 0
        self.candidate_width = 0
        self._held = {}  # the last ends' a: its evaluation and row minima
        self._first = None  # the drawing pass's ends and its _pass result

    def _evaluation(self, lam: float, f, weight, cost) -> DualEvaluation:
        m = Mapping(f=f, weight=float(weight), cost=float(cost))
        return DualEvaluation(
            lam=lam, phi=_line(m, lam, self.c0), argmin=m, subgradient=m.cost - self.c0
        )

    def _scan(self, t0: int, t1: int, lams, f, minima, picked, minima_above):
        """The visit of rows [t0, t1) for ``Instance.scan``: on each block,
        W + lam*C with its +inf diagonal for each lam in turn, each row's
        argmin and minimum into ``f`` and ``minima``, the weight and the
        cost at the argmin into ``picked``, and, against ``minima_above``,
        the candidates of the last lam, which a visit names as flat
        indices."""
        if not lams:  # the pass that only draws
            return lambda *block: None
        n = self.instance.n
        buf = np.empty((min(t1 - t0, _block_rows(n)), n))
        rows = self.rows

        def visit(b0, b1, weights, costs):
            scores = buf[: b1 - b0]
            # lam=0 turns the inf diagonal into nan. The error state is the
            # calling thread's own, so it is set here, on the thread that scans.
            with np.errstate(invalid="ignore"):
                for k, lam in enumerate(lams):
                    np.multiply(costs, lam, out=scores)
                    scores += weights
                    # entries (t, b0 + t): row t's own column
                    scores.reshape(-1)[b0 :: n + 1] = np.inf
                    _row_minima(scores, f[k, b0:b1], minima[k, b0:b1])
            cols = f[:, b0:b1]
            picked[0, :, b0:b1] = weights[rows[: b1 - b0], cols]
            picked[1, :, b0:b1] = costs[rows[: b1 - b0], cols]
            if minima_above is not None:
                mask = scores <= minima_above[b0:b1, None]
                return mask.reshape(-1).nonzero()[0] + b0 * n
            return None

        return visit

    def _pass(self, lams, minima_above):
        """One pass over the rows: the evaluation and the row minima
        at each lam, plus the candidates of the last lam against
        ``minima_above`` (None: not collected). Large passes run in row
        chunks on threads; the candidates are joined in row order, so
        their flat indices ascend."""
        inst = self.instance
        n = inst.n
        f = np.empty((len(lams), n), dtype=np.intp)
        minima = np.empty((len(lams), n))
        picked = np.empty((2, len(lams), n))  # the weights and costs at f
        if minima_above is None and len(lams) > 1:
            # filled block by block before the last lam's scan reads it
            minima_above = minima[-2]
        named = inst.scan(
            lambda t0, t1: self._scan(t0, t1, lams, f, minima, picked, minima_above),
            n * n >= _THREADED_MIN_ENTRIES,
        )
        # each lam's row sums as a 1-d array would
        weights, costs = picked.sum(axis=2)
        evaluations = [
            self._evaluation(lam, f[k], weights[k], costs[k]) for k, lam in enumerate(lams)
        ]
        return evaluations, minima, named

    def draw(self, ends) -> None:
        """If the instance is still to be drawn, draw it by a pass at the
        bracket ends ``(a, b)``, a < b, which ``ends(a, b)`` then takes
        without a pass, or by a pass at no lam for ``()``; for None, store
        it instead. The pass finds each row's cheapest edges too
        (``Instance.scan``)."""
        def first_scan():
            if ends:
                self._first = ends, self._pass(ends[::-1], None)
            else:
                self._pass((), None)

        self.instance.draw_by(None if ends is None else first_scan)

    def full(self, lam: float) -> tuple[DualEvaluation, np.ndarray]:
        """Full evaluation plus each row's minimum of W + lam*C."""
        [e], minima, _ = self._pass((lam,), None)
        self.full_evaluations += 1
        return e, minima[0]

    def ends(self, a: float, b: float) -> tuple[DualEvaluation, DualEvaluation]:
        """The evaluations at bracket ends a < b. The pass at a collects the
        candidates for [a, b] (stage 2 of the module docstring) as flat
        indices row * n + column and keeps them for ``keep_candidates``.

        One pass scans each block of rows at b and then, still in cache, at
        a. If b was the last call's a, its evaluation and row minima are
        held and a is scanned alone. The pass that drew the instance at
        a and b (``draw``) is taken as it is.
        """
        first, self._first = self._first, None
        held = self._held.get(b)
        if first and first[0] == (a, b):
            (e_b, e_a), minima, self._found = first[1]
            self.full_evaluations += 2
        elif held:
            [e_a], minima, self._found = self._pass((a,), held[1])
            e_b = held[0]
            self.full_evaluations += 1
        else:
            (e_b, e_a), minima, self._found = self._pass((b, a), None)
            self.full_evaluations += 2
        self._held = {a: (e_a, minima[-1])}
        return e_a, e_b

    def at_zero(self) -> DualEvaluation:
        """The evaluation at lam = 0, read from each row's lightest edge,
        which the instance holds, with no pass: 0*C adds exactly +0 off the
        diagonal, so it is the full evaluation's bit for bit."""
        inst = self.instance
        f, weights = inst.cheapest_weights
        return self._evaluation(0.0, f, weights.sum(), inst.edges(self.rows, f)[1].sum())

    def keep_candidates(self) -> None:
        """Use the candidates of the last ``ends`` as each row's columns.

        Flat indices ascend, so each row's columns do too, and argmin's first
        occurrence is still the smallest column. Rows are padded with
        W = inf, C = 0.
        """
        inst = self.instance
        m = inst.n
        t, cols = np.divmod(self._found, m)
        counts = np.bincount(t, minlength=m)
        slot = np.arange(len(t)) - (np.cumsum(counts) - counts)[t]
        k = int(counts.max())
        self._cand_cols = np.zeros((m, k), dtype=np.intp)
        self._cand_w = np.full((m, k), np.inf)
        self._cand_c = np.zeros((m, k))
        self._cand_cols[t, slot] = cols
        self._cand_w[t, slot], self._cand_c[t, slot] = inst.edges(t, cols)
        self._cand_buf = np.empty((m, k))
        self._cand_offsets = np.arange(m) * k
        self.candidate_width = k

    def at(self, lam: float) -> DualEvaluation:
        np.multiply(self._cand_c, lam, out=self._cand_buf)
        self._cand_buf += self._cand_w
        chosen = self._cand_buf.argmin(axis=1) + self._cand_offsets
        self.candidate_evaluations += 1
        return self._evaluation(
            lam, self._cand_cols.take(chosen),
            self._cand_w.take(chosen).sum(), self._cand_c.take(chosen).sum(),
        )

    def crossing(self, e_lo: DualEvaluation, e_hi: DualEvaluation) -> float:
        """Where the argmins' lines meet, summed over only the rows where they
        differ, so that the totals' rounding does not swamp the differences."""
        low, high = e_lo.argmin, e_hi.argmin
        d = np.flatnonzero(low.f != high.f)
        w_low, c_low = self.instance.edges(d, low.f[d])
        w_high, c_high = self.instance.edges(d, high.f[d])
        return float((w_high - w_low).sum() / (c_low - c_high).sum())


def _check_budget(c0: float) -> None:
    if not 0.0 < c0 < math.inf:
        raise ValueError(f"c0 must be positive and finite, got {c0}")


def phi(instance: Instance, lam: float, c0: float) -> DualEvaluation:
    """Single dual evaluation: per-row argmin of W + lam*C in one O(n^2) scan."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be nonnegative and finite, got {lam}")
    _check_budget(c0)
    return _PhiEvaluator(instance, c0).full(lam)[0]


def min_cost_sum(instance: Instance) -> float:
    """Sum of per-row cost minima: the cheapest any mapping can cost."""
    return float(instance.cheapest_costs[1].sum())


def maximize_dual(instance: Instance, c0: float) -> DualOptimum:
    """Maximise phi(., c0) exactly: the maximiser is a breakpoint of phi.

    If the unconstrained weight-minimal mapping already fits the budget the
    maximiser is lambda=0. Otherwise a bracket, started from the paper's
    maximiser when n is large enough and confirmed by full evaluations, is
    narrowed by meeting the two bracket mappings' lines on
    the per-row candidate columns (see the module docstring) until the
    argmin where they meet is one of the two. Raises InfeasibleBudgetError
    when even the per-row cost-minimal mapping exceeds c0, and ValueError
    unless 0 < c0 < inf.

    phi_star is phi at the maximiser, mapping_high's line there: a
    weak-duality certificate. The counters on the result say how many
    evaluations of each kind were made.
    """
    _check_budget(c0)
    n, s = instance.n, instance.s
    evaluate = _PhiEvaluator(instance, c0)
    # An instance still to be drawn is drawn by the first pass, which finds
    # each row's cheapest edges. From _HINT_MIN_N rows on, where the budget
    # is slack that is all it does, and where the paper gives the maximiser
    # (for s < 1, inside predict's band) it scans the first bracket ends
    # too. Elsewhere those ends seldom bracket lambda* and a second pass
    # would draw the instance again, so it is stored first, as a smaller
    # one is: its matrices take at most 1 MB.
    start = None
    if n >= _HINT_MIN_N and _budget_is_slack(n, s, c0):
        evaluate.draw(())
    else:
        start = below, b, hinted = _start(n, c0, s)
        lo, hi = _theorem2_band(n, s)
        covered = hinted and (s == 1.0 or lo <= c0 <= hi)
        evaluate.draw((_floored(below, b), b) if covered else None)
    cheapest = min_cost_sum(instance)
    if cheapest > c0:
        raise InfeasibleBudgetError(
            f"cheapest mapping costs {cheapest:.6g} > budget {c0:.6g}"
        )

    e_lo = e_hi = evaluate.at_zero()
    lam = 0.0
    if e_lo.subgradient > 0:
        # 1. full evaluations from the start, which costs a prediction
        below, b, _ = start or _start(n, c0, s)
        e_lo, e_hi = _bracket(evaluate, below, b)
        # 2. and 3.: the lines meet on the candidates for [a, b]
        evaluate.keep_candidates()
        lam, e_lo, e_hi = _meet(evaluate, e_lo, e_hi)

    return DualOptimum(
        lambda_star=lam, phi_star=_line(e_hi.argmin, lam, c0),
        mapping_low=e_lo.argmin, mapping_high=e_hi.argmin,
        full_evaluations=evaluate.full_evaluations,
        candidate_evaluations=evaluate.candidate_evaluations,
        candidate_width=evaluate.candidate_width,
    )


def _budget_is_slack(n: int, s: float, c0: float) -> bool:
    """Whether the lam = 0 argmin fits the budget in all but rare trials:
    its cost is a sum of n independent U**s, of mean n/(1+s) and standard
    deviation below 0.29*sqrt(n)."""
    return c0 >= n / (1.0 + s) + math.sqrt(n)


def _start(n: int, c0: float, s: float) -> tuple[float, float, bool]:
    """Stage 1's start (below, b) and whether the paper's maximiser gave
    it: b = 1.5 and below = 1/1.5 times the maximiser or, without one,
    b = n log n and below = b/8."""
    hint = lambda_hint(n, c0, s) if n >= _HINT_MIN_N else 0.0
    if 0.0 < hint < _lambda_ceiling(n):
        return hint / _HINT_MARGIN, min(hint * _HINT_MARGIN, _lambda_ceiling(n)), True
    b = n * math.log(n)
    return b / _BRACKET_FACTOR, b, False


def _lambda_ceiling(n: int) -> float:
    """The last doubling of n log n within the overflow guard: the bracket
    search gives up above it, whatever its start, so whether it raises
    ArithmeticError does not depend on the hint."""
    ceiling = n * math.log(n)
    while ceiling * 2.0 <= _LAMBDA_OVERFLOW_GUARD:
        ceiling *= 2.0
    return ceiling


def _bracket(evaluate, below: float, b: float) -> tuple[DualEvaluation, DualEvaluation]:
    """Stage 1 for either dual: ``evaluate.ends`` at a bracket [a, b] with
    subgradient > 0 at a (which it must be at 0) and <= 0 at b, started from
    ``below`` and b <= _lambda_ceiling(n). An end with the wrong sign steps
    outward by _BRACKET_FACTOR; a b at the ceiling still positive raises
    ArithmeticError, and an a below 1e-10 * (1 + b) is taken as 0."""
    n = evaluate.instance.n
    a = _floored(below, b)
    e_lo, e_hi = evaluate.ends(a, b)
    while e_hi.subgradient > 0:
        if b == _lambda_ceiling(n):
            raise ArithmeticError("subgradient never changed sign; lambda overflow")
        a, b = b, min(b * _BRACKET_FACTOR, _lambda_ceiling(n))
        e_lo, e_hi = evaluate.ends(a, b)
    while e_lo.subgradient <= 0:
        a, b = _floored(a / _BRACKET_FACTOR, a), a
        e_lo, e_hi = evaluate.ends(a, b)
    return e_lo, e_hi


def _floored(a: float, b: float) -> float:
    """A bracket's lower end a, or 0 when a is below 1e-10 * (1 + b)."""
    return a if a > _BRACKET_FLOOR * (1.0 + b) else 0.0


def _meet(evaluate, e_lo: DualEvaluation, e_hi: DualEvaluation):
    """Stage 3 for either dual: where the bracket argmins' lines
    W + lam*(C - c0) meet (``evaluate.crossing``), the argmin (``evaluate.at``)
    is one of them, and lam maximises the dual, or it replaces the end on
    its side. Returns lam, clamped into the bracket, and the two ends."""
    # parallel lines meet at inf or nan, which the clamp below handles
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            lam = evaluate.crossing(e_lo, e_hi)
            if not e_lo.lam < lam < e_hi.lam:
                # rounding: clamp into [lo, hi], taking hi for nan
                return max(e_lo.lam, min(e_hi.lam, lam)), e_lo, e_hi
            totals = [(end.argmin.weight, end.argmin.cost) for end in (e_lo, e_hi)]
            e = evaluate.at(lam)
            if (e.argmin.weight, e.argmin.cost) in totals:
                return lam, e_lo, e_hi
            if e.subgradient > 0:
                e_lo = e
            else:
                e_hi = e


def solve_mapping(instance: Instance, c0: float) -> MappingSolution:
    """Near-optimal feasible mapping with a weak-duality certificate.

    Maximises the dual at c0, then returns the lighter of the feasible-side
    mapping and the infeasible-side mapping's best single-row swap to a
    cheapest-cost edge. Raises ValueError unless 0 < c0 < inf.
    """
    _check_budget(c0)
    rows = np.arange(instance.n)
    opt = maximize_dual(instance, c0)
    # Each row's cheapest-cost edge, which the instance holds from the
    # dual's first pass at the latest: the one-row swap moves a row onto it.
    cheap_cols, cheap_costs = instance.cheapest_costs

    # One-row swap: move a single row of the infeasible-side mapping to its
    # cheapest-cost edge, keeping the rest intact; at most one row differs.
    # mapping_low fits c0 only as the lambda=0 argmin, which is mapping_high
    # itself and takes each row's lightest edge: no swap can make it lighter.
    best = opt.mapping_high
    if opt.mapping_low is not opt.mapping_high:
        f_low = opt.mapping_low.f
        weights_low, costs_low = instance.edges(rows, f_low)
        cost_delta = cheap_costs - costs_low
        weight_delta = instance.edges(rows, cheap_cols)[0] - weights_low
        swapped_cost = opt.mapping_low.cost + cost_delta
        feasible = swapped_cost <= c0
        if feasible.any():
            new_weights = opt.mapping_low.weight + np.where(feasible, weight_delta, np.inf)
            i = int(np.argmin(new_weights))
            f_swap = f_low.copy()
            f_swap[i] = cheap_cols[i]
            swapped = make_mapping(instance, f_swap)
            if swapped.weight < best.weight:
                best = swapped

    weights, costs = instance.edges(rows, best.f)
    w_max, c_max = float(weights.max()), float(costs.max())
    return MappingSolution(
        mapping=best, lower_bound=opt.phi_star, w_max_used=w_max, c_max_used=c_max, dual=opt
    )


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
