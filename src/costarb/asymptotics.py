"""Closed-form asymptotic targets for the budget-constrained arborescence value.

The optimum weight obeys, in the large-n limit, one of a handful of formulas
depending on how the budget c0 scales with n:

* growing budgets well inside (omega, n/omega): w ~ pi*n / (8*c0),
* budgets proportional to n (c0 = alpha*n, alpha < 1/2): w ~ f(b*) - alpha*b*
  where f'(b*) = alpha,
* constant budgets (c0 = alpha > 1): w ~ n*(g(b*) - alpha*b*) where
  g'(b*) = alpha and g(b) = b*f(1/b),
* sub-uniform exponents s < 1: w ~ C_s**2 * n**(2-s) / (4*c0).

f(b) = sqrt(b) * int_0^sqrt(b) exp(-t^2/2) dt + exp(-b/2); this module
evaluates f, g, their derivatives, the root b* of the derivative equations
and the five-regime expected value of min_i (X_i + lambda*Y_i) to tight
absolute/relative tolerances. The gamma function and the constant C_s come
from the standard library's ``math.gamma`` and ``math.lgamma``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

from .errors import AmbiguousRegimeError, LambdaRangeError

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT_TWO = math.sqrt(2.0)

def _gauss_integral(x: float) -> float:
    """int_0^x exp(-t^2/2) dt = sqrt(pi/2) * erf(x / sqrt(2))."""
    return _SQRT_HALF_PI * math.erf(x / _SQRT_TWO)


def f_eval(beta: float) -> float:
    """sqrt(b) * int_0^sqrt(b) exp(-t^2/2) dt + exp(-b/2); f(0) = 1."""
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    root = math.sqrt(beta)
    return root * _gauss_integral(root) + math.exp(-beta / 2.0)


def f_prime(beta: float) -> float:
    """f'(b) = int_0^sqrt(b) exp(-t^2/2) dt / (2 sqrt(b)); f'(0) = 1/2.

    Strictly decreasing from 1/2 to 0, so f'(b) = alpha has a unique root
    for every alpha in (0, 1/2).
    """
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if beta == 0:
        return 0.5
    root = math.sqrt(beta)
    return _gauss_integral(root) / (2.0 * root)


def g_eval(beta: float) -> float:
    """g(b) = b * f(1/b), evaluated directly to stay stable for tiny b."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    root = math.sqrt(beta)
    return root * _gauss_integral(1.0 / root) + beta * math.exp(-1.0 / (2.0 * beta))


def g_prime(beta: float) -> float:
    """g'(b) = int_0^(1/sqrt(b)) exp(-t^2/2) dt / (2 sqrt(b)) + exp(-1/(2b)).

    Strictly decreasing from +inf to 1, so g'(b) = alpha has a unique root
    for every alpha > 1.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    root = math.sqrt(beta)
    return _gauss_integral(1.0 / root) / (2.0 * root) + math.exp(-1.0 / (2.0 * beta))


def _g_prime_excess(beta: float) -> float:
    """g'(b) - 1, which is about 1/(24 b**2) for large b. From b = 1 on it is
    summed as its series in x = 1/b, the sum over m >= 2 of
    (-x)**m / (2**m (m-2)! m (2m-1)), so it keeps its relative accuracy
    where g'(b) itself rounds to 1."""
    if beta < 1.0:
        return g_prime(beta) - 1.0
    x = 1.0 / beta
    coef = x * x / 4.0  # (-x)**m / (2**m (m-2)!) at m = 2
    total, m = 0.0, 2
    while True:
        term = coef / (m * (2 * m - 1))
        total += term
        if abs(term) <= 1e-17 * total:
            return total
        coef *= -x / (2.0 * (m - 1))
        m += 1


def _case3_left_end(alpha: float) -> float:
    """A b left of the root of g'(b) = alpha > 1. g'(b) ~ sqrt(pi/(8b)) for
    small b, so g'(pi/(16 alpha**2)) is about sqrt(2)*alpha; it is divided
    by alpha twice, as alpha**2 overflows from about 1.3e154. Raises
    ArithmeticError where it underflows, from alpha of about 1e161."""
    lo = min(1e-12, math.pi / 16.0 / alpha / alpha)
    if lo == 0.0:
        raise ArithmeticError(f"the CASE3 root underflows at alpha = {alpha}")
    return lo


def beta_star(alpha: float, case: str) -> float:
    """Unique positive root of f'(b) = alpha (CASE2) or g'(b) = alpha (CASE3).

    Bisection on the strictly decreasing derivative; the bracket grows by
    doubling until it straddles the root. CASE3 solves g'(b) - 1 = alpha - 1,
    whose sides keep their relative accuracy where g' is flat near 1. Stops
    when the bracket is narrower than 1e-15 of its upper end, or, among
    subnormals, when no float lies inside it.
    """
    if case == "CASE2":
        if not 0.0 < alpha < 0.5:
            raise ValueError(f"CASE2 requires 0 < alpha < 1/2, got {alpha}")
        deriv, target = f_prime, alpha
        lo = 0.0
    elif case == "CASE3":
        if not alpha > 1.0:
            raise ValueError(f"CASE3 requires alpha > 1, got {alpha}")
        deriv, target = _g_prime_excess, alpha - 1.0
        lo = _case3_left_end(alpha)
    else:
        raise ValueError(f"case must be CASE2 or CASE3, got {case!r}")

    hi = max(1.0, 2.0 * lo)
    while deriv(hi) >= target:
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("bracket for beta_star failed to close")

    # a width of one ulp of hi is below the stop, so the halving ends; among
    # subnormals, whose ulp is wider, it ends when no float lies between
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-15 * hi and lo < mid < hi:
        if deriv(mid) > target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def gamma_fn(x: float) -> float:
    """Gamma function on the positive axis, as ``math.gamma`` gives it."""
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    return math.gamma(x)


def c_s(s: float) -> float:
    """Distribution constant Gamma(s/2+1) * (Gamma(2/s+1) / Gamma(1/s+1)^2)^(s/2).

    Computed in log space: Gamma(2/s+1) alone overflows for small s while
    the combination stays modest. C_1 = sqrt(pi/2).
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    log_val = math.lgamma(s / 2.0 + 1.0) + (s / 2.0) * (
        math.lgamma(2.0 / s + 1.0) - 2.0 * math.lgamma(1.0 / s + 1.0)
    )
    return math.exp(log_val)


class ExpectedMin(NamedTuple):
    value: float
    regime: str


def expected_min(n: int, lam: float, s: float = 1.0) -> ExpectedMin:
    """Leading-order E[min_i (X_i + lam*Y_i)] over n i.i.d. U**s pairs.

    For s = 1 the five regimes are, by growing lam: 1/n, f(lam*n)/n,
    sqrt(pi/2) * sqrt(lam/n), g(lam/n), lam/n. Exact boundary values use the
    higher-numbered regime (the formulas agree to leading order there).
    For s < 1 the single formula C_s * sqrt(lam) / n**(s/2) applies while
    lam stays between (log n / n)**s and (n / log n)**s.

    Raises ValueError unless n >= 2, 0 <= lam < inf and 0 < s <= 1.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be nonnegative and finite, got {lam}")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")
    log_n = math.log(n)

    if s == 1.0:
        if lam >= n * log_n:
            return ExpectedMin(lam / n, "E5")
        if lam >= n / log_n:
            return ExpectedMin(g_eval(lam / n), "E4")
        if lam >= log_n / n:
            return ExpectedMin(_SQRT_HALF_PI * math.sqrt(lam / n), "E3")
        if lam >= 1.0 / (n * log_n):
            return ExpectedMin(f_eval(lam * n) / n, "E2")
        return ExpectedMin(1.0 / n, "E1")

    # allow a factor log n (at least 1) outside the band on each side
    guard = max(log_n, 1.0)
    lo = (log_n / n) ** s
    hi = (n / log_n) ** s
    if lam < lo / guard or lam > hi * guard:
        raise LambdaRangeError(
            f"lambda={lam:.4g} outside validity band [{lo:.4g}, {hi:.4g}] "
            f"(guard factor {guard:.3g}) for s={s}, n={n}"
        )
    return ExpectedMin(c_s(s) * math.sqrt(lam) / n ** (s / 2.0), "ES")


@dataclass(frozen=True)
class Prediction:
    """Regime classification plus the predicted optimum and dual maximizer."""

    regime: str
    n: int
    c0: float
    s: float
    w_star: Optional[float]
    lambda_star_hint: Optional[float]
    beta_star: Optional[float] = None
    alpha: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


def _check_model(n: int, c0: float, s: float) -> None:
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 0.0 < c0 < math.inf:
        raise ValueError(f"c0 must be positive and finite, got {c0}")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must lie in (0, 1], got {s}")


def lambda_hint(n: int, c0: float, s: float = 1.0) -> float:
    """The paper's dual maximiser lambda* for (n, c0, s), or 0.0 without one.

    For s < 1 it is C_s**2 * n**(2-s) / (4*c0**2) at every budget, also
    outside predict's band (inf if c0**2 underflows). For s = 1 it is
    predict's lambda_star_hint, and 0.0 where predict raises
    AmbiguousRegimeError or has no hint. Raises ValueError on the inputs
    predict rejects.
    """
    _check_model(n, c0, s)
    if s < 1.0:
        cs = c_s(s)
        return cs * cs * n ** (2.0 - s) / (4.0 * c0 * c0) if c0 * c0 > 0.0 else math.inf
    try:
        return predict(n, c0, s).lambda_star_hint or 0.0
    except AmbiguousRegimeError:
        return 0.0


def _theorem2_band(n: int, s: float) -> tuple[float, float]:
    """The budgets that predict covers for s < 1: [n**(1-s), n] shrunk by
    sqrt(log n) on both ends."""
    guard = math.sqrt(math.log(n))
    return n ** (1.0 - s) * guard, n / guard


def predict(n: int, c0: float, s: float = 1.0) -> Prediction:
    """Classify (n, c0, s) into a regime and emit its predicted optimum.

    Concrete guard bands (the theory leaves the rates abstract): with
    omega = log n, a budget counts as proportional-to-n when c0/n >= 1/log n,
    as constant-order when c0 <= log n, and as intermediate in between. For
    s < 1 the budget must lie within [n**(1-s), n] shrunk by sqrt(log n) on
    both ends. The boundary points alpha = 1/2 resolve continuously to the
    slack case; alpha = 1 (constant budgets) is genuinely uncovered and
    raises AmbiguousRegimeError, as do s < 1 budgets outside the band.
    """
    _check_model(n, c0, s)
    log_n = math.log(n)

    if s < 1.0:
        lo, hi = _theorem2_band(n, s)
        if not lo <= c0 <= hi:
            raise AmbiguousRegimeError(
                f"c0={c0:.4g} outside the s<1 band [{lo:.4g}, {hi:.4g}] for n={n}, s={s}"
            )
        cs = c_s(s)
        w = cs * cs * n ** (2.0 - s) / (4.0 * c0)
        return Prediction("THEOREM2", n, c0, s, w_star=w, lambda_star_hint=lambda_hint(n, c0, s))

    alpha_n = c0 / n
    if alpha_n >= 1.0 / log_n:
        if alpha_n >= 0.5:
            return Prediction(
                "CASE2_SLACK", n, c0, s, w_star=1.0, lambda_star_hint=0.0, alpha=alpha_n
            )
        b = beta_star(alpha_n, "CASE2")
        w = f_eval(b) - alpha_n * b
        return Prediction(
            "CASE2_TIGHT", n, c0, s,
            w_star=w, lambda_star_hint=b / n, beta_star=b, alpha=alpha_n,
        )

    if c0 <= log_n:
        if c0 == 1.0:
            raise AmbiguousRegimeError("constant budget exactly 1 is not covered")
        if c0 < 1.0:
            return Prediction(
                "CASE3_INFEASIBLE", n, c0, s,
                w_star=None, lambda_star_hint=None, alpha=c0,
            )
        b = beta_star(c0, "CASE3")
        w = (g_eval(b) - c0 * b) * n
        return Prediction(
            "CASE3_TIGHT", n, c0, s,
            w_star=w, lambda_star_hint=b * n, beta_star=b, alpha=c0,
        )

    w = math.pi * n / (8.0 * c0)
    lam = math.pi * n / (8.0 * c0 * c0)
    return Prediction("CASE1", n, c0, s, w_star=w, lambda_star_hint=lam)
