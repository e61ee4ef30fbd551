"""Paired t-test with a two-sided tail from the regularized incomplete beta."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence


class DegenerateTTestError(ValueError):
    """All differences are equal but nonzero: the t statistic is infinite."""


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p_two_sided: float
    mean_diff: float
    sd_diff: float


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta, by the modified Lentz
    method (Numerical Recipes, section 6.4); converges for x < (a+1)/(a+b+2)."""
    tiny = sys.float_info.min / sys.float_info.epsilon
    # the first denominator is at least 2/(a+b+2) inside the convergent range
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 201):  # at most about 60 steps for any df and t
        # the even then the odd step of the fraction
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < sys.float_info.epsilon:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def two_sided_p(t: float, df: int) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom.

    Uses the identity P(|T| >= t) = I_x(df/2, 1/2) with x = df/(df + t^2),
    where I is the regularized incomplete beta function.  Tails below the
    smallest normal float are returned as 0.0; a NaN t gives NaN.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    a, b = df / 2.0, 0.5
    r = t * t / df
    if math.isinf(r):
        return 0.0
    if r == 0.0:
        return 1.0
    # x = 1/(1 + r) and 1 - x = r/(1 + r), each without cancellation
    x, y = 1.0 / (1.0 + r), r / (1.0 + r)
    log_x = -math.log1p(r)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * log_x + b * (math.log(r) + log_x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        p = front * _beta_fraction(a, b, x) / a
    else:
        p = 1.0 - front * _beta_fraction(b, a, y) / b
    return 0.0 if p < sys.float_info.min else p


def paired_t(x: Sequence[float], y: Sequence[float]) -> TTestResult:
    """Paired t-test of elementwise differences x - y.

    Sample (n-1) standard deviation, df = n-1, two-sided p.  Identical
    series give t = 0, p = 1; constant nonzero differences raise
    DegenerateTTestError.
    """
    if len(x) != len(y):
        raise ValueError(f"series lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    d = [float(a) - float(b) for a, b in zip(x, y)]
    mean = sum(d) / n
    sd = math.sqrt(sum((v - mean) ** 2 for v in d) / (n - 1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p_two_sided=1.0, mean_diff=0.0, sd_diff=0.0)
        raise DegenerateTTestError(f"constant nonzero differences (mean {mean}): t is infinite")
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, df=df, p_two_sided=two_sided_p(t, df), mean_diff=mean, sd_diff=sd)
