"""Paired t-test with a two-sided tail from the regularized incomplete beta."""

from __future__ import annotations

import math
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


def two_sided_p(t: float, df: int) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom.

    Uses the identity P(|T| >= t) = I_x(df/2, 1/2) with x = df/(df + t^2),
    where I is the regularized incomplete beta function.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    # imported on first use: it would dominate the start-up of every command
    from scipy.special import betainc

    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))


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
