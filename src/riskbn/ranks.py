"""Rank comparison: Spearman's rho between two paired score lists, with a
two-sided p-value from Student's t.

The paper compares rankings of a few dozen risk factors (questionnaire
against game, supervised against latent fit), so this module is plain
Python and loads no numpy: ``riskbn compare`` imports nothing else of the
package but :mod:`riskbn.errors`.

Rho follows numpy's ``corrcoef`` operation by operation: the mean of each
rank list, the deviations from it, their sums of products, each scaled by
``1.0 / (n - 1)``, the covariance divided by one standard deviation and then
the other, clipped to [-1, 1]. Average ranks are multiples of one half, so
every sum before the scaling is exact whatever its order, and rho has the
bits ``corrcoef`` gives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, LengthMismatch


@dataclass(frozen=True)
class RankComparison:
    """Spearman correlation between two paired score lists."""

    rho: float
    p_value: float
    n: int
    exact_extreme: bool = False


def _average_ranks(x: Sequence[float]) -> list[float]:
    """1-based ranks; each run of tied values gets the mean of its positions."""
    ranks = [0.0] * len(x)
    start = 0
    for _, run in itertools.groupby(sorted(range(len(x)), key=x.__getitem__),
                                    key=x.__getitem__):
        run = list(run)
        rank = (2 * start + 1 + len(run)) / 2.0  # the mean of positions start + 1 ... start + len
        for i in run:
            ranks[i] = rank
        start += len(run)
    return ranks


def _correlation(ra: Sequence[float], rb: Sequence[float]) -> float:
    """Pearson correlation of two rank lists, as numpy's ``corrcoef``
    computes it (see the module docstring)."""
    n = len(ra)
    mean_a, mean_b = sum(ra) / n, sum(rb) / n
    da = [r - mean_a for r in ra]
    db = [r - mean_b for r in rb]
    scale = 1.0 / (n - 1)
    cov = sum(x * y for x, y in zip(da, db)) * scale
    rho = cov / math.sqrt(sum(x * x for x in da) * scale) / math.sqrt(sum(y * y for y in db) * scale)
    return max(-1.0, min(1.0, rho))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, evaluated with
    the modified Lentz method; converges fast for x < (a + 1) / (a + b + 2)."""
    tiny, eps = 1e-300, 1e-15
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            step = c * d
            h *= step
        if abs(step - 1.0) < eps:
            return h
    raise DomainError(f"incomplete beta continued fraction did not converge "
                      f"(a={a}, b={b}, x={x})")


def _student_t_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom.

    This is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2). The prefactor x^a (1-x)^b / B(a, b) is formed
    in log space with ``math.lgamma``; the continued fraction runs on
    whichever of x and 1 - x converges fast, so a small p is computed
    directly rather than as a difference from one.
    """
    t2 = t * t
    x = df / (df + t2)
    y = t2 / (df + t2)
    if y == 0.0:
        return 1.0
    a, b = df / 2.0, 0.5
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front + math.log(_beta_continued_fraction(a, b, x) / a))
    return 1.0 - math.exp(log_front + math.log(_beta_continued_fraction(b, a, y) / b))


def spearman(scores_a: Sequence[float], scores_b: Sequence[float]) -> RankComparison:
    """Spearman rho with average ranks for ties; two-sided p-value from the
    t approximation with n - 2 degrees of freedom. |rho| = 1 reports the
    limiting tail p = 0 and flags the exact case.

    Ranks come from a stable sort, each run of ties taking the mean of its
    positions. The t tail is the regularized incomplete beta
    I_{df/(df+t^2)}(df/2, 1/2), from a Lentz continued fraction with a
    ``math.lgamma`` prefactor.
    """
    a = [float(s) for s in scores_a]
    b = [float(s) for s in scores_b]
    if len(a) != len(b):
        raise LengthMismatch(f"paired score lists differ: ({len(a)},) vs ({len(b)},)")
    if not all(map(math.isfinite, itertools.chain(a, b))):
        raise DomainError("scores must be finite")
    n = len(a)
    if n < 2:
        raise DomainError("need at least two paired scores")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    if min(ra) == max(ra) or min(rb) == max(rb):
        raise DomainError("constant ranks: correlation undefined")
    if ra == rb:
        rho = 1.0
    elif all(x + y == n + 1.0 for x, y in zip(ra, rb)):
        rho = -1.0
    else:
        rho = _correlation(ra, rb)
    if abs(rho) == 1.0 or n == 2:
        return RankComparison(rho, 0.0, n, exact_extreme=True)
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return RankComparison(rho, _student_t_two_sided(t, n - 2), n)
