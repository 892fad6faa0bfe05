"""Shared pieces of the benchmark: the operation record and its checks."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# check(result, exc, counters) -> (units, failed_units, problems)
Check = Callable[[object, BaseException | None, Counter], tuple[int, int, list[str]]]


@dataclass
class Op:
    """One query: ``call`` runs inside the timer, ``check`` outside it.

    ``check`` gets the result (or the exception ``call`` raised) and
    returns how many operations the call stands for, how many of them
    failed, and a description of each problem found.
    """

    kind: str
    label: str
    call: Callable[[], object]
    check: Check
    # run once in a traced run, traced, instead of twice (untraced and
    # traced); such ops are left out of the tracing overhead
    once: bool = False


def single(problems: list[str]) -> tuple[int, int, list[str]]:
    """The check result of a one-operation query."""
    return 1, (1 if problems else 0), problems


def unexpected(exc: BaseException | None) -> list[str]:
    return [] if exc is None else [f"raised {type(exc).__name__}: {exc}"]


def quantile(sorted_values: list[float], pct: float) -> float:
    """The Harrell-Davis estimate of the ``pct``-th percentile; the maximum
    for ``pct`` = 100.

    It weights every order statistic by the Beta(p(n+1), (1-p)(n+1)) mass
    over its rank interval, so it moves smoothly when samples trade places
    near the percentile, where a single order statistic would jump between
    clusters of queries of different cost.
    """
    n = len(sorted_values)
    if pct >= 100 or n == 1:
        return sorted_values[-1]
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 8           # Simpson's rule on each rank interval
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        acc = density(lo) + density(lo + steps * h)
        acc += sum((4 if j % 2 else 2) * density(lo + j * h) for j in range(1, steps))
        weights.append(acc * h / 3)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, sorted_values)) / total


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the ``pct``-th percentile rank."""
    return n - max(1, math.ceil(pct / 100 * n))
