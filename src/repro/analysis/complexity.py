"""Exponent fitting: comparing measured round counts to theory curves.

The theorems predict power laws (rounds ≈ C·n^e up to polylog factors).
Given a sweep of (n, rounds) measurements, :func:`fit_exponent` performs
an ordinary least-squares fit in log–log space and returns the slope with
its residual, which the tables ``python -m repro.analysis.report`` prints
report next to the theoretical exponent.  At the finite n of a simulation
the polylog factors inflate fitted slopes (d log(polylog)/d log n > 0), so
the comparison is always "measured slope vs theory slope, with polylog
caveat" — see README.md, "How round counts relate to the paper's
theorems".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares power-law fit rounds ≈ exp(intercept)·n^slope."""

    slope: float
    intercept: float
    r_squared: float
    points: int

    def predict(self, n: float) -> float:
        return math.exp(self.intercept) * (n**self.slope)


def fit_exponent(sizes: Sequence[float], values: Sequence[float]) -> ExponentFit:
    """Fit a power law through (sizes, values) in log–log space.

    Raises
    ------
    ValueError
        With fewer than 2 points or non-positive data.
    """
    if len(sizes) != len(values):
        raise ValueError("sizes and values must have equal length")
    if len(sizes) < 2:
        raise ValueError("need at least two points to fit an exponent")
    if any(s <= 0 for s in sizes) or any(v <= 0 for v in values):
        raise ValueError("power-law fit needs positive data")
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ExponentFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        points=len(sizes),
    )


def theory_comparison(
    sizes: Sequence[float],
    measured: Sequence[float],
    theory: Callable[[float], float],
) -> Dict[str, float]:
    """Summary of measured-vs-theory over a sweep.

    Returns the fitted exponents of both series and the max/min ratio of
    measured to theory (a flat ratio means the shapes agree).
    """
    measured_fit = fit_exponent(sizes, measured)
    theory_values = [theory(s) for s in sizes]
    theory_fit = fit_exponent(sizes, theory_values)
    ratios = [m / t for m, t in zip(measured, theory_values)]
    return {
        "measured_slope": measured_fit.slope,
        "theory_slope": theory_fit.slope,
        "slope_gap": measured_fit.slope - theory_fit.slope,
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
        "ratio_spread": max(ratios) / min(ratios),
        "r_squared": measured_fit.r_squared,
    }


def crossover_size(
    sizes: Sequence[float], series_a: Sequence[float], series_b: Sequence[float]
) -> float:
    """First size where series_a drops to or below series_b (inf if never).

    Used for the "where does ours start winning" rows of E4.
    """
    for s, a, b in zip(sizes, series_a, series_b):
        if a <= b:
            return float(s)
    return math.inf
