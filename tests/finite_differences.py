"""Central finite differences: an independent cross-check of the exact partials."""

import numpy as np

from sta.fields import FieldExpr, evaluate
from sta.geometry import Chart


def interior_grid(chart: Chart, n: int, margin: float) -> np.ndarray:
    """The chart's grid shrunk by ``margin`` of each span, leaving room for stencils."""
    span = chart.hi - chart.lo
    return Chart(chart.lo + margin * span, chart.hi - margin * span).grid(n)


def fd_directional(expr: FieldExpr, xs: np.ndarray, mu: int, h: float) -> np.ndarray:
    """Central difference of a field expression along coordinate mu."""
    dx = np.zeros(4)
    dx[mu] = h
    return (evaluate(expr, xs + dx) - evaluate(expr, xs - dx)) / (2.0 * h)
