"""Regression evaluation metrics: MSE, MAE, and the R-squared score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientDataError, ZeroVarianceError


@dataclass(frozen=True)
class EvalMetrics:
    mse: float
    mae: float
    r2: float


def evaluate(predictor, X: np.ndarray, y: np.ndarray) -> EvalMetrics:
    """Score a predictor on held-out rows, in raw target units.

    R-squared is 1 - SSres/SStot about mean(y); a zero-variance target
    makes it undefined and raises.
    """
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise InsufficientDataError(f"evaluate needs >= 2 rows, got {len(y)}")
    pred = predictor.predict(X)
    residual = y - pred
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ZeroVarianceError("target", "R^2 undefined: target has zero variance")
    return EvalMetrics(
        mse=float(np.mean(residual**2)),
        mae=float(np.mean(np.abs(residual))),
        r2=1.0 - float(np.sum(residual**2)) / ss_tot,
    )
