"""Linear-family solvers: least squares, ridge, and coordinate-descent lasso.

The solver cores operate on the matrices they are given. The fit
pipeline standardizes features (train-set mean/std) and centers the
target first, so the penalty never touches the intercept and the alpha
grid means the same thing across features with wildly different units.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import SingularDesignError
from .spec import ModelSpec

LASSO_TOL = 1e-6
LASSO_MAX_SWEEPS = 10_000

log = logging.getLogger(__name__)


def least_squares(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimum-residual solution of X w = y via SVD; raises on rank deficiency."""
    w, _, rank, svals = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        smin = svals[-1] if len(svals) else 0.0
        cond = float(svals[0] / smin) if smin > 0 else float("inf")
        raise SingularDesignError(
            f"design matrix is rank deficient (rank {rank} < {X.shape[1]}, "
            f"condition number {cond:.3e})",
            condition_number=cond,
        )
    return w


def ridge_normal_equations(X: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Closed-form solution of min ||y - Xw||^2 + alpha ||w||^2 (no intercept)."""
    p = X.shape[1]
    gram = X.T @ X + alpha * np.eye(p)
    try:
        return np.linalg.solve(gram, X.T @ y)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(gram))
        raise SingularDesignError(
            f"ridge normal equations singular at alpha={alpha} (condition number {cond:.3e})",
            condition_number=cond,
        ) from exc


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def lasso_coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    tol: float = LASSO_TOL,
    max_sweeps: int = LASSO_MAX_SWEEPS,
):
    """Cyclic coordinate descent for min 1/2 ||y - Xw||^2 + alpha ||w||_1.

    Returns ``(w, sweeps)``. Converged when the largest coefficient
    change in a full sweep drops below ``tol``. On a design with
    orthonormal columns this reduces to soft-thresholding the least
    squares coefficients at alpha.
    """
    n, p = X.shape
    col_sq = np.einsum("ij,ij->j", X, X)
    w = np.zeros(p)
    residual = y.astype(float).copy()
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        max_change = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = w[j]
            # correlation with the partial residual that excludes coordinate j
            rho = X[:, j] @ residual + col_sq[j] * old
            new = _soft_threshold(rho, alpha) / col_sq[j]
            if new != old:
                residual -= (new - old) * X[:, j]
                w[j] = new
            max_change = max(max_change, abs(new - old))
        if max_change < tol:
            break
    return w, sweeps


def _standardize(X: np.ndarray):
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma == 0.0, 1.0, sigma)
    return (X - mu) / sigma, mu, sigma


@dataclass(frozen=True)
class LinearPredictor:
    """Affine predictor over standardized features.

    ``coef`` lives in standardized-feature space; ``raw_coefficients``
    maps back to the original units.
    """

    spec: ModelSpec
    feature_names: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray
    coef: np.ndarray
    intercept: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} feature columns, got shape {X.shape}"
            )
        if np.isnan(X).any():
            raise ValueError("predict input contains missing values; filter rows first")
        return ((X - self.mu) / self.sigma) @ self.coef + self.intercept

    def raw_coefficients(self):
        """(weights, intercept) in original feature units."""
        w = self.coef / self.sigma
        b = self.intercept - float((self.mu / self.sigma) @ self.coef)
        return w, b

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "feature_names": list(self.feature_names),
            "mu": [float(v) for v in self.mu],
            "sigma": [float(v) for v in self.sigma],
            "coef": [float(v) for v in self.coef],
            "intercept": float(self.intercept),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearPredictor":
        return cls(
            spec=ModelSpec.from_dict(d["spec"]),
            feature_names=tuple(d["feature_names"]),
            mu=np.array(d["mu"], dtype=float),
            sigma=np.array(d["sigma"], dtype=float),
            coef=np.array(d["coef"], dtype=float),
            intercept=float(d["intercept"]),
        )


def fit_linear_family(spec: ModelSpec, X: np.ndarray, y: np.ndarray, feature_names) -> LinearPredictor:
    Z, mu, sigma = _standardize(X)
    y = np.asarray(y, dtype=float)
    y_mean = float(y.mean())
    y_centered = y - y_mean

    if spec.kind == "linear":
        design = np.hstack([np.ones((Z.shape[0], 1)), Z])
        sol = least_squares(design, y)
        intercept, coef = float(sol[0]), sol[1:]
        return LinearPredictor(spec, tuple(feature_names), mu, sigma, coef, intercept)

    alpha = float(spec.hyperparameters["alpha"])
    if spec.kind == "ridge":
        coef = ridge_normal_equations(Z, y_centered, alpha)
    elif spec.kind == "lasso":
        coef, sweeps = lasso_coordinate_descent(Z, y_centered, alpha, max_sweeps=LASSO_MAX_SWEEPS)
        if sweeps >= LASSO_MAX_SWEEPS:
            log.warning(
                "lasso fit with alpha=%r reached the sweep cap (%d sweeps); "
                "coefficients may not have converged to tol=%g",
                alpha, sweeps, LASSO_TOL,
            )
    else:
        raise ValueError(f"not a linear-family kind: {spec.kind}")
    return LinearPredictor(spec, tuple(feature_names), mu, sigma, coef, y_mean)
