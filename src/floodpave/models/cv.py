"""Seeded k-fold cross-validation and exhaustive grid search."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .spec import ModelSpec


@dataclass(frozen=True)
class CVResult:
    per_candidate: tuple  # (ModelSpec, mean fold MSE) in enumeration order
    best_spec: ModelSpec
    fold_assignments: np.ndarray


def kfold_indices(n: int, k: int, seed: int):
    """Seeded shuffle split into k folds with sizes differing by at most 1.

    Returns ``(folds, assignments)``: the row indices of each fold and
    the fold index of every row. The first ``n % k`` folds take the
    extra row.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"need at least k={k} rows, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    assignments = np.empty(n, dtype=np.int64)
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        fold = np.sort(perm[start : start + size])
        assignments[fold] = f
        folds.append(fold)
        start += size
    return folds, assignments


def expand_grid(kind: str, grid: dict, seed: int) -> list[ModelSpec]:
    """Cartesian product of a {hyperparameter: values} grid, in key order."""
    if not grid:
        if kind == "linear":
            return [ModelSpec(kind, {}, seed)]
        raise ValueError("empty hyperparameter grid")
    keys = list(grid)
    combos = itertools.product(*(grid[k] for k in keys))
    return [ModelSpec(kind, dict(zip(keys, combo)), seed) for combo in combos]


# Kinds whose fit with n_estimators=k is exactly the first k trees of a
# larger fit: tree i draws from child i of the spec seed's SeedSequence
# whatever the ensemble size, and boosting stage i sees only stages < i.
_PREFIX_KINDS = ("random_forest", "gradient_boosting")


def _prefix_groups(candidates: list[ModelSpec]) -> list[list[int]]:
    """Candidate indices grouped by every hyperparameter except n_estimators.

    Ensemble kinds group candidates that can share one fit; every other
    kind gets one group per candidate.
    """
    if not candidates or candidates[0].kind not in _PREFIX_KINDS:
        return [[i] for i in range(len(candidates))]
    groups: list[tuple[dict, list[int]]] = []
    for i, spec in enumerate(candidates):
        rest = {k: v for k, v in spec.hyperparameters.items() if k != "n_estimators"}
        for other, members in groups:
            if other == rest:
                members.append(i)
                break
        else:
            groups.append((rest, [i]))
    return [members for _, members in groups]


def grid_search_cv(
    kind: str,
    grid: dict,
    X: np.ndarray,
    y: np.ndarray,
    k: int,
    seed: int,
) -> CVResult:
    """Pick the candidate with the lowest mean held-out-fold MSE.

    Every candidate sees the same seeded folds. Ties go to the earlier
    candidate in enumeration order. For random forests and gradient
    boosting, candidates that differ only in ``n_estimators`` share one
    fit per fold: the largest is fitted, and each smaller one is scored
    on its first ``n_estimators`` trees, which are exactly the trees its
    own fit would grow, so every score equals that of a separate fit.
    Candidates run one after another in this thread.
    """
    from . import fit  # deferred: avoids import cycle with the dispatch module

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    candidates = expand_grid(kind, grid, seed)
    folds, assignments = kfold_indices(len(y), k, seed)
    all_idx = np.arange(len(y))

    fold_mses: list[list[float]] = [[] for _ in candidates]
    for members in _prefix_groups(candidates):
        largest = max(members, key=lambda i: candidates[i].hyperparameters.get("n_estimators", 0))
        for fold in folds:
            train = np.setdiff1d(all_idx, fold, assume_unique=True)
            predictor = fit(candidates[largest], X[train], y[train])
            for i in members:
                scored = predictor
                if i != largest:
                    n_trees = candidates[i].hyperparameters["n_estimators"]
                    scored = replace(predictor, spec=candidates[i], trees=predictor.trees[:n_trees])
                residual = y[fold] - scored.predict(X[fold])
                fold_mses[i].append(float(np.mean(residual**2)))
    scores = [float(np.mean(mses)) for mses in fold_mses]

    best_i = int(np.argmin(scores))
    return CVResult(
        per_candidate=tuple(zip(candidates, scores)),
        best_spec=candidates[best_i],
        fold_assignments=assignments,
    )
