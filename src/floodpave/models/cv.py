"""Seeded k-fold cross-validation and exhaustive grid search."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spec import ModelSpec, expand_grid


@dataclass(frozen=True)
class CVResult:
    per_candidate: tuple  # (ModelSpec, mean fold MSE) in enumeration order
    best_spec: ModelSpec
    fold_mses: tuple = ()  # per candidate, the MSE of each fold in fold order
    sources: tuple = ()  # per candidate, how it was scored (see grid_search_cv)


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


# Kinds whose fit with n_estimators=k is exactly the first k trees of a
# larger fit: tree i draws from child i of the spec seed's SeedSequence
# whatever the ensemble size, and boosting stage i sees only stages < i.
_PREFIX_KINDS = ("random_forest", "gradient_boosting")


def _depth_nested(spec: ModelSpec) -> bool:
    """Whether a fit at ``max_depth`` d is a deeper fit's trees cut at depth d.

    True for decision trees and forests: a node's split never depends on
    the depth limit below it, a bootstrap is drawn before its tree grows,
    and a forest node's feature subset depends only on its path from the
    root (see ``grow._Grower.candidates``). Boosting fits each stage to the
    residuals of the earlier, depth-dependent stages.
    """
    return spec.kind in ("decision_tree", "random_forest")


def _shared_fit_groups(candidates: list[ModelSpec]) -> list[list[int]]:
    """Candidate indices grouped by the hyperparameters a shared fit cannot vary.

    Ensemble kinds leave ``n_estimators`` out of the key, and depth-nested
    specs leave out ``max_depth``; other candidates share a fit only with
    their duplicates.
    """
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(candidates):
        varied = {"n_estimators"} if spec.kind in _PREFIX_KINDS else set()
        if _depth_nested(spec):
            varied.add("max_depth")
        key = tuple((k, v) for k, v in spec.hyperparameters.items() if k not in varied)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _fit_size(spec: ModelSpec) -> tuple:
    hp = spec.hyperparameters
    return hp.get("max_depth", 0), hp.get("n_estimators", 0)


def _cut(predictor, spec: ModelSpec):
    """``predictor``'s first ``n_estimators`` trees, cut at ``spec``'s ``max_depth``."""
    hp = spec.hyperparameters
    if spec.kind == "decision_tree":
        return replace(predictor, spec=spec, tree=predictor.tree.truncate(hp["max_depth"]))
    trees = predictor.trees[: hp["n_estimators"]]
    if _depth_nested(spec) and hp["max_depth"] < predictor.spec.hyperparameters["max_depth"]:
        trees = tuple(tree.truncate(hp["max_depth"]) for tree in trees)
    return replace(predictor, spec=spec, trees=trees)


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
    candidate in enumeration order. Candidates that one fit can serve
    share it, fold by fold, and each is scored exactly as its own fit:

    - random forests and gradient boosting: candidates that differ only
      in ``n_estimators`` are scored on the first ``n_estimators`` trees
      of the largest, which are the trees their own fits would grow;
    - decision trees and random forests: candidates that differ only in
      ``max_depth`` (and ``n_estimators``) are scored on the deepest fit's
      trees cut at their own depth (``Tree.truncate``), since a node's
      split, and a forest node's feature subset, never depend on the
      depth limit below it.

    ``sources`` says, per candidate, "own fit", "n_estimators prefix of
    #i" or "depth truncation of #i", where i is the 0-based index of the
    candidate that was fitted (a truncation may also take a prefix).
    Candidates run one after another in this thread.
    """
    from . import fit  # deferred: avoids import cycle with the dispatch module

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    candidates = expand_grid(kind, grid, seed)
    folds, _ = kfold_indices(len(y), k, seed)
    all_idx = np.arange(len(y))

    fold_mses: list[list[float]] = [[] for _ in candidates]
    sources = ["own fit"] * len(candidates)
    for members in _shared_fit_groups(candidates):
        # (max_depth, n_estimators); the grid is a product, so one member has both maxima
        size = {i: _fit_size(candidates[i]) for i in members}
        largest = max(members, key=size.get)
        for i in members:
            if size[i][0] < size[largest][0]:
                sources[i] = f"depth truncation of #{largest}"
            elif size[i][1] < size[largest][1]:
                sources[i] = f"n_estimators prefix of #{largest}"
        for fold in folds:
            train = np.setdiff1d(all_idx, fold, assume_unique=True)
            predictor = fit(candidates[largest], X[train], y[train])
            for i in members:
                scored = predictor if size[i] == size[largest] else _cut(predictor, candidates[i])
                residual = y[fold] - scored.predict(X[fold])
                fold_mses[i].append(float(np.mean(residual**2)))
    scores = [float(np.mean(mses)) for mses in fold_mses]

    best_i = int(np.argmin(scores))
    return CVResult(
        per_candidate=tuple(zip(candidates, scores)),
        best_spec=candidates[best_i],
        fold_mses=tuple(tuple(mses) for mses in fold_mses),
        sources=tuple(sources),
    )
