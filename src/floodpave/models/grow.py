"""Growing CART regression trees, and fitting the three tree models.

Splits maximize the reduction of the summed child squared error over
midpoint thresholds between consecutive distinct sorted values. A
node's targets are centred on its mean, so a split after the first k
of n sorted rows, whose centred targets sum to c, reduces the SSE by
c² · n / (k · (n - k)): one prefix sum per feature scores every split.
Candidates whose reductions lie within ``_TIE`` of the best, relative
to it, tie, and ties go to the first in (feature, position) order, so
a fit is a pure function of (data, spec, seed) and rounding cannot
pick between two features that put the same rows on each side.

``build_tree`` carries a (features, rows) block of per-feature sorted
row ids down the tree. A split partitions that block stably, so every
node sees its rows in (value, row id) order, the order a stable
per-node argsort would give, and all candidate features are scored in
one vectorized pass with the same per-feature arithmetic. Splits,
thresholds and ties are therefore those of sorting at every node.

Nodes of at least ``_SMALL_NODE`` rows grow depth first, one
``_best_split`` call each. Smaller nodes with two or more split levels
left wait; when the depth-first pass ends, all of a tree's waiting
subtrees grow together a level at a time (the depth-wise growth of
XGBoost, arXiv:1603.02754): one ``_best_splits`` pass scores a whole
level's nodes, and one stable ``compress`` moves their rows to the next
level. Each node still takes its mean, centring and prefix sums from its
own sums, so every split, and so every tree, is the same bit for bit
whichever way its nodes grow; the nodes are numbered in preorder at the
end. A forest's per-node feature subset is keyed by the node's path
(``_Grower.candidates``), not drawn in growth order, so it does not
depend on the schedule either.

The block is sorted once per fit, not once per tree: an ensemble sorts
its training rows once (``_presort``) (XGBoost's presorted column
blocks, arXiv:1603.02754). Every ensemble tree grows in the fit's own
row ids (``_grow_tree``), so it gathers no rows. A forest tree's
bootstrap or a boosting stage's subsample is a count per row, and its
block is the root order with each row repeated by its count (dropped at
0), the copies of a row side by side. That is the stable argsort of the
gathered rows, so the tree equals one grown on them bit for bit. A
boosting stage takes the update of its fitted rows from the leaves the
build put them in, and walks only the rows its subsample left out down
its own arrays (``_leaf_values``).
"""

from __future__ import annotations

import itertools

import numpy as np

from .spec import ModelSpec
from .tree import LEAF, BoostingPredictor, ForestPredictor, Tree, TreePredictor

# Relative SSE-reduction floor below which a split is considered noise.
_MIN_REDUCTION = 1e-12
# Candidate splits whose SSE reductions are this close, relative to the best, tie.
_TIE = 1e-9
# Nodes of fewer rows, with two or more split levels left, grow a level at a
# time after the depth-first pass (see ``_grow_tree``).
_SMALL_NODE = 128
# Fewest waiting subtrees that grow a level at a time; fewer grow depth first,
# since a level's pass costs about a hundred numpy calls whatever its size.
_MIN_BATCH = 8
# Most scores that one chunk of ``_best_splits`` holds.
_LEVEL_BLOCK = 1 << 13
# SplitMix64's increment, the golden ratio times 2⁶⁴.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _best_split(Xt, centred, order, features, min_leaf, left_n, right_n):
    """Best (SSE reduction, feature, threshold) over candidate features at a node, or None.

    ``order[j]`` holds the node's rows sorted by feature j (ties by row
    id), and ``centred`` each row's target minus the node's mean. A split
    after the first k of n sorted rows, whose centred targets sum to c,
    leaves the other side summing to -c, so it reduces the node's SSE by
    c² · n / (k · (n - k)): one prefix sum per feature scores every split
    (the gain of XGBoost, arXiv:1603.02754, eq. 7, for squared error).
    Every candidate feature is scored in one pass over the (features,
    n - 1) block, with a per-node weight that is zero where a child would
    hold fewer than ``min_leaf`` rows, and masked where the values on
    either side are equal. The winner is the first candidate in
    (feature, position) order whose score is within ``_TIE`` relative of
    the best, so two features that put the same rows on each side tie
    whatever the rounding of their sums. ``left_n`` and ``right_n`` are
    the child sizes, as floats, of a split after each sorted position
    (see ``_divisors``). None when no split reduces the SSE at all.
    """
    rows = order if features.size == order.shape[0] else order.take(features, axis=0)
    n = rows.shape[1]
    # flat positions into Xt: row id plus the feature's offset
    vs = Xt.take(rows + (features * Xt.shape[1]).astype(rows.dtype)[:, None])
    weight = n / (left_n * right_n)
    if min_leaf > 1:
        weight[: min_leaf - 1] = 0.0
        weight[max(n - min_leaf, 0) :] = 0.0
    score = centred.take(rows[:, :-1]).cumsum(axis=1)  # no split after the last row
    np.square(score, out=score)
    score *= weight
    score *= vs[:, 1:] > vs[:, :-1]
    best = score.max(initial=0.0)  # a block of no features holds no split
    if not best > 0.0:
        return None
    r, k = divmod(int((score >= best * (1.0 - _TIE)).argmax()), n - 1)
    return float(score[r, k]), int(features[r]), float((vs[r, k] + vs[r, k + 1]) / 2.0)


def _best_splits(Xt, centred, block, starts, sizes, candidates, min_leaf):
    """Each segment's best (SSE reduction, feature, threshold), the reduction 0 where it has none.

    Segment s is the ``sizes[s]`` columns of ``block`` from ``starts[s]``:
    its rows sorted by each feature, which ``centred`` maps to centred
    targets. ``candidates[s]`` holds its features, ascending. Each result
    is ``_best_split``'s for the segment alone, bit for bit: the segments
    are padded to one width with copies of their last column, so each
    prefix sum is its own cumsum, and padded positions weigh 0. Segments
    go largest first, in chunks of at most ``_LEVEL_BLOCK`` scores.
    """
    n_segments, n_candidates = candidates.shape
    best = np.zeros(n_segments)
    feature = np.zeros(n_segments, dtype=np.intp)
    threshold = np.zeros(n_segments)
    by_size = np.argsort(sizes, kind="stable")[::-1]
    lo = 0
    while lo < n_segments:
        width = int(sizes[by_size[lo]])
        hi = min(n_segments, lo + max(1, _LEVEL_BLOCK // (n_candidates * width)))
        chunk = by_size[lo:hi]
        n = sizes.take(chunk)[:, None]
        cols = starts.take(chunk)[:, None] + np.minimum(np.arange(width), n - 1)
        features = candidates[chunk]
        rows = block.take((features * block.shape[1])[:, :, None] + cols[:, None, :])
        vs = Xt.take(rows + (features * Xt.shape[1]).astype(rows.dtype)[:, :, None])
        left_n = np.arange(1, width, dtype=float)
        right_n = n - left_n  # at most 0 past a segment's last split
        weight = n / (left_n * np.maximum(right_n, 1.0))
        weight *= (left_n >= min_leaf) & (right_n >= min_leaf)
        score = centred.take(rows[:, :, :-1]).cumsum(axis=2)
        np.square(score, out=score)
        score *= weight[:, None, :]
        score *= vs[:, :, 1:] > vs[:, :, :-1]
        score = score.reshape(chunk.size, -1)
        top = score.max(axis=1)
        at = (score >= (top * (1.0 - _TIE))[:, None]).argmax(axis=1)
        r, k = np.divmod(at, width - 1)
        each = np.arange(chunk.size)
        best[chunk] = score[each, at]
        feature[chunk] = features[each, r]
        threshold[chunk] = (vs[each, r, k] + vs[each, r, k + 1]) / 2.0
        lo = hi
    return best, feature, threshold


def _mix(z):
    """SplitMix64's output function of each uint64 in ``z``, wrapping mod 2⁶⁴ as arrays do."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _divisors(n_rows):
    """Left and right child sizes, as floats, of each split of an ``n_rows``-row node.

    A node of n rows divides by ``left[: n - 1]`` and ``right[n_rows - n :]``,
    so one pair serves a whole tree.
    """
    return np.arange(1, n_rows, dtype=float), np.arange(n_rows - 1, 0, -1, dtype=float)


def _presort(Xt):
    """Each feature's rows in ascending value order, ties by row id.

    Ids are int32 when every flat position into ``Xt`` fits, to keep the
    per-node index blocks small.
    """
    ids = np.int32 if Xt.size <= np.iinfo(np.int32).max else np.int64
    return np.argsort(Xt, axis=1, kind="stable").astype(ids)


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    feature_subsample: float = 1.0,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Grow a CART regression tree, its nodes numbered in preorder.

    ``feature_subsample`` < 1 gives every split node its own feature
    subset, keyed by the node's path from one key drawn from ``rng``
    (the random-forest decorrelation device), and requires ``rng``; at
    exactly 1.0 no randomness is consumed and the tree is the plain
    deterministic CART fit. See ``_grow_tree``.
    """
    X = np.asarray(X, dtype=float)
    return _grow_tree(
        np.ascontiguousarray(X.T),
        np.asarray(y, dtype=float),
        np.arange(X.shape[0]),
        None,
        max_depth,
        min_samples_split,
        min_samples_leaf,
        feature_subsample,
        rng,
    )[0]


def _grow_tree(
    Xt,
    y,
    rows,
    order,
    max_depth,
    min_samples_split=2,
    min_samples_leaf=1,
    feature_subsample=1.0,
    rng=None,
):
    """The tree fitted to ``rows`` of ``Xt`` and ``y``, and the fitted rows' leaf values.

    ``Xt`` is the (features, all rows) matrix and ``y`` the targets of
    all rows; ``rows`` holds the ids to fit, ascending, and may repeat an
    id (a bootstrap). ``order`` is the presorted block of exactly those
    ids (each feature's ids in (value, id) order, the copies of an id
    side by side), or None when ``rows`` is every row, to presort here.
    Ids keep their order, so the tree equals ``build_tree(Xt.T[rows],
    y[rows])`` bit for bit: a forest tree grows on its bootstrap and a
    boosting stage on its subsample without gathering either. The second
    result holds, at each fitted row's id, the value of the leaf that the
    split tests ``x <= threshold`` send it to, which equals
    ``tree.predict`` of that row; other entries are unset.

    Nodes of at least ``_SMALL_NODE`` rows grow depth first. A smaller
    node with two or more split levels left waits. When the depth-first
    pass ends, at least ``_MIN_BATCH`` waiting subtrees grow together, a
    level at a time (``_Grower.grow_levels``); fewer grow depth first.
    Every node splits as it would alone, so the tree does not depend on
    this schedule. With
    ``feature_subsample`` < 1 the root's subset key is the one draw made
    from ``rng``.
    """
    if feature_subsample < 1.0 and rng is None:
        raise ValueError("feature_subsample < 1 requires an rng")
    n_sub = key = None
    if feature_subsample < 1.0:
        n_sub = max(1, int(round(feature_subsample * Xt.shape[0])))
        key = np.array([rng.integers(np.iinfo(np.uint64).max, dtype=np.uint64, endpoint=True)])
    grower = _Grower(Xt, y, rows.size, max_depth, min_samples_split, min_samples_leaf, n_sub)
    root = None
    if grower.may_split(rows.size, 0):
        root = _presort(Xt) if order is None else order
    grower.grow(rows, root, 0, key)
    del root
    if grower.deferred and len(grower.deferred) >= _MIN_BATCH:
        grower.grow_levels()
    elif grower.deferred:
        grower.grow_deferred()
    return grower.tree(), grower.fitted


class _Grower:
    """One tree's node arrays and per-row work arrays while it grows.

    Nodes get ids in the order they are made, which is preorder unless a
    subtree waited; ``tree`` renumbers them then.
    """

    def __init__(self, Xt, y, n_rows, max_depth, min_samples_split, min_samples_leaf, n_sub):
        self.Xt, self.y = Xt, y
        self.max_depth, self.min_split, self.min_leaf = max_depth, min_samples_split, min_samples_leaf
        self.n_sub = n_sub  # features per split node, or None for every feature
        self.all_features = np.arange(Xt.shape[0])
        if n_sub is not None:
            self.steps = np.arange(1, Xt.shape[0] + 3, dtype=np.uint64) * _GOLDEN  # stream offsets 1, 2, ...
        self.n_rows = n_rows
        self.lefts, self.rights = _divisors(n_rows)
        # per row id: the split side, the centred target and the fitted value
        self.go_left = np.empty(y.size, dtype=bool)
        self.centred = np.empty(y.size)
        self.fitted = np.empty(y.size)
        # a leaf holds a row, so a tree has fewer than 2 n_rows nodes
        size = max(1, min(2 * n_rows, 2 << max_depth) - 1)
        self.feature, self.left, self.right = np.full((3, size), LEAF, dtype=np.int64)
        self.threshold, self.value = np.zeros((2, size))
        self.n_nodes = 0
        # (node, idx, order, depth, key) of each waiting subtree, or None when
        # none may wait: a tree holds at most 2^(max_depth - 2) of them, and
        # fewer than _MIN_BATCH would only be grown depth first after the rest
        self.deferred = [] if max_depth >= 2 and 1 << (max_depth - 2) >= _MIN_BATCH else None
        self.renumber = False

    def may_split(self, n, depth):
        """Whether a node of ``n`` rows at ``depth`` may split; elementwise over arrays."""
        return (depth < self.max_depth) & (n >= self.min_split) & (n >= 2 * self.min_leaf)

    def candidates(self, n_nodes, keys):
        """Each node's candidate features, ascending, and its children's keys.

        Without subsets every node takes every feature and there are no
        keys. Otherwise a node's key starts a SplitMix64 stream (Steele,
        Lea and Flood, OOPSLA 2014): outputs 1 and 2 key its left and
        right child, and output 3 + j ranks feature j; its subset is the
        ``n_sub`` features of smallest rank. A subset thus depends only
        on the root key and the node's path, not on the order nodes grow
        in (a counter-based generator; Salmon et al., SC 2011).
        """
        if self.n_sub is None:
            return np.broadcast_to(self.all_features, (n_nodes, self.all_features.size)), None
        stream = _mix(keys[:, None] + self.steps)
        subset = np.argsort(stream[:, 2:], axis=1, kind="stable")[:, : self.n_sub]
        return np.sort(subset, axis=1), stream[:, :2]

    def grow(self, idx, order, depth, key, node=None):
        """Grow the node of rows ``idx`` depth first and return its id.

        ``idx`` holds the node's rows in ascending id order, ``order`` its
        (features, n) per-feature sorted rows or None when the node cannot
        split, and ``key`` its subset key in a one-element array, or None
        without subsets. ``node`` is its id, or None to take the next.
        While ``deferred`` is a list, a small node with two or more split
        levels left only gets its id and waits there.
        """
        if node is None:
            node = self.n_nodes
            self.n_nodes += 1
        if (
            order is not None
            and idx.size < _SMALL_NODE
            and depth + 2 <= self.max_depth
            and self.deferred is not None
        ):
            self.deferred.append((node, idx, order, depth, key))
            return node
        found = self.split(node, idx, order, key)
        if found is None:
            self.fitted[idx] = self.value[node]
            return node
        mask, keys = found
        left_idx, right_idx = idx.compress(mask), idx.compress(~mask)
        left_order = right_order = None
        left_splits = self.may_split(left_idx.size, depth + 1)
        right_splits = self.may_split(right_idx.size, depth + 1)
        if left_splits or right_splits:  # a leaf child needs no block
            self.go_left[idx] = mask
            goes = self.go_left.take(order).ravel()
            # Stable partition: each feature's sorted row list keeps its order.
            if left_splits:
                left_order = order.compress(goes).reshape(order.shape[0], left_idx.size)
            if right_splits:
                right_order = order.compress(~goes).reshape(order.shape[0], right_idx.size)
            del goes
        del order, mask  # only the children's blocks stay alive down the recursion
        left_key, right_key = (None, None) if keys is None else keys.T
        self.left[node] = self.grow(left_idx, left_order, depth + 1, left_key)
        self.right[node] = self.grow(right_idx, right_order, depth + 1, right_key)
        return node

    def split(self, node, idx, order, key):
        """Set ``node``'s value and, if it splits, its split.

        Returns the split's row mask over ``idx`` and the children's keys,
        or None for a leaf.
        """
        n = idx.size
        y_node = self.y.take(idx)
        # np.add.reduce is the pairwise sum behind ndarray.mean and np.sum
        mean = np.add.reduce(y_node) / n
        self.value[node] = mean
        if order is None:
            return None
        y_node -= mean
        # A second pass takes out the sum the rounded mean left, so the
        # centred targets sum to zero up to their own rounding rather than
        # the targets' (the corrected two-pass algorithm; Chan, Golub and
        # LeVeque, Am. Stat. 1983), and a large common offset in y cannot
        # tip the split scores.
        y_node -= np.add.reduce(y_node) / n
        self.centred[idx] = y_node
        parent_sse = float(np.add.reduce(np.square(y_node, out=y_node)))
        if parent_sse == 0.0:
            return None
        features, keys = self.all_features, None
        if key is not None:
            features, keys = self.candidates(1, key)
            features = features[0]
        best = _best_split(
            self.Xt,
            self.centred,
            order,
            features,
            self.min_leaf,
            self.lefts[: n - 1],
            self.rights[self.n_rows - n :],
        )
        if best is None:
            return None
        reduction, feat, thr = best
        if reduction <= _MIN_REDUCTION * max(parent_sse, 1.0):
            return None
        self.feature[node] = feat
        self.threshold[node] = thr
        return self.Xt[feat].take(idx) <= thr, keys

    def grow_deferred(self):
        """Grow the waiting subtrees depth first, each under the id it already has."""
        deferred, self.deferred = self.deferred, None
        self.renumber = True
        for node, idx, order, depth, key in deferred:
            self.grow(idx, order, depth, key, node)

    def grow_levels(self):
        """Grow every waiting subtree to the end, a level of all of them at a time.

        A level's nodes are segments of one row list ``idx``, ascending
        within each, and those that may split are also segments of one
        (features, rows) ``block``. Each node's mean and centring come from
        its own pairwise sums and its split from ``_best_splits``, so it
        splits as ``split`` would split it. Two stable ``compress`` calls
        on each of ``idx`` and ``block`` make the next level: every left
        child in order, then every right child.
        """
        nodes, idx, orders, depth, keys = zip(*self.deferred)
        self.deferred = None
        self.renumber = True
        sizes = np.array([a.size for a in idx])
        idx, block = np.concatenate(idx), np.concatenate(orders, axis=1)
        del orders
        nodes, depth = np.array(nodes), np.array(depth)
        keys = None if self.n_sub is None else np.concatenate(keys)
        blocked = np.ones(nodes.size, dtype=bool)
        dest = np.empty(self.y.size, dtype=np.int8)  # per row id: 0 left block, 1 right block, 2 neither
        n_all = self.Xt.shape[1]
        while nodes.size:
            ends = np.cumsum(sizes)
            spans = list(zip((ends - sizes).tolist(), ends.tolist()))
            segment = np.repeat(np.arange(nodes.size), sizes)  # each row's node
            y_level = self.y.take(idx)
            mean = np.array([np.add.reduce(y_level[a:b]) for a, b in spans]) / sizes
            self.value[nodes] = mean
            split = np.zeros(0, dtype=np.intp)
            if blocked.any():
                open_spans = list(itertools.compress(spans, blocked.tolist()))
                centred = y_level - mean.take(segment)
                shift = np.zeros(nodes.size)
                shift[blocked] = np.array([np.add.reduce(centred[a:b]) for a, b in open_spans]) / sizes[blocked]
                centred -= shift.take(segment)
                self.centred[idx] = centred
                np.square(centred, out=centred)
                sse = np.zeros(nodes.size)
                sse[blocked] = [np.add.reduce(centred[a:b]) for a, b in open_spans]
                del centred
                scored = np.flatnonzero(sse > 0.0)
                block_starts = np.zeros(nodes.size, dtype=np.intp)
                block_starts[blocked] = np.cumsum(sizes[blocked]) - sizes[blocked]
                candidates, child_keys = self.candidates(scored.size, None if keys is None else keys.take(scored))
                reduction, feat, thr = _best_splits(
                    self.Xt, self.centred, block, block_starts[scored], sizes[scored], candidates, self.min_leaf
                )
                kept = reduction > _MIN_REDUCTION * np.maximum(sse[scored], 1.0)
                split, feat, thr = scored[kept], feat[kept], thr[kept]
                if keys is not None:
                    keys = child_keys[kept].T.ravel()  # left children's keys, then right children's
            is_split = np.zeros(nodes.size, dtype=bool)
            is_split[split] = True
            in_split = is_split.take(segment)
            self.fitted[idx[~in_split]] = mean.take(segment[~in_split])
            m = split.size
            if m == 0:
                break
            parents = nodes[split]
            self.feature[parents] = feat
            self.threshold[parents] = thr
            nodes = np.arange(self.n_nodes, self.n_nodes + 2 * m)
            self.n_nodes += 2 * m
            self.left[parents], self.right[parents] = nodes[:m], nodes[m:]
            dest[idx] = 2
            idx = idx[in_split]
            parent = (np.cumsum(is_split) - 1).take(segment[in_split])  # each row's parent in split order
            goes = self.Xt.take(feat.take(parent) * n_all + idx) <= thr.take(parent)
            n_left = np.bincount(parent[goes], minlength=m)
            sizes = np.concatenate([n_left, sizes[split] - n_left])
            depth = np.concatenate([depth[split] + 1] * 2)
            blocked = self.may_split(sizes, depth)
            dest[idx] = np.where(goes, np.where(blocked[:m].take(parent), 0, 2), np.where(blocked[m:].take(parent), 1, 2))
            idx = np.concatenate([idx[goes], idx[~goes]])
            if blocked.any():
                d = dest.take(block).ravel()
                n_features = block.shape[0]
                block = np.concatenate(
                    [block.compress(d == 0).reshape(n_features, -1), block.compress(d == 1).reshape(n_features, -1)],
                    axis=1,
                )
                del d

    def tree(self) -> Tree:
        """The grown tree, its nodes numbered in preorder."""
        n = self.n_nodes
        feature, threshold, left, right, value = (
            a[:n].copy() for a in (self.feature, self.threshold, self.left, self.right, self.value)
        )
        if not self.renumber:
            return Tree(feature, threshold, left, right, value)
        new = _preorder(feature, left, right)
        old = np.empty(n, dtype=np.intp)
        old[new] = np.arange(n)
        feature = feature.take(old)
        split = feature != LEAF
        left = np.where(split, new.take(left.take(old)), LEAF)
        right = np.where(split, new.take(right.take(old)), LEAF)
        return Tree(feature, threshold.take(old), left, right, value.take(old))


def _preorder(feature, left, right):
    """Each node's id when the tree under node 0 is numbered in preorder."""
    split = feature != LEAF
    levels = []  # each level's split nodes
    level = np.zeros(1, dtype=np.intp)
    while True:
        level = level[split.take(level)]
        if level.size == 0:
            break
        levels.append(level)
        level = np.concatenate([left.take(level), right.take(level)])
    size = np.ones(feature.size, dtype=np.intp)  # of each node's subtree
    for level in reversed(levels):
        size[level] += size.take(left.take(level)) + size.take(right.take(level))
    new = np.zeros(feature.size, dtype=np.intp)
    for level in levels:
        first = left.take(level)
        new[first] = new.take(level) + 1
        new[right.take(level)] = new.take(level) + 1 + size.take(first)
    return new


def _leaf_values(tree, Xt, rows, max_depth):
    """The value of the leaf each of ``rows`` (column ids of ``Xt``) reaches in ``tree``.

    A row goes right exactly when ``x > threshold``, as in ``tree._Stacked``.
    Here a leaf is its own child, so every row takes ``max_depth`` steps
    through the tree's own arrays, and no stacked copy is built.
    """
    leaf = tree.feature == LEAF
    own = np.arange(tree.n_nodes)
    offset = np.where(leaf, 0, tree.feature) * Xt.shape[1]
    left = np.where(leaf, own, tree.left)
    right = np.where(leaf, own, tree.right)
    node = np.zeros(rows.size, dtype=np.intp)
    for _ in range(max_depth):
        goes = Xt.take(offset.take(node) + rows) > tree.threshold.take(node)
        node = np.where(goes, right.take(node), left.take(node))
    return tree.value.take(node)


def fit_decision_tree(spec: ModelSpec, X, y, feature_names) -> TreePredictor:
    hp = spec.hyperparameters
    tree = build_tree(
        X,
        y,
        max_depth=hp["max_depth"],
        min_samples_split=hp["min_samples_split"],
        min_samples_leaf=hp["min_samples_leaf"],
    )
    return TreePredictor(spec, tuple(feature_names), tree)


def fit_random_forest(spec: ModelSpec, X, y, feature_names) -> ForestPredictor:
    hp = spec.hyperparameters
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    Xt = np.ascontiguousarray(X.T)
    order = _presort(Xt)
    all_rows = np.arange(n)
    limits = hp["max_depth"], hp["min_samples_split"], hp["min_samples_leaf"], hp["feature_subsample"]
    trees = []
    for child in np.random.SeedSequence(spec.seed).spawn(hp["n_estimators"]):
        rng = np.random.default_rng(child)
        if hp["bootstrap"]:
            # The tree grows on its bootstrap in the fit's own row ids; the
            # root order with each row repeated by its count is its block.
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            rows = np.repeat(all_rows, counts)
            block = np.repeat(order.ravel(), counts.take(order).ravel()).reshape(order.shape[0], n)
        else:
            rows, block = all_rows, order
        trees.append(_grow_tree(Xt, y, rows, block, *limits, rng)[0])
    return ForestPredictor(spec, tuple(feature_names), tuple(trees))


def fit_gradient_boosting(spec: ModelSpec, X, y, feature_names) -> BoostingPredictor:
    hp = spec.hyperparameters
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    lr = float(hp["learning_rate"])
    init = float(y.mean())
    current = np.full(n, init)
    Xt = np.ascontiguousarray(X.T)
    order = _presort(Xt)
    all_rows = np.arange(n)
    trees = []
    for child in np.random.SeedSequence(spec.seed).spawn(hp["n_estimators"]):
        rng = np.random.default_rng(child)
        residual = y - current
        if hp["subsample"] < 1.0:
            # The stage grows on its subsample in the fit's own row ids; the
            # root order with the left-out rows dropped is its presorted block.
            m = max(1, int(round(hp["subsample"] * n)))
            kept = np.zeros(n, dtype=bool)
            kept[rng.permutation(n)[:m]] = True
            rows = kept.nonzero()[0]
            block = order.compress(kept.take(order).ravel()).reshape(order.shape[0], m)
        else:
            rows, block = all_rows, order
        # In-sample rows take their leaf value from the fit itself; only
        # the rows the subsample left out go through the tree.
        tree, fitted = _grow_tree(Xt, residual, rows, block, hp["max_depth"])
        if rows.size < n:
            fitted[~kept] = _leaf_values(tree, Xt, np.flatnonzero(~kept), hp["max_depth"])
        current += lr * fitted
        trees.append(tree)
    return BoostingPredictor(spec, tuple(feature_names), init, lr, tuple(trees))
