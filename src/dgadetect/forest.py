"""Entropy-criterion random forest: training, scoring, threshold
calibration and byte-stable serialization.

The forest consumes any configured feature subset (side information,
lexical, or either combined with an external confidence score), which is
how all published model configurations are realized by one trainer.

Determinism contract: every tree derives its randomness from
(config seed, tree index) alone, so identical data + config + seed yield
byte-identical serialized models regardless of scheduling or thread
count.

Scoring contract: a row's score is the mean of its trees' leaf
probabilities added in tree order, so it is the same whether the row is
scored alone or in any batch.

Growth: each tree is grown level by level over presorted columns, as in
SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996).  The candidate columns of
the bootstrap sample are sorted once, every column's order is then
partitioned stably by node after each level, and every cut of every
node of a level is scored in one pass.  Thresholds are exact midpoints
between consecutive distinct values, with no binning, and nodes are
numbered as a node-by-node depth-first grower numbers them, so models
keep the bytes that grower wrote.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .core import FeatureVector
from .errors import (
    EmptyDataError,
    ModelFormatError,
    NoNegativesError,
    SchemaMismatchError,
    SingleClassError,
)
from .lexical import LEXICAL_FEATURES
from .sideinfo import MULTI_VALUED, SIDEINFO_FEATURES, UNKNOWN, CountryCodes

MODEL_FORMAT = "dgadetect-forest"
MODEL_VERSION = 1


@dataclass(frozen=True)
class FeatureSet:
    """Which feature blocks a model consumes.

    Parsed from identifiers like "dns", "lexical", "dns+lexical" or
    "dns+lexical+ext-score".
    """

    dns: bool = False
    lexical: bool = False
    ext: bool = False

    def __post_init__(self):
        if not (self.dns or self.lexical or self.ext):
            raise ValueError("feature set must include at least one block")

    @classmethod
    def parse(cls, spec: str) -> "FeatureSet":
        dns = lexical = ext = False
        for token in spec.strip().lower().split("+"):
            token = token.strip()
            if token == "dns":
                dns = True
            elif token == "lexical":
                lexical = True
            elif token in ("ext-score", "ext", "ext_score"):
                ext = True
            else:
                raise ValueError(f"unknown feature block: {token!r}")
        return cls(dns=dns, lexical=lexical, ext=ext)

    @property
    def id(self) -> str:
        parts = []
        if self.dns:
            parts.append("dns")
        if self.lexical:
            parts.append("lexical")
        if self.ext:
            parts.append("ext-score")
        return "+".join(parts)

    def feature_names(self) -> tuple[str, ...]:
        names: list[str] = []
        if self.dns:
            names.extend(SIDEINFO_FEATURES)
        if self.lexical:
            names.extend(LEXICAL_FEATURES)
        if self.ext:
            names.append("ext_score")
        return tuple(names)


@dataclass(frozen=True)
class TrainConfig:
    """Forest training knobs.

    ``features_per_tree`` is the per-tree feature subset size: an int is
    a count, a float in (0,1] a fraction of the schema width, and None
    selects max(1, floor(sqrt(d))).
    """

    n_trees: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    features_per_tree: int | float | None = None
    bootstrap: bool = True
    seed: int = 0
    target_fpr: float = 0.001

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if not 0.0 < self.target_fpr <= 1.0:
            raise ValueError("target_fpr must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def resolve_subset_size(self, d: int) -> int:
        if self.features_per_tree is None:
            return max(1, int(math.isqrt(d)))
        if isinstance(self.features_per_tree, float):
            if not 0.0 < self.features_per_tree <= 1.0:
                raise ValueError("fractional features_per_tree must lie in (0, 1]")
            return max(1, int(self.features_per_tree * d))
        k = int(self.features_per_tree)
        if not 0 < k <= d:
            raise ValueError(f"features_per_tree must lie in (0, {d}]")
        return k


# Per-node fields of a tree, as stored in a model file, with their dtypes.
_NODE_FIELDS = (
    ("feature", np.int32),
    ("threshold", np.float64),
    ("left", np.int32),
    ("right", np.int32),
    ("prob", np.float64),
    ("count", np.int64),
)

# Rows walked together by ForestModel.score_matrix.  Each block holds
# rows x trees walk entries at once, so the block bounds transient memory
# (about 1.7 MiB for 100 trees), and blocks of this size are also the
# fastest per row.
_BLOCK_ROWS = 256


@dataclass
class Tree:
    """One grown decision tree in flat-array form.

    Node 0 is the root.  Internal nodes carry a feature index (into the
    model schema) and a threshold; rows with value <= threshold descend
    left.  Leaves have feature -1, children -1, and carry the training
    DGA fraction.  In a model the arrays are views into the model's
    flat per-field arrays (see :func:`_flatten_trees`).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray
    count: np.ndarray
    candidates: tuple[int, ...]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf probabilities for a row-major feature matrix: the forest's
        kernel run with this tree's root alone."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        flat = {name: getattr(self, name) for name, _ in _NODE_FIELDS}
        _, nodes = _compile_trees(flat, np.array([len(self.feature)]), [self.candidates], X.shape[1])
        return nodes.leaf_probs(X)[0]

    def to_obj(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "prob": self.prob.tolist(),
            "count": self.count.tolist(),
            "candidates": list(self.candidates),
        }


@dataclass(frozen=True)
class Nodes:
    """Trees packed for scoring: one array per node field over every
    tree's nodes, tree after tree, with global node ids.

    ``child[2 * i]`` is node i's right child and ``child[2 * i + 1]`` its
    left child, so ``child[2 * i + (x <= threshold[i])]`` takes one step
    (a NaN goes right, as ``<=`` says).  A leaf's children are the leaf
    itself.  ``roots`` holds each tree's root id.
    """

    feature: np.ndarray  # int32, schema column; -1 at leaves
    threshold: np.ndarray  # float64
    child: np.ndarray  # intp, 2 entries per node
    leaf: np.ndarray  # bool
    prob: np.ndarray  # float64
    roots: np.ndarray  # intp

    def leaf_probs(self, X: np.ndarray) -> np.ndarray:
        """Leaf probability of every (tree, row) pair of a C-contiguous
        float64 matrix, as a C-contiguous (n_trees, n_rows) array.

        All pairs descend one level per step, and only the pairs not yet
        at a leaf take the next step.  Pair ``t * n_rows + r`` is tree t
        on row r, so the result needs no transpose.
        """
        n, d = X.shape
        x = X.ravel()
        node = np.repeat(self.roots, n)
        pair = np.flatnonzero(~self.leaf[node])  # pairs still walking
        at = node[pair]
        offset = pair % n * d  # where each pair's row starts in x
        while pair.size:
            nxt = self.child[2 * at + (x[offset + self.feature[at]] <= self.threshold[at])]
            node[pair] = nxt
            walking = ~self.leaf[nxt]
            pair, at, offset = pair[walking], nxt[walking], offset[walking]
        return self.prob[node].reshape(len(self.roots), n)


def _flatten_trees(trees: Sequence[dict]) -> tuple[dict[str, np.ndarray], np.ndarray, list[tuple]]:
    """Trees given as a sequence per node field (a model file's lists or
    a Tree's arrays) as one flat array per field over all trees, tree
    after tree, with each tree's size and candidate features.  Raises
    ValueError when a tree's sequences are empty or of unequal length."""
    sizes = np.array([len(t["feature"]) for t in trees], dtype=np.intp)
    for t, n in zip(trees, sizes):
        if n == 0 or any(len(t[name]) != n for name, _ in _NODE_FIELDS):
            raise ValueError("a tree's arrays are empty or of unequal length")
    total = int(sizes.sum())
    flat = {
        name: np.fromiter(chain.from_iterable(t[name] for t in trees), dtype, count=total)
        for name, dtype in _NODE_FIELDS
    }
    return flat, sizes, [tuple(t["candidates"]) for t in trees]


def _compile_trees(flat: dict[str, np.ndarray], sizes: np.ndarray, candidates: list[tuple],
                   width: int) -> tuple[list[Tree], Nodes]:
    """Validate flattened trees (see :func:`_flatten_trees`) and pack them
    for scoring, for both loading and training.

    The returned Trees' arrays are views into the flat arrays, and
    :class:`Nodes` adds the global child ids.  Raises ValueError unless
    every walk from every root ends at a leaf (see :func:`_check_topology`).
    """
    feature, left, right = flat["feature"], flat["left"], flat["right"]
    _check_topology(feature, left, right, flat["prob"], sizes, width)
    starts = np.cumsum(sizes) - sizes
    leaf = feature < 0
    # (right, left) child pairs, moved from tree-local to global ids in
    # place so that packing adds little to a load's peak memory
    child = np.empty((len(feature), 2), dtype=np.intp)
    child[:, 0] = right
    child[:, 1] = left
    child += np.repeat(starts, sizes)[:, None]
    leaves = np.flatnonzero(leaf)
    child[leaves, 0] = child[leaves, 1] = leaves
    nodes = Nodes(feature, flat["threshold"], child.ravel(), leaf, flat["prob"],
                  starts.astype(np.intp))
    trees = [
        Tree(**{name: a[start:start + size] for name, a in flat.items()}, candidates=c)
        for start, size, c in zip(starts.tolist(), sizes.tolist(), candidates)
    ]
    return trees, nodes


def _check_topology(feature, left, right, prob, sizes: np.ndarray, width: int) -> None:
    """Raise ValueError unless every walk from every root ends at a leaf:
    internal nodes read a schema feature and have both children, each
    after its parent; leaves have none; probabilities lie in [0, 1].

    The checks run once over all trees' nodes together, which keeps them
    a small share of model loading.
    """
    sizes = sizes.astype(np.int32)
    # each node's index within its own tree, and its tree's size
    node = np.arange(len(feature), dtype=np.int32) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    n = np.repeat(sizes, sizes)
    leaf = feature < 0
    for ok, defect in (
        (np.all((feature >= -1) & (feature < width)), "references features outside the schema"),
        (np.all((left[leaf] == -1) & (right[leaf] == -1)), "has a leaf with children"),
        (np.all(((left > node) & (left < n) & (right > node) & (right < n))[~leaf]),
         "has a child index out of range or not after its parent"),
        (np.all((prob >= 0.0) & (prob <= 1.0)), "has a probability outside [0, 1]"),
    ):
        if not ok:
            raise ValueError(f"a tree {defect}")


def entropy(counts: tuple[int, int] | Sequence[int]) -> float:
    """Shannon entropy in bits of a two-class count pair, with 0*log(0)=0."""
    a, b = counts
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError("counts must be non-negative and not both zero")
    m = a + b
    h = 0.0
    for c in (a, b):
        if c:
            p = c / m
            h -= p * math.log2(p)
    return h


def _xlog2x_table(n: int) -> np.ndarray:
    """``v * log2(v)`` for every count v in 0..n, with 0 at v = 0."""
    v = np.arange(n + 1, dtype=np.float64)
    table = np.zeros(n + 1)
    table[1:] = v[1:] * np.log2(v[1:])
    return table


# Gains this close count as tied, and ties resolve to the lowest feature
# index then the lowest threshold.  Mathematically equal gains computed
# along different float paths land within a few ulps, far inside this
# band; genuinely different gains sit far outside it.
_GAIN_TIE_EPS = 1e-12


def _best_splits(values, labels, sizes, pos, table):
    """The best split of every node of a frontier, over all cuts at once.

    ``values`` and ``labels`` are (k, N) arrays: row f holds candidate f's
    values and their rows' labels, in consecutive segments of ``sizes``
    rows (one per node, the same in every row), sorted by value within
    each segment.  ``pos`` counts each node's positives, and ``table`` is
    :func:`_xlog2x_table` of at least the largest node.

    With T the table, a node of m rows and p positives, and a cut
    sending l rows and q positives left, the cut's gain is
    (T[m] - T[p] - T[m-p]) / m less
    (T[l] - T[q] - T[l-q] + T[m-l] - T[p-q] - T[m-l-p+q]) / m, added in
    that order: the order model bytes have always been computed in.  Each
    candidate offers its lowest cut among those within the tie band of
    its best gain, and the candidates are taken in order, a later one
    winning only by more than the band.  Returns per node the candidate
    row (-1 when no cut has positive gain), the threshold, the gain, and
    the rows and positives going left.
    """
    k, n = values.shape
    segments = len(sizes)
    feature = np.full(segments, -1)
    threshold = np.zeros(segments)
    best = np.full(segments, -np.inf)
    ends = np.cumsum(sizes)
    seg = np.repeat(np.arange(segments), sizes)
    rank = np.arange(n) - (ends - sizes)[seg]  # position within its node
    # a cut after position p wherever the next value of its node differs
    cut = np.zeros((k, n), dtype=bool)
    np.not_equal(values[:, 1:], values[:, :-1], out=cut[:, :-1])
    cut[:, ends - 1] = False
    fi, pi = np.nonzero(cut)
    if not len(pi):
        return feature, threshold, best, np.zeros_like(feature), np.zeros_like(feature)
    s = seg[pi]
    m = sizes[s]
    n_left = rank[pi] + 1
    pos_left = np.cumsum(labels, axis=1)[fi, pi] - (np.cumsum(pos) - pos)[s]
    neg_left = n_left - pos_left
    n_right = m - n_left
    pos_right = pos[s] - pos_left
    neg_right = (m - pos[s]) - neg_left
    weighted = (
        table[n_left]
        - table[pos_left]
        - table[neg_left]
        + table[n_right]
        - table[pos_right]
        - table[neg_right]
    ) / m
    parent = (table[sizes] - table[pos] - table[sizes - pos]) / sizes
    gains = parent[s] - weighted
    # per (candidate, node): the lowest cut among gains tied with the maximum
    group = fi * segments + s
    head = np.ones(len(group), dtype=bool)
    np.not_equal(group[1:], group[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    top = np.maximum.reduceat(gains, heads)
    tied = gains > np.repeat(top - _GAIN_TIE_EPS, np.diff(heads, append=len(gains)))
    pick = np.minimum.reduceat(np.where(tied, np.arange(len(gains)), len(gains)), heads)
    by_feature = np.full((k, segments), -np.inf)
    at = np.zeros((k, segments), dtype=np.intp)
    by_feature.ravel()[group[heads]] = gains[pick]
    at.ravel()[group[heads]] = pick
    # candidates in order: a later one wins only by more than the tie band
    choice = np.zeros(segments, dtype=np.intp)
    for f in range(k):
        g = by_feature[f]
        better = (g > _GAIN_TIE_EPS) & (g > best + _GAIN_TIE_EPS)
        best[better] = g[better]
        feature[better] = f
        choice[better] = at[f, better]
    lo = values[fi[choice], pi[choice]]
    hi = values[fi[choice], pi[choice] + 1]
    threshold = (lo + hi) / 2.0
    up = threshold >= hi  # midpoint rounded up to the upper value
    threshold[up] = lo[up]
    return feature, threshold, best, n_left[choice], pos_left[choice]


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    candidate_features: Sequence[int],
    min_samples_split: int = 2,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, information gain) over the candidates.

    Thresholds are midpoints between consecutive distinct sorted values.
    Ties break toward the lowest feature index, then the lowest
    threshold.  Returns None when no split has positive gain or the node
    is too small.  This is :func:`_best_splits` run on one node.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    m = len(y)
    pos = int(y.sum())
    if m < min_samples_split or pos == 0 or pos == m:
        return None
    features = sorted(int(f) for f in candidate_features)
    values = np.ascontiguousarray(X[:, features].T)
    order = np.argsort(values, axis=1, kind="stable")
    f, threshold, gain, _, _ = _best_splits(
        np.take_along_axis(values, order, axis=1), y[order], np.array([m]), np.array([pos]),
        _xlog2x_table(m))
    if f[0] < 0:
        return None
    return features[f[0]], float(threshold[0]), float(gain[0])


def _splittable(sizes: np.ndarray, pos: np.ndarray, depth: int, cfg: TrainConfig) -> np.ndarray:
    """Which nodes of one depth may split: mixed, large enough, and above
    the depth limit."""
    if cfg.max_depth is not None and depth >= cfg.max_depth:
        return np.zeros(len(sizes), dtype=bool)
    return (pos > 0) & (pos < sizes) & (sizes >= cfg.min_samples_split)


def _partition(order, sizes, feature, n_left, child_sizes, child_live, n_rows):
    """The next level's layout of ``order`` (see :func:`_grow_tree`).

    Of the nodes laid out in ``order`` with ``sizes`` rows, each that
    splits (``feature`` >= 0) sends the first ``n_left`` rows of its
    candidate's order left and the rest right.  Every candidate's order
    is partitioned stably into the children, two per split node, left
    before right, keeping the rows of the children marked in
    ``child_live``.
    """
    k, n = order.shape
    split = feature >= 0
    n_sides = len(child_sizes)
    starts = np.cumsum(sizes) - sizes
    # each row's side: 2j left and 2j + 1 right of the j-th split node;
    # rows of nodes that do not split count as going right, to no child.
    # A split node's rows in its candidate's order go left, then right.
    at = np.flatnonzero(np.repeat(split, sizes))
    side = np.full(n_rows, n_sides + 1)
    side[order.ravel()[np.repeat(feature[split] * n, sizes[split]) + at]] = np.repeat(
        np.arange(n_sides), child_sizes)
    code = side[order]
    right = code & 1
    n_right = np.where(split, sizes - n_left, sizes)
    right_before = (np.cumsum(n_right) - n_right)[split]  # in the nodes before
    cum = np.cumsum(right, axis=1)  # in the row up to each entry
    kept = np.where(child_live, child_sizes, 0)
    total = int(kept.sum())
    # An entry's destination is its side's base plus, going left, its
    # position less the entries going right up to it, or, going right,
    # their count.  Entries of no kept child land past the k * total
    # kept ones.
    child_start = np.where(child_live, np.cumsum(kept) - kept, k * total)
    base = np.full(n_sides + 2, k * total)
    base[0:n_sides:2] = child_start[0::2] - starts[split] + right_before
    base[1:n_sides:2] = child_start[1::2] - 1 - right_before
    left_rank = np.arange(n) - cum
    dest = base[code] + left_rank + right * (cum - left_rank) + np.arange(0, k * total, total)[:, None]
    out = np.empty(2 * k * total + n + 1, dtype=order.dtype)
    out[dest] = order
    return out[:k * total].reshape(k, total)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    candidates: Sequence[int],
    cfg: TrainConfig,
) -> Tree:
    """Grow one tree on the sample ``rows`` of X, level by level.

    Each candidate column of the sample is sorted once.  ``order`` then
    holds, per candidate, the sample positions of the nodes that may
    still split, grouped by node and sorted by value within each node;
    :func:`_partition` carries it from one level to the next.  All nodes
    of a level are split by one :func:`_best_splits` call.
    """
    candidates = [int(c) for c in candidates]
    values = np.ascontiguousarray(X[np.ix_(rows, candidates)].T)
    labels = np.asarray(y, dtype=np.int64)[rows]
    n = len(labels)
    table = _xlog2x_table(n)
    order = np.argsort(values, axis=1, kind="stable")
    offset = np.arange(0, values.size, n)[:, None]  # of each candidate's row in values
    sizes = np.array([n])
    pos = np.array([int(labels.sum())])
    live = _splittable(sizes, pos, 0, cfg)
    levels = []  # (sizes, positives, candidate, threshold) of each depth's nodes
    depth = 0
    while True:
        feature = np.full(len(sizes), -1)
        threshold = np.zeros(len(sizes))
        levels.append((sizes, pos, feature, threshold))
        if not live.any():
            break
        f, t, _, n_left, pos_left = _best_splits(
            values.ravel()[order + offset], labels[order], sizes[live], pos[live], table)
        split = f >= 0
        if not split.any():
            break
        nodes = np.flatnonzero(live)[split]
        feature[nodes] = f[split]
        threshold[nodes] = t[split]
        left_sizes, left_pos = n_left[split], pos_left[split]
        child_sizes = np.column_stack((left_sizes, sizes[nodes] - left_sizes)).ravel()
        child_pos = np.column_stack((left_pos, pos[nodes] - left_pos)).ravel()
        depth += 1
        child_live = _splittable(child_sizes, child_pos, depth, cfg)
        if child_live.any():
            order = _partition(order, sizes[live], f, n_left, child_sizes, child_live, n)
        sizes, pos, live = child_sizes, child_pos, child_live
    return _depth_first_tree(levels, candidates)


def _depth_first_tree(levels, candidates: list[int]) -> Tree:
    """The tree grown as ``levels`` (see :func:`_grow_tree`), numbered as
    a depth-first grower numbers its nodes: the root is 0, a node that
    splits gives its children the next two ids, left then right, and the
    right subtree is grown before the left one."""
    sizes, pos, feature, threshold = (np.concatenate(a) for a in zip(*levels))
    split = feature >= 0
    # in breadth-first order, the i-th split node's children are 2i + 1 and 2i + 2
    first_child = (2 * np.cumsum(split) - 1).tolist()
    inner = split.tolist()
    new = [0] * len(sizes)
    stack, next_id = [0], 1
    while stack:
        node = stack.pop()
        if inner[node]:
            left = first_child[node]
            new[left], new[left + 1] = next_id, next_id + 1
            next_id += 2
            stack += (left, left + 1)
    new = np.array(new)
    left = np.asarray(first_child)[split]
    tree = {name: np.zeros(len(sizes), dtype) for name, dtype in _NODE_FIELDS}
    tree["feature"][:] = tree["left"][:] = tree["right"][:] = -1
    tree["feature"][new[split]] = np.asarray(candidates)[feature[split]]
    tree["left"][new[split]] = new[left]
    tree["right"][new[split]] = new[left + 1]
    tree["threshold"][new] = threshold
    tree["prob"][new] = pos / sizes
    tree["count"][new] = sizes
    return Tree(**tree, candidates=tuple(candidates))


def calibrate_threshold(scores: Sequence[float], labels: Sequence[int], target_fpr: float) -> float:
    """Smallest decision threshold whose FPR does not exceed the target.

    With k = floor(target_fpr * n_benign) benign scores allowed at or
    above the threshold, the result is one ulp above the (k+1)-th largest
    benign score, or 0 when every benign score may be flagged.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    neg = scores[labels == 0]
    if len(neg) == 0:
        raise NoNegativesError("threshold calibration needs benign scores")
    k = int(math.floor(target_fpr * len(neg) + 1e-9))
    if k >= len(neg):
        return 0.0
    kth = float(np.partition(neg, len(neg) - (k + 1))[len(neg) - (k + 1)])
    return math.nextafter(kth, math.inf)


@dataclass
class ForestModel:
    """Trained ensemble with its schema, code table and decision threshold.

    ``trees`` are views into ``nodes``, the packed arrays that
    :meth:`score_matrix` walks; both come from :func:`_compile_trees`.
    """

    feature_set: FeatureSet
    schema: tuple[str, ...]
    trees: list[Tree]
    threshold: float
    country_codes: CountryCodes | None
    config: TrainConfig
    nodes: Nodes = field(repr=False, compare=False)

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf DGA probability per row of a schema-ordered matrix.

        Rows are walked through every tree at once, a block of rows at a
        time.  Each row's leaf probabilities are summed in tree order, as
        a running total over the trees would add them, so a row's score
        does not depend on the rows scored with it.  ``np.add.accumulate``
        keeps that order for any block; ``np.add.reduce`` would sum a
        one-row block pairwise and move its last bits.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.schema):
            raise SchemaMismatchError(f"rows must have the model's {len(self.schema)} columns")
        out = np.empty(len(X), dtype=np.float64)
        for start in range(0, len(X), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            out[block] = np.add.accumulate(self.nodes.leaf_probs(X[block]))[-1] / len(self.trees)
        return out

    # --- serialization ---------------------------------------------------

    def to_json_bytes(self) -> bytes:
        cfg = asdict(self.config)
        obj = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "feature_set": self.feature_set.id,
            "schema": list(self.schema),
            "threshold": self.threshold,
            "country_codes": self.country_codes.to_dict() if self.country_codes else None,
            "config": cfg,
            "trees": [t.to_obj() for t in self.trees],
        }
        return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "ForestModel":
        """Parse and validate a model file.  Every defect, from bad JSON to
        a tree that cannot be walked, raises ModelFormatError."""
        try:
            obj = json.loads(raw)
            if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
                raise ValueError("not a forest model file")
            if obj.get("version") != MODEL_VERSION:
                raise ValueError(f"unsupported model version {obj.get('version')}")
            codes = obj.get("country_codes")
            if codes is not None and not {UNKNOWN, MULTI_VALUED} <= set(codes):
                raise ValueError("the country-code table lacks its reserved names")
            feature_set = FeatureSet.parse(obj["feature_set"])
            schema = tuple(obj["schema"])
            if schema != feature_set.feature_names():
                raise ValueError("schema does not match the declared feature set")
            if not obj["trees"]:
                raise ValueError("model file carries no trees")
            # popped, the parsed trees are freed before the checks allocate
            trees, nodes = _compile_trees(*_flatten_trees(obj.pop("trees")), len(schema))
            return cls(
                feature_set=feature_set,
                schema=schema,
                trees=trees,
                threshold=float(obj["threshold"]),
                country_codes=CountryCodes.from_dict(codes) if codes is not None else None,
                config=TrainConfig(**obj["config"]),
                nodes=nodes,
            )
        except KeyError as exc:
            raise ModelFormatError(f"model file lacks the field {exc}") from None
        except (ValueError, TypeError, OverflowError) as exc:
            raise ModelFormatError(f"invalid model file: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "wb") as fp:
            fp.write(self.to_json_bytes())

    @classmethod
    def load(cls, path) -> "ForestModel":
        with open(path, "rb") as fp:
            return cls.from_json_bytes(fp.read())


def design_matrix(vectors: Sequence[FeatureVector], feature_set: FeatureSet) -> np.ndarray:
    """Schema-ordered feature matrix; raises SchemaMismatchError when a
    vector lacks a block the feature set requires."""
    names = feature_set.feature_names()
    rows = np.empty((len(vectors), len(names)), dtype=np.float64)
    for i, v in enumerate(vectors):
        values: list[float] = []
        if feature_set.dns:
            if v.sideinfo is None:
                raise SchemaMismatchError("vector lacks the side-information block")
            values.extend(v.sideinfo.as_dict().values())
        if feature_set.lexical:
            if v.lexical is None:
                raise SchemaMismatchError("vector lacks the lexical block")
            values.extend(v.lexical.as_dict().values())
        if feature_set.ext:
            if v.ext_score is None:
                raise SchemaMismatchError("vector lacks the external score")
            values.append(v.ext_score)
        rows[i] = values
    return rows


def _build_one_tree(
    X: np.ndarray, y: np.ndarray, cfg: TrainConfig, k: int, tree_index: int
) -> tuple[Tree, np.ndarray]:
    """Grow tree ``tree_index`` and return it with its in-bag row mask."""
    n, d = X.shape
    rng = np.random.default_rng([cfg.seed, tree_index])
    candidates = np.sort(rng.choice(d, size=k, replace=False))
    if cfg.bootstrap:
        rows = rng.integers(0, n, size=n)
    else:
        rows = np.arange(n)
    in_bag = np.zeros(n, dtype=bool)
    in_bag[rows] = True
    tree = _grow_tree(X, y, rows, candidates, cfg)
    return tree, in_bag


def train(
    X: np.ndarray,
    y: np.ndarray,
    feature_set: FeatureSet,
    cfg: TrainConfig = TrainConfig(),
    *,
    country_codes: CountryCodes | None = None,
    n_jobs: int = 1,
) -> ForestModel:
    """Train and threshold-calibrate a forest on a schema-ordered matrix
    (see :func:`design_matrix`) and its 0/1 labels.

    Each tree draws its feature subset and bootstrap sample from a
    generator seeded by (cfg.seed, tree index).  The decision threshold
    comes from out-of-bag scores when bootstrap sampling leaves any rows
    out; otherwise training scores are used.

    Raises SchemaMismatchError unless X has the feature set's columns and
    one label per row, EmptyDataError on zero rows and SingleClassError
    when only one class is present.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    width = len(feature_set.feature_names())
    if X.ndim != 2 or X.shape[1] != width or y.shape != (len(X),):
        raise SchemaMismatchError(f"training needs an (n, {width}) matrix and n labels")
    if not len(y):
        raise EmptyDataError("no training rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 (benign) or 1 (DGA)")
    if y.min() == y.max():
        raise SingleClassError("training data must contain both classes")
    k = cfg.resolve_subset_size(X.shape[1])

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            built = list(
                pool.map(lambda t: _build_one_tree(X, y, cfg, k, t), range(cfg.n_trees))
            )
    else:
        built = [_build_one_tree(X, y, cfg, k, t) for t in range(cfg.n_trees)]

    flat = _flatten_trees([vars(tree) for tree, _ in built])
    out_of_bag = ~np.stack([in_bag for _, in_bag in built])
    del built  # its trees live on as views into the flat arrays
    trees, nodes = _compile_trees(*flat, X.shape[1])
    model = ForestModel(feature_set, feature_set.feature_names(), trees, 0.0, country_codes, cfg,
                        nodes)
    # each row's out-of-bag leaf probabilities, added in tree order as
    # score_matrix adds them (adding 0.0 for in-bag trees changes nothing)
    oob_sum = np.empty(len(y))
    for start in range(0, len(y), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        probs = np.where(out_of_bag[:, block], nodes.leaf_probs(X[block]), 0.0)
        oob_sum[block] = np.add.accumulate(probs)[-1]
    oob_cnt = out_of_bag.sum(axis=0)
    covered = oob_cnt > 0
    if covered.any() and len(np.unique(y[covered])) == 2:
        calib_scores = oob_sum[covered] / oob_cnt[covered]
        calib_labels = y[covered]
    else:
        # no usable out-of-bag rows (e.g. bootstrap off): fall back to
        # training scores
        calib_scores = model.score_matrix(X)
        calib_labels = y
    model.threshold = calibrate_threshold(calib_scores, calib_labels, cfg.target_fpr)
    return model
