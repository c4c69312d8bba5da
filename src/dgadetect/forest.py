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


def _xlog2x(arr: np.ndarray) -> np.ndarray:
    out = np.zeros_like(arr, dtype=np.float64)
    nz = arr > 0
    out[nz] = arr[nz] * np.log2(arr[nz])
    return out


# Gains this close count as tied, and ties resolve to the lowest feature
# index then the lowest threshold.  Mathematically equal gains computed
# along different float paths land within a few ulps, far inside this
# band; genuinely different gains sit far outside it.
_GAIN_TIE_EPS = 1e-12


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
    is too small.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    m = len(y)
    if m < min_samples_split:
        return None
    pos = int(y.sum())
    neg = m - pos
    if pos == 0 or neg == 0:
        return None
    parent = (_xlog2x(np.array([m])) - _xlog2x(np.array([pos])) - _xlog2x(np.array([neg])))[0] / m

    best: tuple[float, int, float] | None = None  # (gain, feature, threshold)
    for f in sorted(int(f) for f in candidate_features):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        sy = y[order]
        cuts = np.nonzero(sv[:-1] != sv[1:])[0]
        if len(cuts) == 0:
            continue
        cum_pos = np.cumsum(sy)
        n_left = (cuts + 1).astype(np.float64)
        pos_left = cum_pos[cuts].astype(np.float64)
        neg_left = n_left - pos_left
        n_right = m - n_left
        pos_right = pos - pos_left
        neg_right = neg - neg_left
        weighted = (
            _xlog2x(n_left)
            - _xlog2x(pos_left)
            - _xlog2x(neg_left)
            + _xlog2x(n_right)
            - _xlog2x(pos_right)
            - _xlog2x(neg_right)
        ) / m
        gains = parent - weighted
        # lowest threshold among gains tied with the maximum
        i = int(np.argmax(gains > float(gains.max()) - _GAIN_TIE_EPS))
        gain = float(gains[i])
        if gain > _GAIN_TIE_EPS and (best is None or gain > best[0] + _GAIN_TIE_EPS):
            lo = float(sv[cuts[i]])
            hi = float(sv[cuts[i] + 1])
            threshold = (lo + hi) / 2.0
            if threshold >= hi:  # midpoint rounded up to the upper value
                threshold = lo
            best = (gain, f, threshold)
    if best is None:
        return None
    return best[1], best[2], best[0]


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    candidates: Sequence[int],
    cfg: TrainConfig,
) -> Tree:
    # Work on a contiguous slice of just the candidate columns; node
    # feature indices are mapped back to schema positions when stored.
    candidates = [int(c) for c in candidates]
    Xc = np.ascontiguousarray(X[:, candidates])
    local = list(range(len(candidates)))

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    prob: list[float] = []
    count: list[int] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        prob.append(0.0)
        count.append(0)
        return len(feature) - 1

    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, rows, 0)]
    while stack:
        node, idx, depth = stack.pop()
        sub_y = y[idx]
        m = len(idx)
        pos = int(sub_y.sum())
        count[node] = m
        prob[node] = pos / m
        if (
            pos == 0
            or pos == m
            or m < cfg.min_samples_split
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
        ):
            continue
        found = best_split(Xc[idx], sub_y, local, cfg.min_samples_split)
        if found is None:
            continue
        f, t, _ = found
        go_left = Xc[idx, f] <= t
        feature[node] = candidates[f]
        threshold[node] = t
        l_id = new_node()
        r_id = new_node()
        left[node] = l_id
        right[node] = r_id
        stack.append((l_id, idx[go_left], depth + 1))
        stack.append((r_id, idx[~go_left], depth + 1))

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        prob=np.asarray(prob, dtype=np.float64),
        count=np.asarray(count, dtype=np.int64),
        candidates=tuple(int(c) for c in candidates),
    )


def calibrate_threshold(scores: Sequence[float], labels: Sequence[int], target_fpr: float) -> float:
    """Smallest decision threshold whose FPR does not exceed the target.

    With k = floor(target_fpr * n_benign) benign scores allowed at or
    above the threshold, the result is one ulp above the (k+1)-th largest
    benign score, or 0 when every benign score may be flagged.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray([int(l) for l in labels], dtype=np.int64)
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
            values.extend(v.lexical.as_dict().values())
        if feature_set.ext:
            if v.ext_score is None:
                raise SchemaMismatchError("vector lacks the external score")
            values.append(v.ext_score)
        rows[i] = values
    return rows


def labels_array(vectors: Sequence[FeatureVector]) -> np.ndarray:
    labels = []
    for v in vectors:
        if v.label is None:
            raise ValueError("training vectors must be labeled")
        labels.append(int(v.label))
    return np.asarray(labels, dtype=np.int64)


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
    data: Sequence[FeatureVector],
    feature_set: FeatureSet,
    cfg: TrainConfig = TrainConfig(),
    *,
    country_codes: CountryCodes | None = None,
    n_jobs: int = 1,
) -> ForestModel:
    """Train and threshold-calibrate a forest on labeled vectors.

    Each tree draws its feature subset and bootstrap sample from a
    generator seeded by (cfg.seed, tree index).  The decision threshold
    comes from out-of-bag scores when bootstrap sampling leaves any rows
    out; otherwise training scores are used.

    Raises EmptyDataError on empty input and SingleClassError when only
    one class is present.
    """
    if not data:
        raise EmptyDataError("no training vectors")
    X = design_matrix(data, feature_set)
    y = labels_array(data)
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

    n = len(y)
    oob_sum = np.zeros(n, dtype=np.float64)
    oob_cnt = np.zeros(n, dtype=np.int64)
    for tree, in_bag in built:
        oob = np.nonzero(~in_bag)[0]
        if len(oob):
            oob_sum[oob] += tree.predict(X[oob])
            oob_cnt[oob] += 1

    flat = _flatten_trees([vars(tree) for tree, _ in built])
    del built  # its trees live on as views into the flat arrays
    trees, nodes = _compile_trees(*flat, X.shape[1])
    model = ForestModel(feature_set, feature_set.feature_names(), trees, 0.0, country_codes, cfg,
                        nodes)
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
