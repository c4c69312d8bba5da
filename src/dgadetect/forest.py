"""Entropy-criterion random forest: training, scoring, threshold
calibration and byte-stable serialization.

The forest consumes any configured feature subset (side information,
lexical, or either combined with an external confidence score), which is
how all published model configurations are realized by one trainer.

Determinism contract: every tree derives its randomness from
(config seed, tree index) alone, so identical data + config + seed yield
byte-identical serialized models regardless of scheduling or thread
count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
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


@dataclass
class Tree:
    """One grown decision tree in flat-array form.

    Node 0 is the root.  Internal nodes carry a feature index (into the
    model schema) and a threshold; rows with value <= threshold descend
    left.  Leaves have feature -1 and carry the training DGA fraction.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray
    count: np.ndarray
    candidates: tuple[int, ...]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf probabilities for a row-major feature matrix."""
        out = np.empty(len(X), dtype=np.float64)
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            f = self.feature[node]
            if f < 0:
                out[idx] = self.prob[node]
                continue
            go_left = X[idx, f] <= self.threshold[node]
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            if len(left_idx):
                stack.append((int(self.left[node]), left_idx))
            if len(right_idx):
                stack.append((int(self.right[node]), right_idx))
        return out

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

    @classmethod
    def from_obj(cls, obj: dict) -> "Tree":
        return cls(
            feature=np.asarray(obj["feature"], dtype=np.int32),
            threshold=np.asarray(obj["threshold"], dtype=np.float64),
            left=np.asarray(obj["left"], dtype=np.int32),
            right=np.asarray(obj["right"], dtype=np.int32),
            prob=np.asarray(obj["prob"], dtype=np.float64),
            count=np.asarray(obj["count"], dtype=np.int64),
            candidates=tuple(obj["candidates"]),
        )


def _check_topology(trees: Sequence[Tree], width: int) -> None:
    """Raise ValueError unless every walk from every root ends at a leaf:
    internal nodes read a schema feature and have both children, each
    after its parent; leaves have none; probabilities lie in [0, 1].

    The checks run once over all trees' nodes together, which keeps them
    a small share of model loading.
    """
    sizes = np.array([len(t.feature) for t in trees], dtype=np.int32)
    for t, n in zip(trees, sizes):
        if n == 0 or any(len(a) != n for a in (t.threshold, t.left, t.right, t.prob)):
            raise ValueError("a tree's arrays are empty or of unequal length")
    feature, left, right, prob = (
        np.concatenate([getattr(t, name) for t in trees])
        for name in ("feature", "left", "right", "prob")
    )
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
    """Trained ensemble with its schema, code table and decision threshold."""

    feature_set: FeatureSet
    schema: tuple[str, ...]
    trees: list[Tree]
    threshold: float
    country_codes: CountryCodes | None
    config: TrainConfig

    def score_matrix(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf DGA probability per row of a schema-ordered matrix."""
        X = np.asarray(X, dtype=np.float64)
        total = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees:
            total += tree.predict(X)
        return total / len(self.trees)

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
            # the parsed JSON is freed before the checks allocate
            model = cls._from_obj(json.loads(raw))
            if not model.trees:
                raise ValueError("model file carries no trees")
            if model.schema != model.feature_set.feature_names():
                raise ValueError("schema does not match the declared feature set")
            _check_topology(model.trees, len(model.schema))
        except KeyError as exc:
            raise ModelFormatError(f"model file lacks the field {exc}") from None
        except (ValueError, TypeError) as exc:
            raise ModelFormatError(f"invalid model file: {exc}") from exc
        return model

    @classmethod
    def _from_obj(cls, obj) -> "ForestModel":
        if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
            raise ValueError("not a forest model file")
        if obj.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {obj.get('version')}")
        codes = obj.get("country_codes")
        if codes is not None and not {UNKNOWN, MULTI_VALUED} <= set(codes):
            raise ValueError("the country-code table lacks its reserved names")
        return cls(
            feature_set=FeatureSet.parse(obj["feature_set"]),
            schema=tuple(obj["schema"]),
            trees=[Tree.from_obj(t) for t in obj["trees"]],
            threshold=float(obj["threshold"]),
            country_codes=CountryCodes.from_dict(codes) if codes is not None else None,
            config=TrainConfig(**obj["config"]),
        )

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

    trees = [tree for tree, _ in built]

    n = len(y)
    oob_sum = np.zeros(n, dtype=np.float64)
    oob_cnt = np.zeros(n, dtype=np.int64)
    for tree, in_bag in built:
        oob = np.nonzero(~in_bag)[0]
        if len(oob):
            oob_sum[oob] += tree.predict(X[oob])
            oob_cnt[oob] += 1

    covered = oob_cnt > 0
    if covered.any() and len(np.unique(y[covered])) == 2:
        calib_scores = oob_sum[covered] / oob_cnt[covered]
        calib_labels = y[covered]
    else:
        # no usable out-of-bag rows (e.g. bootstrap off): fall back to
        # training scores
        model_probe = ForestModel(feature_set, feature_set.feature_names(), trees, 0.0, None, cfg)
        calib_scores = model_probe.score_matrix(X)
        calib_labels = y
    threshold = calibrate_threshold(calib_scores, calib_labels, cfg.target_fpr)

    return ForestModel(
        feature_set=feature_set,
        schema=feature_set.feature_names(),
        trees=trees,
        threshold=threshold,
        country_codes=country_codes,
        config=cfg,
    )
