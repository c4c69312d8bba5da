import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgadetect.core import FeatureVector, Label
from dgadetect.errors import (
    EmptyDataError,
    ModelFormatError,
    NoNegativesError,
    SchemaMismatchError,
    SingleClassError,
)
from dgadetect.forest import (
    FeatureSet,
    ForestModel,
    TrainConfig,
    best_split,
    calibrate_threshold,
    design_matrix,
    entropy,
    train,
)
from dgadetect.lexical import LEXICAL_FEATURES
from dgadetect.sideinfo import SIDEINFO_FEATURES
from helpers import vectorize, xy
from oracles import (
    OracleTreeNode,
    oracle_best_split,
    oracle_entropy,
    oracle_forest_score,
    oracle_grow_tree,
    oracle_threshold_sweep,
    oracle_tree_predict,
)

LEXICAL, DNS, BOTH = (FeatureSet.parse(spec) for spec in ("lexical", "dns", "dns+lexical"))


# --- entropy --------------------------------------------------------------


def test_entropy_balanced():
    assert entropy((5, 5)) == 1.0


def test_entropy_pure():
    assert entropy((10, 0)) == 0.0
    assert entropy((0, 3)) == 0.0


def test_entropy_three_one():
    # -(3/4)log2(3/4) - (1/4)log2(1/4)
    assert entropy((3, 1)) == pytest.approx(0.8112781244591328, abs=1e-6)


def test_entropy_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = int(rng.integers(0, 50)), int(rng.integers(0, 50))
        if a == 0 and b == 0:
            continue
        assert entropy((a, b)) == pytest.approx(oracle_entropy(a, b), abs=1e-12)


def test_entropy_rejects_empty():
    with pytest.raises(ValueError):
        entropy((0, 0))


# --- best_split -----------------------------------------------------------


def test_best_split_perfect_separation():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    f, t, gain = best_split(X, y, [0])
    assert f == 0
    assert t == pytest.approx(5.5)
    assert gain == pytest.approx(1.0)


def test_best_split_single_class_none():
    X = np.array([[0.0], [1.0], [2.0]])
    assert best_split(X, np.array([1, 1, 1]), [0]) is None
    assert best_split(X, np.array([0, 0, 0]), [0]) is None


def test_best_split_constant_feature_none():
    X = np.ones((6, 1))
    y = np.array([0, 1, 0, 1, 0, 1])
    assert best_split(X, y, [0]) is None


def test_best_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(4, 14))
        X = np.round(rng.normal(size=(n, 2)) * 2, 1)  # coarse grid forces ties
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        got = best_split(X, y, [0, 1])
        want = oracle_best_split(X.tolist(), y.tolist(), [0, 1])
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=0)
            assert got[2] == pytest.approx(want[2], abs=1e-9)


def test_best_split_crafted_six_rows():
    X = np.array(
        [
            [1.0, 5.0],
            [2.0, 5.0],
            [3.0, 1.0],
            [4.0, 1.0],
            [5.0, 5.0],
            [6.0, 1.0],
        ]
    )
    y = np.array([0, 0, 1, 1, 0, 1])
    got = best_split(X, y, [0, 1])
    want = oracle_best_split(X.tolist(), y.tolist(), [0, 1])
    assert got[0] == want[0] == 1  # the second feature separates perfectly
    assert got[1] == pytest.approx(want[1])
    assert got[2] == pytest.approx(want[2], abs=1e-12)


def test_best_split_tie_band_keeps_lowest_threshold():
    # cuts after rows 2 and 8 have the same gain mathematically, but the
    # later one computes an ulp higher; the tie band still picks the first
    X = np.arange(10, dtype=np.float64)[:, None]
    y = np.array([0, 0, 1, 0, 1, 0, 1, 0, 1, 1])
    f, t, _ = best_split(X, y, [0])
    assert (f, t) == (0, 1.5)
    assert (f, t) == oracle_best_split(X.tolist(), y.tolist(), [0])[:2]


def test_best_split_midpoint_rounding_up_keeps_lower_value():
    lo = 1.0 + 2.0 ** -52
    hi = math.nextafter(lo, 2.0)
    assert (lo + hi) / 2.0 == hi  # the midpoint rounds up to the upper value
    X = np.array([[lo], [hi], [lo], [hi]])
    f, t, _ = best_split(X, np.array([0, 1, 0, 1]), [0])
    assert (f, t) == (0, lo)


def test_gain_nonnegative_and_children_bounded():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        found = best_split(X, y, [0, 1, 2])
        if found is None:
            continue
        f, t, gain = found
        assert gain > 0
        left = y[X[:, f] <= t]
        right = y[X[:, f] > t]
        parent_h = oracle_entropy(int(y.sum()), int(len(y) - y.sum()))
        child_h = (
            len(left) * oracle_entropy(int(left.sum()), len(left) - int(left.sum()))
            + len(right) * oracle_entropy(int(right.sum()), len(right) - int(right.sum()))
        ) / len(y)
        assert child_h <= parent_h + 1e-12
        assert gain == pytest.approx(parent_h - child_h, abs=1e-9)


# --- training -------------------------------------------------------------


def _toy_vectors(n=60, seed=0):
    """Trivially separable one-signal vectors via real extraction."""
    from dgadetect.ingest import synth_dataset
    from dgadetect.sideinfo import GeoDb, build_country_codes, observed_countries

    examples = synth_dataset(n // 2, n // 2, seed=seed)
    geo = GeoDb.bundled()
    codes = build_country_codes(observed_countries((e.record for e in examples), geo))
    return vectorize(examples, geo, codes)


def test_train_trivially_separable_perfect(small_dataset):
    # one feature carries the label outright: training accuracy is 100%
    _, vectors, _ = small_dataset
    trivial = [
        FeatureVector(
            lexical=vectors[i % 10].lexical,
            ext_score=0.8 if i % 2 else 0.2,
            label=Label(i % 2),
        )
        for i in range(50)
    ]
    ext = FeatureSet.parse("ext-score")
    model = train(*xy(trivial, ext), ext, TrainConfig(n_trees=5, seed=1))
    scores = model.score_matrix(design_matrix(trivial, model.feature_set))
    labels = np.array([int(v.label) for v in trivial])
    assert ((scores >= 0.5) == labels.astype(bool)).mean() == 1.0


def test_train_deterministic_bytes(small_dataset):
    _, vectors, _ = small_dataset
    cfg = TrainConfig(n_trees=8, seed=3)
    fs = FeatureSet.parse("dns+lexical")
    X, y = xy(vectors, fs)
    a = train(X, y, fs, cfg).to_json_bytes()
    b = train(X, y, fs, cfg).to_json_bytes()
    assert a == b
    c = train(X, y, fs, TrainConfig(n_trees=8, seed=4)).to_json_bytes()
    assert a != c


def test_train_thread_count_invariant(small_dataset):
    _, vectors, _ = small_dataset
    cfg = TrainConfig(n_trees=8, seed=3)
    fs = FeatureSet.parse("dns+lexical")
    X, y = xy(vectors, fs)
    assert (
        train(X, y, fs, cfg, n_jobs=1).to_json_bytes()
        == train(X, y, fs, cfg, n_jobs=4).to_json_bytes()
    )


def test_train_errors(small_dataset):
    _, vectors, _ = small_dataset
    with pytest.raises(EmptyDataError):
        train(*xy([], LEXICAL), LEXICAL, TrainConfig())
    only_benign = [v for v in vectors if v.label is Label.BENIGN]
    with pytest.raises(SingleClassError):
        train(*xy(only_benign, LEXICAL), LEXICAL, TrainConfig(n_trees=2))


@pytest.mark.parametrize("defect", ["narrow", "wide", "short-labels", "long-labels", "flat"])
def test_train_refuses_arrays_off_the_schema(small_dataset, defect):
    X, y = xy(small_dataset[1][280:320], LEXICAL)
    X, y = {
        "narrow": (X[:, :-1], y),
        "wide": (np.hstack([X, X[:, :1]]), y),
        "short-labels": (X, y[:-1]),
        "long-labels": (X, np.append(y, 0)),
        "flat": (X.ravel(), y),
    }[defect]
    with pytest.raises(SchemaMismatchError):
        train(X, y, LEXICAL, TrainConfig(n_trees=2))


def test_train_refuses_labels_other_than_0_and_1(small_dataset):
    X, y = xy(small_dataset[1][280:320], LEXICAL)
    with pytest.raises(ValueError):
        train(X, np.where(y == 1, 2, 0), LEXICAL, TrainConfig(n_trees=2))


def test_single_tree_matches_oracle_tree():
    rng = np.random.default_rng(77)
    n, d = 200, 4
    X = np.round(rng.normal(size=(n, d)), 1)
    y = rng.integers(0, 2, size=n)
    y[0], y[1] = 0, 1  # both classes guaranteed

    from dgadetect.forest import _grow_tree

    tree = _grow_tree(X, y.astype(np.int64), np.arange(n), list(range(d)), TrainConfig(n_trees=1, bootstrap=False))
    oracle_root = oracle_grow_tree(X.tolist(), y.tolist(), list(range(d)))
    got = tree.predict(X)
    want = np.array([oracle_tree_predict(oracle_root, row) for row in X.tolist()])
    assert np.array_equal(got, want)


def test_xlog2x_table_matches_log2_per_value_and_in_odd_arrays():
    from dgadetect.forest import _xlog2x_table

    n = 12_000  # covers every count of the bench's 10,000-row training set
    table = _xlog2x_table(n)
    assert table[0] == 0.0
    one_at_a_time = [v * np.log2(v) for v in np.arange(1, n + 1, dtype=np.float64)]
    assert np.array_equal(table[1:], one_at_a_time)
    for length in (1, 3, 7, 17, 33, 255, 1001):
        for start in range(1, n + 1, length):
            v = np.arange(start, min(start + length, n + 1), dtype=np.float64)
            assert np.array_equal(table[start:start + len(v)], v * np.log2(v))


TIED_VALUES = (-2.0, 0.0, 0.5, 1.0, 3.0)


@st.composite
def _tree_problems(draw):
    """A small matrix with heavy value ties, labels, a sample with repeated
    rows (as a bootstrap draws them), candidate columns and limits."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 3))
    value = st.one_of(st.sampled_from(TIED_VALUES), st.floats(-4.0, 4.0, width=16))
    X = np.array(draw(st.lists(value, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    candidates = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))
    cfg = TrainConfig(n_trees=1, max_depth=draw(st.sampled_from((None, 1, 3))),
                      min_samples_split=draw(st.sampled_from((2, 5))))
    return X, y, rows, candidates, cfg


def _oracle_size(node: OracleTreeNode) -> int:
    return 1 if node.feature is None else 1 + _oracle_size(node.left) + _oracle_size(node.right)


def _probe_grid(X: np.ndarray) -> np.ndarray:
    """Every combination of each column's values, the midpoints between
    them and a value beyond each end."""
    axes = []
    for col in X.T:
        v = np.unique(col)
        axes.append(np.concatenate([v, (v[1:] + v[:-1]) / 2, [v[0] - 1, v[-1] + 1]]))
    return np.array(list(itertools.product(*axes)), dtype=np.float64)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_tree_problems())
def test_grown_tree_matches_oracle_tree(problem):
    from dgadetect.forest import _grow_tree

    X, y, rows, candidates, cfg = problem
    tree = _grow_tree(X, y, rows, candidates, cfg)
    sample, labels = X[rows], y[rows]
    reference = oracle_grow_tree(sample.tolist(), labels.tolist(), candidates,
                                 cfg.min_samples_split, max_depth=cfg.max_depth)
    assert len(tree.feature) == _oracle_size(reference)
    for probe in (sample, _probe_grid(X)):
        want = [oracle_tree_predict(reference, row) for row in probe.tolist()]
        assert np.array_equal(tree.predict(probe), want)
    # node ids as a depth-first grower allocates them: a split node's
    # children take the next two ids, and the right subtree goes first
    next_id, stack = 1, [0]
    while stack:
        node = stack.pop()
        if tree.feature[node] >= 0:
            assert (tree.left[node], tree.right[node]) == (next_id, next_id + 1)
            stack += [next_id, next_id + 1]
            next_id += 2
    assert next_id == len(tree.feature)


def test_depth_one_tree_scores_by_side():
    from dgadetect.forest import Tree

    tree = Tree(
        feature=np.array([0, -1, -1], dtype=np.int32),
        threshold=np.array([5.0, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        prob=np.array([0.5, 0.2, 0.8]),
        count=np.array([10, 5, 5], dtype=np.int64),
        candidates=(0,),
    )
    scores = tree.predict(np.array([[1.0], [9.0], [5.0]]))
    assert scores.tolist() == [0.2, 0.8, 0.2]  # boundary value goes left


def test_forest_score_is_tree_mean(small_dataset):
    _, vectors, _ = small_dataset
    model = train(*xy(vectors, LEXICAL), LEXICAL, TrainConfig(n_trees=7, seed=2))
    X = design_matrix(vectors[:20], model.feature_set)
    per_tree = np.stack([t.predict(X) for t in model.trees])
    assert np.allclose(model.score_matrix(X), per_tree.mean(axis=0))
    assert np.all(model.score_matrix(X) >= 0) and np.all(model.score_matrix(X) <= 1)


# --- compiled scoring ---------------------------------------------------------


def _probe_rows(model, vectors, n, seed=0):
    """``n`` rows drawn from the vectors' design matrix, a third of them
    moved onto split thresholds of the model's trees."""
    rng = np.random.default_rng(seed)
    base = design_matrix(vectors, model.feature_set)
    X = base[rng.integers(0, len(base), size=n)].copy()
    splits = [(int(t.feature[i]), float(t.threshold[i]))
              for t in model.trees for i in np.flatnonzero(t.feature >= 0)]
    for r in range(0, n, 3):
        f, threshold = splits[rng.integers(len(splits))]
        X[r, f] = threshold
    return X


def _oracle_scores(model, X):
    trees = json.loads(model.to_json_bytes())["trees"]
    return np.array([oracle_forest_score(trees, row) for row in X.tolist()])


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000])
def test_score_matrix_matches_node_walk(small_models, small_dataset, n):
    model = small_models["dns+lexical"]
    X = _probe_rows(model, small_dataset[1], n)
    got = model.score_matrix(X)
    assert got.shape == (n,)
    assert np.array_equal(got, _oracle_scores(model, X))


def test_score_of_a_row_does_not_depend_on_its_batch(small_models, small_dataset):
    model = small_models["dns+lexical"]
    X = _probe_rows(model, small_dataset[1], 1000, seed=1)
    batch = model.score_matrix(X)
    alone = np.array([model.score_matrix(X[i:i + 1])[0] for i in range(len(X))])
    assert np.array_equal(alone, batch)


def test_score_with_a_tree_that_is_one_leaf(small_models, small_dataset):
    obj = json.loads(small_models["lexical"].to_json_bytes())
    obj["trees"][2] = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                       "prob": [0.375], "count": [8], "candidates": [0]}
    model = ForestModel.from_json_bytes(json.dumps(obj).encode())
    X = _probe_rows(model, small_dataset[1], 300)
    assert np.array_equal(model.score_matrix(X), _oracle_scores(model, X))
    assert model.trees[2].predict(X).tolist() == [0.375] * 300


def test_depth_one_forest_sends_threshold_values_left(small_dataset):
    _, vectors, _ = small_dataset
    model = train(*xy(vectors, LEXICAL), LEXICAL, TrainConfig(n_trees=6, seed=5, max_depth=1))
    assert all(len(t.feature) in (1, 3) for t in model.trees)
    X = _probe_rows(model, vectors, 400, seed=2)
    assert np.array_equal(model.score_matrix(X), _oracle_scores(model, X))
    for tree in model.trees:
        if tree.feature[0] < 0:
            continue
        at = X[:1].copy()
        at[0, tree.feature[0]] = tree.threshold[0]
        assert tree.predict(at)[0] == tree.prob[tree.left[0]]


def test_score_matrix_refuses_rows_of_another_width(small_models, small_dataset):
    model = small_models["lexical"]
    X = design_matrix(small_dataset[1][:3], model.feature_set)
    with pytest.raises(SchemaMismatchError):
        model.score_matrix(X[:, :-1])


def test_score_schema_mismatch(small_dataset):
    _, vectors, _ = small_dataset
    model = train(*xy(vectors, BOTH), BOTH, TrainConfig(n_trees=3, seed=1))
    naked = FeatureVector(lexical=vectors[0].lexical)  # no sideinfo block
    with pytest.raises(SchemaMismatchError):
        model.score_matrix(design_matrix([naked], model.feature_set))
    hybrid = train(*xy(vectors, LEXICAL), LEXICAL, TrainConfig(n_trees=3, seed=1))
    # lexical-only model is fine with it
    assert 0.0 <= hybrid.score_matrix(design_matrix([naked], hybrid.feature_set))[0] <= 1.0


def test_design_matrix_refuses_a_vector_without_the_lexical_block(small_dataset):
    sideinfo_only = FeatureVector(sideinfo=small_dataset[1][0].sideinfo)
    assert design_matrix([sideinfo_only], DNS).shape == (1, len(SIDEINFO_FEATURES))
    for fs in (LEXICAL, BOTH):
        with pytest.raises(SchemaMismatchError):
            design_matrix([sideinfo_only], fs)


def test_ext_score_schema(small_dataset):
    _, vectors, _ = small_dataset
    with_ext = [
        FeatureVector(lexical=v.lexical, sideinfo=v.sideinfo, ext_score=float(int(v.label)), label=v.label)
        for v in vectors
    ]
    hybrid = FeatureSet.parse("dns+lexical+ext-score")
    model = train(*xy(with_ext, hybrid), hybrid, TrainConfig(n_trees=3, seed=9))
    assert model.schema[-1] == "ext_score"
    with pytest.raises(SchemaMismatchError):
        model.score_matrix(design_matrix(vectors[:1], model.feature_set))  # lacks ext_score


def test_feature_subset_sizes(small_dataset):
    _, vectors, _ = small_dataset
    fs = FeatureSet.parse("dns+lexical")
    d = len(fs.feature_names())
    model = train(*xy(vectors, fs), fs, TrainConfig(n_trees=6, seed=5))
    expected = max(1, int(math.isqrt(d)))
    for tree in model.trees:
        assert len(tree.candidates) == expected
        assert all(0 <= c < d for c in tree.candidates)
    full = train(*xy(vectors, fs), fs, TrainConfig(n_trees=2, seed=5, features_per_tree=d))
    assert all(len(t.candidates) == d for t in full.trees)
    frac = train(*xy(vectors, fs), fs, TrainConfig(n_trees=2, seed=5, features_per_tree=0.5))
    assert all(len(t.candidates) == max(1, int(0.5 * d)) for t in frac.trees)


def test_tree_subsets_differ_across_trees(small_dataset):
    _, vectors, _ = small_dataset
    model = train(*xy(vectors, BOTH), BOTH, TrainConfig(n_trees=12, seed=0))
    assert len({t.candidates for t in model.trees}) > 1


def test_monotone_rescaling_invariance(small_dataset):
    """Affine-positive rescaling of the matrix preserves predictions when
    the forest is retrained with the same seed (split structure depends
    only on value order)."""
    _, vectors, _ = small_dataset
    fs = FeatureSet.parse("dns+lexical")
    cfg = TrainConfig(n_trees=6, seed=13)
    X = design_matrix(vectors, fs)
    y = np.array([int(v.label) for v in vectors])

    from dgadetect.forest import _build_one_tree

    k = cfg.resolve_subset_size(X.shape[1])
    X2 = X * 3.0 + 11.0
    for idx in range(cfg.n_trees):
        t1, _ = _build_one_tree(X, y, cfg, k, idx)
        t2, _ = _build_one_tree(X2, y, cfg, k, idx)
        assert np.array_equal(t1.predict(X), t2.predict(X2))


# --- threshold calibration --------------------------------------------------


def test_calibrate_separated():
    t = calibrate_threshold([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1], 0.001)
    assert t == math.nextafter(0.2, math.inf)


def test_calibrate_full_fpr_allows_zero():
    assert calibrate_threshold([0.1, 0.9], [0, 1], 1.0) == 0.0


def test_calibrate_no_negatives():
    with pytest.raises(NoNegativesError):
        calibrate_threshold([0.9, 0.8], [1, 1], 0.001)


def test_calibrate_budget_and_minimality():
    rng = np.random.default_rng(3)
    for trial in range(20):
        neg = rng.random(1000)
        pos = rng.random(50) * 0.5 + 0.5
        scores = np.concatenate([neg, pos])
        labels = np.array([0] * 1000 + [1] * 50)
        t = calibrate_threshold(scores, labels, 0.001)
        assert (neg >= t).sum() <= 1
        assert t == oracle_threshold_sweep(scores.tolist(), labels.tolist(), 0.001)


def test_calibrate_oracle_various_targets():
    rng = np.random.default_rng(9)
    for target in (0.01, 0.05, 0.25, 0.5):
        scores = np.round(rng.random(200), 2)
        labels = rng.integers(0, 2, size=200)
        if (labels == 0).sum() == 0:
            continue
        t = calibrate_threshold(scores, labels, target)
        assert t == oracle_threshold_sweep(scores.tolist(), labels.tolist(), target)


def test_oob_fpr_within_target(small_dataset):
    _, vectors, _ = small_dataset
    cfg = TrainConfig(n_trees=25, seed=6, target_fpr=0.05)
    model = train(*xy(vectors, DNS), DNS, cfg)
    # recompute the out-of-bag scores exactly as training saw them
    from dgadetect.forest import _build_one_tree

    X = design_matrix(vectors, model.feature_set)
    y = np.array([int(v.label) for v in vectors])
    k = cfg.resolve_subset_size(X.shape[1])
    oob_sum = np.zeros(len(y))
    oob_cnt = np.zeros(len(y))
    for idx in range(cfg.n_trees):
        tree, in_bag = _build_one_tree(X, y, cfg, k, idx)
        oob = ~in_bag
        oob_sum[oob] += tree.predict(X[oob])
        oob_cnt[oob] += 1
    covered = oob_cnt > 0
    oob_scores = oob_sum[covered] / oob_cnt[covered]
    oob_labels = y[covered]
    fp = ((oob_scores >= model.threshold) & (oob_labels == 0)).sum()
    assert fp / (oob_labels == 0).sum() <= cfg.target_fpr
    # training sums them through the packed forest, to the same threshold
    assert model.threshold == calibrate_threshold(oob_scores, oob_labels, cfg.target_fpr)


# --- serialization ----------------------------------------------------------


def test_model_roundtrip_bytes_and_scores(small_dataset, tmp_path):
    _, vectors, _ = small_dataset
    model = train(*xy(vectors, BOTH), BOTH, TrainConfig(n_trees=5, seed=8))
    raw = model.to_json_bytes()
    clone = ForestModel.from_json_bytes(raw)
    assert clone.to_json_bytes() == raw
    probe = vectors[:100]
    assert np.array_equal(model.score_matrix(design_matrix(probe, model.feature_set)),
                          clone.score_matrix(design_matrix(probe, clone.feature_set)))

    path = tmp_path / "model.json"
    model.save(path)
    loaded = ForestModel.load(path)
    assert loaded.to_json_bytes() == raw
    assert loaded.threshold == model.threshold
    assert loaded.schema == model.schema


def test_model_version_guard(small_dataset):
    _, vectors, _ = small_dataset
    model = train(*xy(vectors, LEXICAL), LEXICAL, TrainConfig(n_trees=2, seed=1))
    raw = model.to_json_bytes().replace(b'"version":1', b'"version":99')
    with pytest.raises(ValueError):
        ForestModel.from_json_bytes(raw)


def test_model_corruption_guards(small_dataset):
    _, vectors, _ = small_dataset
    model = train(*xy(vectors, LEXICAL), LEXICAL, TrainConfig(n_trees=2, seed=1))
    import json as _json

    obj = _json.loads(model.to_json_bytes())
    truncated = dict(obj, schema=obj["schema"][:-1], feature_set="lexical")
    with pytest.raises(ValueError):
        ForestModel.from_json_bytes(_json.dumps(truncated).encode())
    no_trees = dict(obj, trees=[])
    with pytest.raises(ValueError):
        ForestModel.from_json_bytes(_json.dumps(no_trees).encode())


def _first_split(tree: dict) -> int:
    return next(i for i, f in enumerate(tree["feature"]) if f >= 0)


@pytest.mark.parametrize("corrupt", [
    "cyclic-child", "child-out-of-range", "leaf-with-child", "internal-without-child",
    "prob-above-one", "ragged-arrays", "feature-overflows-int32",
])
def test_model_tree_topology_validated(small_dataset, corrupt):
    _, vectors, _ = small_dataset
    model = train(*xy(vectors, LEXICAL), LEXICAL, TrainConfig(n_trees=2, seed=1))
    import json as _json

    obj = _json.loads(model.to_json_bytes())
    tree = obj["trees"][1]
    node = _first_split(tree)
    leaf = tree["feature"].index(-1)
    if corrupt == "cyclic-child":
        tree["right"][node] = node  # a walk would revisit this node forever
    elif corrupt == "child-out-of-range":
        tree["left"][node] = len(tree["feature"])
    elif corrupt == "leaf-with-child":
        tree["left"][leaf] = leaf + 1
    elif corrupt == "internal-without-child":
        tree["right"][node] = -1
    elif corrupt == "prob-above-one":
        tree["prob"][leaf] = 1.5
    elif corrupt == "feature-overflows-int32":
        tree["feature"][node] = 2**40
    else:
        tree["prob"].pop()
    with pytest.raises(ModelFormatError):
        ForestModel.from_json_bytes(_json.dumps(obj).encode())


def test_model_country_codes_need_reserved_names(small_dataset):
    _, vectors, _ = small_dataset
    model = train(*xy(vectors, DNS), DNS, TrainConfig(n_trees=2, seed=1),
                  country_codes=small_dataset[2])
    import json as _json

    obj = _json.loads(model.to_json_bytes())
    del obj["country_codes"]["unknown"]  # scoring would look this name up
    with pytest.raises(ModelFormatError):
        ForestModel.from_json_bytes(_json.dumps(obj).encode())


@pytest.mark.parametrize("raw", [
    b"{not json", b"\xff\xfe", b"[1, 2]", b'{"format":"nope"}',
    b'{"format":"dgadetect-forest","version":1}',
], ids=["not-json", "not-utf8", "not-an-object", "wrong-format", "missing-fields"])
def test_model_format_errors_are_typed(raw):
    with pytest.raises(ModelFormatError) as info:
        ForestModel.from_json_bytes(raw)
    assert isinstance(info.value, ValueError)


# --- feature sets -----------------------------------------------------------


def test_feature_set_parsing_and_ids():
    assert FeatureSet.parse("dns").id == "dns"
    assert FeatureSet.parse("lexical").id == "lexical"
    assert FeatureSet.parse("dns+lexical").id == "dns+lexical"
    assert FeatureSet.parse("dns+lexical+ext-score").id == "dns+lexical+ext-score"
    assert FeatureSet.parse("ext-score").id == "ext-score"
    with pytest.raises(ValueError):
        FeatureSet.parse("bogus")


def test_feature_set_schemas():
    assert FeatureSet.parse("dns").feature_names() == SIDEINFO_FEATURES
    assert FeatureSet.parse("lexical").feature_names() == LEXICAL_FEATURES
    both = FeatureSet.parse("dns+lexical").feature_names()
    assert both == SIDEINFO_FEATURES + LEXICAL_FEATURES
    assert FeatureSet.parse("dns+lexical+ext-score").feature_names() == both + ("ext_score",)


def test_all_six_configurations_trainable(small_dataset):
    _, vectors, _ = small_dataset
    with_ext = [
        FeatureVector(
            lexical=v.lexical,
            sideinfo=v.sideinfo,
            ext_score=0.9 if v.label is Label.DGA else 0.1,
            label=v.label,
        )
        for v in vectors
    ]
    cfg = TrainConfig(n_trees=3, seed=2)
    for spec in ("dns", "lexical", "dns+lexical", "ext-score", "dns+ext-score", "dns+lexical+ext-score"):
        fs = FeatureSet.parse(spec)
        model = train(*xy(with_ext, fs), fs, cfg)
        assert model.feature_set.id == spec
        assert 0 <= model.score_matrix(design_matrix(with_ext[:1], model.feature_set))[0] <= 1
