import json

import numpy as np
import pytest

from dgadetect.core import FeatureVector, ParsedDomain
from dgadetect.errors import SingleClassError, TooFewExamplesError
from dgadetect.evaluation import (
    RocCurve,
    audit,
    cross_validate,
    partial_auc,
    roc_auc,
    stratified_folds,
    tpr_at_fpr,
)
from dgadetect.forest import FeatureSet, TrainConfig, design_matrix, train
from helpers import xy
from oracles import oracle_auc


# --- roc / auc ---------------------------------------------------------------


def test_auc_perfect_separation():
    _, auc = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert auc == 1.0


def test_auc_one_discordant_pair():
    # 2 positive, 2 negative, exactly one discordant pair -> 3/4
    _, auc = roc_auc([0.9, 0.3, 0.4, 0.1], [1, 1, 0, 0])
    assert auc == pytest.approx(0.75, abs=1e-12)


def test_auc_inverted_perfect_separator():
    _, auc = roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1])
    assert auc == 0.0


def test_auc_single_class_error():
    with pytest.raises(SingleClassError):
        roc_auc([0.5, 0.6], [1, 1])


def test_curve_shape():
    curve, _ = roc_auc([0.9, 0.5, 0.5, 0.1], [1, 1, 0, 0])
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[-1] == (1.0, 1.0)
    fprs = [p[0] for p in curve.points]
    tprs = [p[1] for p in curve.points]
    assert fprs == sorted(fprs) and tprs == sorted(tprs)


def test_curve_monotonicity_enforced():
    with pytest.raises(ValueError):
        RocCurve(points=((0.0, 0.0), (0.5, 0.8), (0.4, 0.9)))


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(123)
    for _ in range(60):
        n = int(rng.integers(4, 200))
        scores = np.round(rng.random(n), 2)  # ties guaranteed
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        _, auc = roc_auc(scores, labels)
        assert auc == pytest.approx(oracle_auc(scores.tolist(), labels.tolist()), abs=1e-9)


# --- partial auc -------------------------------------------------------------


def test_partial_auc_perfect():
    curve, _ = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    for fmax in (0.001, 0.25, 1.0):
        assert partial_auc(curve, fmax) == pytest.approx(1.0, abs=1e-12)


def test_partial_auc_diagonal():
    diagonal = RocCurve(points=((0.0, 0.0), (1.0, 1.0)))
    assert partial_auc(diagonal, 0.4) == pytest.approx(0.2, abs=1e-12)
    assert partial_auc(diagonal, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_partial_auc_piecewise_hand_value():
    curve = RocCurve(points=((0.0, 0.0), (0.0005, 0.9), (0.001, 0.95), (1.0, 1.0)))
    # trapezoids: 0.0005*(0+0.9)/2 + 0.0005*(0.9+0.95)/2 = 0.0006875
    assert partial_auc(curve, 0.001) == pytest.approx(0.6875, abs=1e-12)


def test_partial_auc_equals_auc_at_one():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(4, 100))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        curve, auc = roc_auc(scores, labels)
        assert partial_auc(curve, 1.0) == pytest.approx(auc, abs=1e-12)


def test_partial_auc_interpolates_at_cut():
    curve = RocCurve(points=((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)))
    # at fpr 0.25 the interpolated tpr is 0.5; area = 0.25*0.5/2 = 0.0625
    assert partial_auc(curve, 0.25) == pytest.approx(0.25, abs=1e-12)


def test_partial_auc_rejects_bad_fmax():
    curve = RocCurve(points=((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        partial_auc(curve, 0.0)
    with pytest.raises(ValueError):
        partial_auc(curve, 1.5)


def test_tpr_at_fpr_step_behaviour():
    curve = RocCurve(points=((0.0, 0.0), (0.0, 0.7), (0.01, 0.8), (1.0, 1.0)))
    assert tpr_at_fpr(curve, 0.001) == 0.7  # no interpolation
    assert tpr_at_fpr(curve, 0.01) == 0.8
    assert tpr_at_fpr(curve, 1.0) == 1.0


def test_tpr_at_fpr_monotone_in_fmax():
    rng = np.random.default_rng(8)
    scores = rng.random(100)
    labels = rng.integers(0, 2, size=100)
    curve, _ = roc_auc(scores, labels)
    values = [tpr_at_fpr(curve, f) for f in (0.001, 0.01, 0.1, 0.5, 1.0)]
    assert values == sorted(values)


# --- cross validation ---------------------------------------------------------


def test_stratified_fold_sizes():
    labels = [0] * 23 + [1] * 17
    folds = stratified_folds(labels, 5, seed=1)
    benign_sizes = sorted(sum(1 for i in f if labels[i] == 0) for f in folds)
    dga_sizes = sorted(sum(1 for i in f if labels[i] == 1) for f in folds)
    assert max(benign_sizes) - min(benign_sizes) <= 1
    assert max(dga_sizes) - min(dga_sizes) <= 1
    all_rows = sorted(i for f in folds for i in f)
    assert all_rows == list(range(40))


def test_stratified_too_few():
    with pytest.raises(TooFewExamplesError):
        stratified_folds([0, 0, 0, 1, 1, 1], 5, seed=0)


def test_cross_validate_trivial_data(small_dataset):
    # duplicated, trivially separable rows: the external score IS the label
    _, vectors, _ = small_dataset
    trivial = [
        FeatureVector(
            lexical=vectors[i % 20].lexical,
            ext_score=0.9 if i % 2 else 0.1,
        )
        for i in range(100)
    ]
    cfg = TrainConfig(n_trees=5, seed=2)
    ext = FeatureSet.parse("ext-score")
    report = cross_validate(design_matrix(trivial, ext), np.arange(100) % 2, ext, cfg, k=5, seed=3)
    assert report.tpr_at_fpr == 1.0
    assert report.auc == 1.0
    assert len(report.folds) == 5
    assert report.config_id == "ext-score"


def test_cross_validate_deterministic(small_dataset):
    examples, vectors, _ = small_dataset
    cfg = TrainConfig(n_trees=4, seed=2)
    dns = FeatureSet.parse("dns")
    X, y = xy(examples, vectors, dns)
    a = cross_validate(X, y, dns, cfg, k=5, seed=3)
    b = cross_validate(X, y, dns, cfg, k=5, seed=3)
    assert a == b
    c = cross_validate(X, y, dns, cfg, k=5, seed=4)
    assert a != c


def test_cross_validate_report_json(small_dataset):
    examples, vectors, _ = small_dataset
    lexical = FeatureSet.parse("lexical")
    report = cross_validate(*xy(examples, vectors, lexical), lexical, TrainConfig(n_trees=3, seed=1), k=5, seed=1)
    obj = json.loads(report.to_json())
    assert {"auc", "auc_at_fpr", "tpr_at_fpr", "folds", "config", "target_fpr"} <= set(obj)
    assert len(obj["folds"]) == 5
    assert obj["auc"] == pytest.approx(np.mean([f["auc"] for f in obj["folds"]]))


def test_cross_validate_isolation(small_dataset):
    """Held-out rows never reach training: a fold's model must not change
    when the held-out rows' labels are flipped."""
    examples, vectors, _ = small_dataset
    cfg = TrainConfig(n_trees=3, seed=5)
    lexical = FeatureSet.parse("lexical")
    X, y = xy(examples, vectors, lexical)
    folds = stratified_folds(y, 5, seed=7)
    in_train = np.ones(len(y), dtype=bool)
    in_train[folds[0]] = False
    model_a = train(X[in_train], y[in_train], lexical, cfg)

    flipped = np.where(in_train, y, 1 - y)
    model_b = train(X[in_train], flipped[in_train], lexical, cfg)
    assert model_a.to_json_bytes() == model_b.to_json_bytes()


# --- audit ---------------------------------------------------------------------


def _item(sld, score):
    return ParsedDomain(sld, "com").fqdn, score


def _audit(items, blacklist, whitelist):
    """Audit with each item's score as its classifier score, flagged at
    0.5, the verdicts handed over as a one-shot generator."""
    return audit(((d, s >= 0.5) for d, s in items), blacklist, whitelist)


def test_audit_hand_counted_fixture():
    # 10 items, 4 flagged, 3 blacklisted, flagged/blacklist overlap 2
    items = [
        _item("flaggedblack1", 0.9),
        _item("flaggedblack2", 0.8),
        _item("flaggedonly1", 0.7),
        _item("flaggedonly2", 0.6),
        _item("blackonly", 0.1),
        _item("plain1", 0.2),
        _item("plain2", 0.3),
        _item("plain3", 0.4),
        _item("white1", 0.45),
        _item("white2", 0.05),
    ]
    blacklist = {"flaggedblack1.com", "flaggedblack2.com", "blackonly.com"}
    whitelist = {"white1.com", "white2.com", "flaggedonly1.com"}
    report = _audit(items, blacklist, whitelist)
    assert report.raw.total == 10
    assert report.raw.flagged == 4
    assert report.raw.flagged_blacklist == 2
    assert report.raw.flagged_whitelist == 1
    assert report.raw.blacklist_whitelist == 0
    assert report.deduplicated == report.raw  # all domains distinct


def test_audit_empty_whitelist():
    items = [_item("somedomain1", 0.9), _item("somedomain2", 0.1)]
    report = _audit(items, {"somedomain1.com"}, frozenset())
    assert report.raw.flagged_whitelist == 0


def test_audit_all_blacklisted_all_flagged():
    items = [_item(f"domain{i}xyz", 0.99) for i in range(5)]
    blacklist = {f"domain{i}xyz.com" for i in range(5)}
    report = _audit(items, blacklist, frozenset())
    assert report.raw.flagged_blacklist == report.raw.total == 5


def test_audit_deduplication():
    # same domain appears twice: once flagged, once not
    items = [_item("repeatdomain", 0.9), _item("repeatdomain", 0.1), _item("otherdomain", 0.2)]
    report = _audit(items, {"repeatdomain.com"}, {"repeatdomain.com"})
    assert report.raw.total == 3
    assert report.raw.flagged == 1
    assert report.deduplicated.total == 2
    assert report.deduplicated.flagged == 1  # any flagged occurrence counts
    assert report.deduplicated.flagged_blacklist == 1
    assert report.deduplicated.blacklist_whitelist == 1
    assert report.raw.blacklist_whitelist == 2  # raw counts every occurrence
