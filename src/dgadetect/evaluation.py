"""ROC construction, AUC and partial AUC at a fixed FPR, stratified
cross-validation, and traffic audit counting."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Container, Sequence

import numpy as np

from .core import ParsedDomain
from .errors import SingleClassError, TooFewExamplesError
from .forest import FeatureSet, TrainConfig, train


@dataclass(frozen=True)
class RocCurve:
    """Operating points from a descending-score threshold sweep.

    Ties are grouped into a single point, so both coordinates are
    non-decreasing along the curve, which starts at (0,0) and ends at
    (1,1).
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        fprs = [p[0] for p in self.points]
        tprs = [p[1] for p in self.points]
        if fprs != sorted(fprs) or tprs != sorted(tprs):
            raise ValueError("ROC points must be non-decreasing in both axes")
        if any(not 0.0 <= v <= 1.0 for pair in self.points for v in pair):
            raise ValueError("ROC coordinates must lie in [0, 1]")


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> tuple[RocCurve, float]:
    """ROC sweep and trapezoid AUC.

    The trapezoid value over grouped ties equals the probability that a
    random DGA example outscores a random benign one, with ties counted
    as one half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    p = int(np.sum(labels == 1))
    n = int(np.sum(labels == 0))
    if p == 0 or n == 0:
        raise SingleClassError("ROC needs both classes present")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # last index of each distinct-score group in descending order
    boundaries = np.nonzero(np.append(sorted_scores[:-1] != sorted_scores[1:], True))[0]
    cum_tp = np.cumsum(sorted_labels == 1)[boundaries]
    cum_fp = np.cumsum(sorted_labels == 0)[boundaries]

    points = [(0.0, 0.0)]
    points.extend((int(fp) / n, int(tp) / p) for fp, tp in zip(cum_fp, cum_tp))
    curve = RocCurve(points=tuple(points))

    fprs = np.array([pt[0] for pt in points])
    tprs = np.array([pt[1] for pt in points])
    auc = float(np.trapezoid(tprs, fprs))
    return curve, auc


def partial_auc(curve: RocCurve, fpr_max: float) -> float:
    """Trapezoid integral of the curve over [0, fpr_max], normalized by
    fpr_max so a perfect classifier scores 1.0.

    Linear interpolation supplies the TPR at the fpr_max cut.  With
    fpr_max = 1 this equals the plain AUC.
    """
    if not 0.0 < fpr_max <= 1.0:
        raise ValueError("fpr_max must lie in (0, 1]")
    area = 0.0
    prev_f, prev_t = curve.points[0]
    for f, t in curve.points[1:]:
        if f >= fpr_max:
            if f > prev_f:
                t_cut = prev_t + (t - prev_t) * (fpr_max - prev_f) / (f - prev_f)
            else:
                t_cut = t
            area += (fpr_max - prev_f) * (prev_t + t_cut) / 2.0
            return area / fpr_max
        area += (f - prev_f) * (prev_t + t) / 2.0
        prev_f, prev_t = f, t
    return area / fpr_max


def tpr_at_fpr(curve: RocCurve, fpr_max: float) -> float:
    """Highest TPR among operating points with FPR <= fpr_max.

    Real operating points only; no interpolation.
    """
    best = 0.0
    for f, t in curve.points:
        if f <= fpr_max:
            best = max(best, t)
    return best


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    auc: float
    auc_at_fpr: float
    tpr_at_fpr: float
    threshold: float
    roc: RocCurve

    def as_dict(self) -> dict:
        return {
            "fold": self.fold,
            "auc": self.auc,
            "auc_at_fpr": self.auc_at_fpr,
            "tpr_at_fpr": self.tpr_at_fpr,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class EvalReport:
    """Cross-validation outcome: fold metrics and their means."""

    config_id: str
    target_fpr: float
    folds: tuple[FoldMetrics, ...]
    auc: float
    auc_at_fpr: float
    tpr_at_fpr: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config_id,
                "target_fpr": self.target_fpr,
                "auc": self.auc,
                "auc_at_fpr": self.auc_at_fpr,
                "tpr_at_fpr": self.tpr_at_fpr,
                "folds": [f.as_dict() for f in self.folds],
            },
            indent=2,
            sort_keys=True,
        )


def stratified_folds(labels: Sequence[int], k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified fold assignment; per-class fold sizes
    differ by at most one."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = np.nonzero(labels == cls)[0]
        if len(idx) < k:
            raise TooFewExamplesError(f"need at least {k} examples of class {cls}")
        idx = idx[rng.permutation(len(idx))]
        for j, row in enumerate(idx):
            folds[j % k].append(int(row))
    return [np.asarray(sorted(f), dtype=np.int64) for f in folds]


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    feature_set: FeatureSet,
    cfg: TrainConfig = TrainConfig(),
    k: int = 5,
    seed: int = 0,
) -> EvalReport:
    """Stratified k-fold evaluation of a schema-ordered matrix and its
    labels: train and calibrate on each training split, sweep the ROC on
    the held-out fold, and aggregate by mean.

    Calibration only ever sees training-fold rows; metrics only ever see
    held-out rows.  Deterministic for fixed data, config and seed.
    """
    metrics: list[FoldMetrics] = []
    for fold, test_rows in enumerate(stratified_folds(y, k, seed)):
        held_out = np.zeros(len(y), dtype=bool)
        held_out[test_rows] = True
        model = train(X[~held_out], y[~held_out], feature_set, cfg)
        scores = model.score_matrix(X[held_out])
        curve, auc = roc_auc(scores, y[held_out])
        metrics.append(
            FoldMetrics(
                fold=fold,
                auc=auc,
                auc_at_fpr=partial_auc(curve, cfg.target_fpr),
                tpr_at_fpr=tpr_at_fpr(curve, cfg.target_fpr),
                threshold=model.threshold,
                roc=curve,
            )
        )
    return EvalReport(
        config_id=feature_set.id,
        target_fpr=cfg.target_fpr,
        folds=tuple(metrics),
        auc=float(np.mean([m.auc for m in metrics])),
        auc_at_fpr=float(np.mean([m.auc_at_fpr for m in metrics])),
        tpr_at_fpr=float(np.mean([m.tpr_at_fpr for m in metrics])),
    )


@dataclass(frozen=True)
class AuditCounts:
    total: int
    flagged: int
    flagged_blacklist: int
    flagged_whitelist: int
    blacklist_whitelist: int

    def as_dict(self) -> dict[str, int]:
        return {
            "total": self.total,
            "flagged": self.flagged,
            "flagged_in_blacklist": self.flagged_blacklist,
            "flagged_in_whitelist": self.flagged_whitelist,
            "blacklist_whitelist_overlap": self.blacklist_whitelist,
        }


@dataclass(frozen=True)
class AuditReport:
    """Traffic audit: raw counts plus SLD.TLD-deduplicated counts, where a
    deduplicated domain counts as flagged if any of its occurrences was."""

    raw: AuditCounts
    deduplicated: AuditCounts

    def to_json(self) -> str:
        return json.dumps(
            {"raw": self.raw.as_dict(), "deduplicated": self.deduplicated.as_dict()},
            indent=2,
            sort_keys=True,
        )


def audit(
    domains: Sequence[ParsedDomain],
    flags: Sequence[bool],
    blacklist: Container[str],
    whitelist: Container[str],
) -> AuditReport:
    """Count a traffic stream's classifier flags, one per domain, against
    the blacklist and whitelist."""
    raw_total = raw_flagged = raw_fb = raw_fw = raw_bw = 0
    dedup_flagged: dict[str, bool] = {}
    dedup_lists: dict[str, tuple[bool, bool]] = {}

    for domain, flag in zip(domains, flags):
        fqdn = domain.fqdn
        flagged = bool(flag)
        in_b = fqdn in blacklist
        in_w = fqdn in whitelist
        raw_total += 1
        raw_flagged += flagged
        raw_fb += flagged and in_b
        raw_fw += flagged and in_w
        raw_bw += in_b and in_w
        dedup_flagged[fqdn] = dedup_flagged.get(fqdn, False) or flagged
        dedup_lists[fqdn] = (in_b, in_w)

    dd_flagged = sum(dedup_flagged.values())
    dd_fb = sum(1 for d, f in dedup_flagged.items() if f and dedup_lists[d][0])
    dd_fw = sum(1 for d, f in dedup_flagged.items() if f and dedup_lists[d][1])
    dd_bw = sum(1 for b, w in dedup_lists.values() if b and w)

    return AuditReport(
        raw=AuditCounts(raw_total, raw_flagged, raw_fb, raw_fw, raw_bw),
        deduplicated=AuditCounts(len(dedup_flagged), dd_flagged, dd_fb, dd_fw, dd_bw),
    )
