"""Per-layer metrics from the span reports of a traced run.

Times are inclusive unless the name says ``self_s``, which is a span minus
the part of it that its child spans cover.  Distinct shares count distinct
keys per command: the reuse a memo inside one process could exploit.  A
metric whose function the program no longer defines is left out rather
than reported as zero.
"""

from __future__ import annotations


def _merge(reports: list[dict]) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for report in reports:
        for name, agg in report["spans"].items():
            acc = out.setdefault(name, dict.fromkeys(agg, 0))
            for field, value in agg.items():
                acc[field] += value
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# metric -> (span, unit, value from the merged aggregate)
_SPAN_METRICS = (
    ("ingest.read_pdns.records", "ingest.read_pdns", "count", lambda a: a["items"]),
    ("ingest.read_pdns.us_per_record", "ingest.read_pdns", "us", lambda a: _ratio(a["s"] * 1e6, a["items"])),
    ("core.parse_domain.calls", "core.parse_domain", "count", lambda a: a["calls"]),
    ("core.parse_domain.us_per_call", "core.parse_domain", "us", lambda a: _ratio(a["s"] * 1e6, a["calls"])),
    ("lexical.extract_lexical.calls", "lexical.extract_lexical", "count", lambda a: a["calls"]),
    ("lexical.extract_lexical.us_per_call", "lexical.extract_lexical", "us",
     lambda a: _ratio(a["s"] * 1e6, a["calls"])),
    ("lexical.distinct_share", "lexical.extract_lexical", "ratio", lambda a: _ratio(a["distinct"], a["calls"])),
    ("sideinfo.extract_sideinfo.us_per_call", "sideinfo.extract_sideinfo", "us",
     lambda a: _ratio(a["s"] * 1e6, a["calls"])),
    ("sideinfo.GeoDb.lookup.calls", "sideinfo.GeoDb.lookup", "count", lambda a: a["calls"]),
    ("sideinfo.GeoDb.lookup.us_per_call", "sideinfo.GeoDb.lookup", "us", lambda a: _ratio(a["s"] * 1e6, a["calls"])),
    ("sideinfo.ip_distinct_share", "sideinfo.GeoDb.lookup", "ratio", lambda a: _ratio(a["distinct"], a["calls"])),
    ("forest.ForestModel.load.ms", "forest.ForestModel.load", "ms", lambda a: _ratio(a["s"] * 1e3, a["calls"])),
    ("forest.design_matrix.us_per_row", "forest.design_matrix", "us", lambda a: _ratio(a["s"] * 1e6, a["items"])),
    ("forest.score_matrix.calls", "forest.score_matrix", "count", lambda a: a["calls"]),
    ("forest.score_matrix.rows_per_call", "forest.score_matrix", "rows", lambda a: _ratio(a["items"], a["calls"])),
    ("forest.score_matrix.us_per_row", "forest.score_matrix", "us", lambda a: _ratio(a["s"] * 1e6, a["items"])),
    ("forest.train.self_s", "forest.train", "s", lambda a: a["self_s"]),
    ("forest.best_split.calls", "forest.best_split", "count", lambda a: a["calls"]),
    ("forest.best_split.s", "forest.best_split", "s", lambda a: a["s"]),
    ("forest.Tree.predict.s", "forest.Tree.predict", "s", lambda a: a["s"]),
    ("forest.calibrate_threshold.s", "forest.calibrate_threshold", "s", lambda a: a["s"]),
    ("evaluation.cross_validate.self_s", "evaluation.cross_validate", "s", lambda a: a["self_s"]),
    ("evaluation.roc_auc.s", "evaluation.roc_auc", "s", lambda a: a["s"]),
    ("evaluation.audit.s", "evaluation.audit", "s", lambda a: a["s"]),
    ("adversarial.generate_evasive.s", "adversarial.generate_evasive", "s", lambda a: a["s"]),
    ("adversarial.pair_sideinfo.s", "adversarial.pair_sideinfo", "s", lambda a: a["s"]),
    ("cli.cmd_classify.self_s", "cli.cmd_classify", "s", lambda a: a["self_s"]),
    ("cli.cmd_audit.self_s", "cli.cmd_audit", "s", lambda a: a["self_s"]),
)


def layer_metrics(reports: list[tuple[str, dict]], model_shape: tuple[int, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over every command of a traced run.
    ``reports`` pairs each command name with its child's report."""
    merged = _merge([r for _, r in reports])
    out: dict[str, tuple[float, str]] = {}
    for metric, span, unit, value in _SPAN_METRICS:
        if span in merged:
            out[metric] = (float(value(merged[span])), unit)
    out["forest.nodes_total"] = (float(model_shape[0]), "count")
    out["forest.max_depth"] = (float(model_shape[1]), "count")
    shares = (
        ("forest.score_matrix.share_of_classify", "classify", "forest.score_matrix", "cli.cmd_classify"),
        ("forest.best_split.share_of_train", "train", "forest.best_split", "cli.cmd_train"),
    )
    for metric, command, part, whole in shares:
        if part in merged and whole in merged:
            spans = _merge([r for c, r in reports if c == command])
            value = _ratio(spans[part]["s"], spans[whole]["s"]) if spans else 0.0
            out[metric] = (value, "ratio")
    out["trace.spans"] = (float(sum(r["span_count"] for _, r in reports)), "count")
    out["trace.wall_s"] = (sum(r["wall_s"] for _, r in reports), "s")
    out["trace.overhead_s"] = (sum(r["overhead_s"] for _, r in reports), "s")
    return out
