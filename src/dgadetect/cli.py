"""Operator-facing command surface.

Subcommands: synth, train, classify, evaluate, audit, attack.  Every
command writes a RunManifest next to its outputs recording the exact
inputs, flags and seed that produced them.  Errors go to stderr with a
distinct exit code per error class; data goes to output files only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import adversarial, evaluation, forest, ingest, sideinfo
from .core import Label, SuffixDb
from .errors import DgaDetectError, SchemaMismatchError
from .sideinfo import GeoDb

_EXIT_IO = 3

CONFIG_DIR_ENV = "DGADETECT_CONFIG_DIR"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        while True:
            chunk = fp.read(1 << 20)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path: Path, command: str, args: argparse.Namespace,
                    inputs: list[Path], outputs: list[Path], started: float,
                    stats: dict | None = None, workers: int | None = None) -> Path:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": command,
        "flags": {k: (str(v) if isinstance(v, Path) else v) for k, v in flags.items()},
        "seed": flags.get("seed"),
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None and Path(p).exists()},
        "outputs": {str(p): _sha256(p) for p in outputs if Path(p).exists()},
        "stats": stats or {},
        "elapsed_s": round(time.time() - started, 3),
    }
    if workers is not None:  # the processes that grew each forest's trees
        manifest["workers"] = workers
    path = Path(str(out_path) + ".manifest.json")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


# --flag -> (its file in $DGADETECT_CONFIG_DIR, loader, bundled copy)
_DATA_FILES = {
    "suffixes": ("public_suffixes.txt", SuffixDb.from_file, SuffixDb.bundled),
    "geoip": ("geoip.csv", GeoDb.from_csv, GeoDb.bundled),
    "blacklist": ("blacklist.txt", ingest.Blacklist.from_file, ingest.Blacklist.bundled),
    "whitelist": ("whitelist.txt", ingest.load_whitelist, frozenset),  # none is bundled
}


def _data_file(args, flag: str):
    """The data file behind ``--<flag>``, by one rule for all four: the
    flag's path, else its file in $DGADETECT_CONFIG_DIR when that exists,
    else the bundled copy."""
    filename, load, bundled = _DATA_FILES[flag]
    if getattr(args, flag):
        return load(getattr(args, flag))
    base = os.environ.get(CONFIG_DIR_ENV)
    if base and (Path(base) / filename).exists():
        return load(Path(base) / filename)
    return bundled()


def _labels_path(args) -> Path:
    return Path(args.labels) if args.labels else Path(args.data).with_suffix(".labels.csv")


def _load_labeled_examples(args) -> tuple[list[ingest.LabeledExample], dict]:
    with open(_labels_path(args), encoding="utf-8") as fp:
        labels = ingest.load_labeled_rows(fp)
    examples = []
    stats = ingest.ParseStats()
    unlabeled = 0
    with open(args.data, "rb") as fp:
        for record, parsed in ingest.read_domains(fp, _data_file(args, "suffixes"), stats):
            row = labels.get(parsed.fqdn)
            if row is None:
                unlabeled += 1
                continue
            examples.append(
                ingest.LabeledExample(record=record, parsed=parsed, label=row[0], source=row[1])
            )
    return examples, stats.as_dict() | {"unlabeled": unlabeled}


def _load_ext_scores(args) -> dict[str, float] | None:
    if not args.scores:
        return None
    with open(args.scores, encoding="utf-8") as fp:
        return ingest.load_scores_csv(fp)


def _labeled_matrix(args, feature_set):
    """The schema-ordered matrix and labels of --data's labeled records,
    the country-code table built from their addresses, and the parse
    stats."""
    examples, stats = _load_labeled_examples(args)
    geo = _data_file(args, "geoip")
    codes = sideinfo.build_country_codes(
        sideinfo.observed_countries((ex.record for ex in examples), geo)
    )
    build = ingest.record_vectorizer(feature_set, geo, codes, _load_ext_scores(args))
    X = forest.design_matrix([build(ex.record, ex.parsed) for ex in examples], feature_set)
    return X, np.array([ex.label for ex in examples], dtype=np.int64), codes, stats


def _model_vectorizer(args, model: forest.ForestModel):
    geo = _data_file(args, "geoip") if model.feature_set.dns else None
    return ingest.record_vectorizer(model.feature_set, geo, model.country_codes,
                                    _load_ext_scores(args))


def cmd_synth(args) -> int:
    started = time.time()
    examples = ingest.synth_dataset(args.n_benign, args.n_dga, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data_path = out.with_suffix(".jsonl")
    labels_path = out.with_suffix(".labels.csv")
    with open(data_path, "w", encoding="utf-8") as fp:
        ingest.write_pdns((ex.record for ex in examples), fp)
    with open(labels_path, "w", newline="", encoding="utf-8") as fp:
        ingest.write_labels_csv(examples, fp)
    _write_manifest(out, "synth", args, [], [data_path, labels_path], started)
    print(f"wrote {len(examples)} records to {data_path}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    started = time.time()
    feature_set = forest.FeatureSet.parse(args.features)
    X, y, codes, parse_stats = _labeled_matrix(args, feature_set)
    cfg = forest.TrainConfig(seed=args.seed, target_fpr=args.target_fpr)
    model = forest.train(X, y, feature_set, cfg, country_codes=codes)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    model.save(out)
    _write_manifest(out, "train", args, [Path(args.data), _labels_path(args)],
                    [out], started, stats=parse_stats,
                    workers=forest.worker_count(None, cfg.n_trees))
    print(f"trained {feature_set.id} model ({cfg.n_trees} trees), threshold "
          f"{model.threshold:.6f}, saved to {out}", file=sys.stderr)
    return 0


def _scored_chunks(src, model: forest.ForestModel, suffixes, build, stats: ingest.ParseStats):
    """The one read -> featurize -> score loop of classify and audit: one
    ``(names, scores)`` batch per read of a pDNS byte stream, hundreds of
    records from a file, each record as it arrives from a live pipe.  A
    record that cannot be vectorized raises after the batch before it."""
    for lines in ingest.read_line_chunks(src):
        names, vectors = [], []
        try:
            for record, parsed in ingest.read_domains(lines, suffixes, stats):
                vectors.append(build(record, parsed))
                names.append(parsed.fqdn)
        finally:
            if vectors:
                yield names, model.score_matrix(
                    forest.design_matrix(vectors, model.feature_set)).tolist()


def cmd_classify(args) -> int:
    started = time.time()
    model = forest.ForestModel.load(args.model)
    suffixes = _data_file(args, "suffixes")
    build = _model_vectorizer(args, model)

    src = open(args.data, "rb") if args.data else sys.stdin.buffer
    dst = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    stats = ingest.ParseStats()
    try:
        for names, scores in _scored_chunks(src, model, suffixes, build, stats):
            dst.write("".join(
                json.dumps({
                    "domain": name,
                    "score": score,
                    "verdict": "dga" if score >= model.threshold else "benign",
                }, separators=(",", ":")) + "\n"
                for name, score in zip(names, scores)
            ))
            dst.flush()  # so that inline callers see each batch at once
    finally:
        if args.data:
            src.close()
        if args.out:
            dst.close()
    if args.out:
        _write_manifest(Path(args.out), "classify", args,
                        [Path(args.model)] + ([Path(args.data)] if args.data else []),
                        [Path(args.out)], started, stats=stats.as_dict())
    print(f"classified {stats.parsed - stats.unparseable_names} domains "
          f"({stats.skipped} malformed lines, {stats.unparseable_names} unparseable names)",
          file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    started = time.time()
    feature_set = forest.FeatureSet.parse(args.features)
    X, y, _, parse_stats = _labeled_matrix(args, feature_set)
    cfg = forest.TrainConfig(seed=args.seed, target_fpr=args.target_fpr)
    report = evaluation.cross_validate(X, y, feature_set, cfg, k=args.folds, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report_path = out.with_suffix(".json")
    roc_path = out.with_suffix(".roc.csv")
    report_path.write_text(report.to_json() + "\n", encoding="utf-8")
    with open(roc_path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["fold", "fpr", "tpr"])
        for fold in report.folds:
            for fpr, tpr in fold.roc.points:
                writer.writerow([fold.fold, repr(fpr), repr(tpr)])
    _write_manifest(out, "evaluate", args, [Path(args.data)], [report_path, roc_path], started,
                    stats=parse_stats, workers=forest.worker_count(None, cfg.n_trees))
    print(f"{feature_set.id}: auc={report.auc:.4f} auc@fpr={report.auc_at_fpr:.4f} "
          f"tpr@fpr={report.tpr_at_fpr:.4f}", file=sys.stderr)
    return 0


def cmd_audit(args) -> int:
    started = time.time()
    model = forest.ForestModel.load(args.model)
    suffixes = _data_file(args, "suffixes")
    build = _model_vectorizer(args, model)
    blacklist = _data_file(args, "blacklist").domains
    whitelist = _data_file(args, "whitelist")

    stats = ingest.ParseStats()
    with open(args.data, "rb") as fp:
        report = evaluation.audit(
            ((name, score >= model.threshold)
             for names, scores in _scored_chunks(fp, model, suffixes, build, stats)
             for name, score in zip(names, scores)),
            blacklist, whitelist,
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_json() + "\n", encoding="utf-8")
    _write_manifest(out, "audit", args, [Path(args.model), Path(args.data)], [out], started,
                    stats=stats.as_dict())
    print(report.to_json(), file=sys.stderr)
    return 0


def cmd_attack(args) -> int:
    started = time.time()
    model = forest.ForestModel.load(args.model)
    if model.feature_set.ext:
        raise SchemaMismatchError(
            "attack takes dns, lexical and dns+lexical models only: "
            "the evasive names have no external score for an ext-score model"
        )
    examples, parse_stats = _load_labeled_examples(args)
    codes = model.country_codes
    if codes is None and not model.feature_set.dns:
        codes = sideinfo.build_country_codes([])  # a lexical model never reads the donors' side info
    cfg = adversarial.AttackConfig(
        n_domains=args.n_domains, n_trials=args.trials, seed=args.seed,
        mutation_count=args.mutations,
    )
    seeds = [ex.parsed for ex in examples
             if ex.label is Label.BENIGN and len(ex.parsed.sld) > cfg.mutation_count]
    dns = forest.FeatureSet(dns=True)
    build = ingest.record_vectorizer(dns, _data_file(args, "geoip"), codes)
    donors = forest.design_matrix(
        [build(ex.record, ex.parsed) for ex in examples if ex.label is Label.DGA], dns
    )
    report = adversarial.robustness_eval(
        model, seeds, donors, cfg, collect_flagged=bool(args.flagged_out)
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    outputs = [out]
    out.write_text(report.to_json() + "\n", encoding="utf-8")
    if args.flagged_out:
        with open(args.flagged_out, "w", encoding="utf-8") as fp:
            report.write_flagged_csv(fp)
        outputs.append(Path(args.flagged_out))
    _write_manifest(out, "attack", args, [Path(args.model), Path(args.data)], outputs, started,
                    stats=parse_stats)
    print(f"detection rate: {report.mean:.2%} +/- {report.stddev:.2%}", file=sys.stderr)
    return 0


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``, so that an
    out-of-range value is a usage error (exit 2) that names its flag."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    return integer


def _rate(text: str) -> float:
    """An argparse type: a false-positive rate in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgadetect",
        description="Inline DGA detection: synth, train, classify, evaluate, audit, attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count, seed = _int_at_least(1), _int_at_least(0)

    def add_common(p, *, geoip=True, suffixes=True):
        if suffixes:
            p.add_argument("--suffixes", help="public suffix list file (default: bundled)")
        if geoip:
            p.add_argument("--geoip", help="GeoIP fixture CSV (default: bundled)")

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--n-benign", type=count, default=1000)
    p.add_argument("--n-dga", type=count, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path stem")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a forest on labeled pDNS data")
    p.add_argument("--data", required=True, help="pDNS JSONL file")
    p.add_argument("--labels", help="labels CSV (default: <data>.labels.csv)")
    p.add_argument("--features", default="dns+lexical",
                   help="dns | lexical | dns+lexical, optionally +ext-score")
    p.add_argument("--scores", help="external score sidecar CSV (domain,score)")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--target-fpr", type=_rate, default=0.001)
    p.add_argument("--out", required=True, help="model file")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="stream verdicts for pDNS records")
    p.add_argument("--model", required=True)
    p.add_argument("--data", help="pDNS JSONL file (default: stdin)")
    p.add_argument("--scores", help="external score sidecar CSV for hybrid models")
    p.add_argument("--out", help="verdict JSONL file (default: stdout)")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="stratified cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--labels")
    p.add_argument("--features", default="dns+lexical")
    p.add_argument("--scores")
    p.add_argument("--folds", type=_int_at_least(2), default=5)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--target-fpr", type=_rate, default=0.001)
    p.add_argument("--out", required=True, help="report path stem")
    add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("audit", help="score traffic against blacklist/whitelist")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--blacklist")
    p.add_argument("--whitelist")
    p.add_argument("--scores")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("attack", help="adversarial robustness protocol")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="labeled pDNS data for seed + donor pools")
    p.add_argument("--labels")
    p.add_argument("--trials", type=count, default=5)
    p.add_argument("--n-domains", type=count, default=1000)
    p.add_argument("--mutations", type=count, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--flagged-out", help="optional CSV of per-trial flagged domains")
    add_common(p)
    p.set_defaults(func=cmd_attack)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DgaDetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
