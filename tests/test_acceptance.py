"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` to get one line per
criterion.  The heavier fixtures (the 5,000+5,000 synthetic dataset and
the models trained on it) are shared across criteria.
"""

import io
import random
import statistics
import string
import time

import numpy as np
import pytest

from dgadetect.core import FeatureVector, Label, ParsedDomain, SuffixDb
from dgadetect.adversarial import AttackConfig, robustness_eval
from dgadetect.evaluation import cross_validate, partial_auc, roc_auc
from dgadetect.forest import FeatureSet, ForestModel, TrainConfig, design_matrix, entropy, train
from dgadetect.ingest import (
    Blacklist,
    benign_filter,
    read_pdns,
    synth_dataset,
    write_pdns,
)
from dgadetect.lexical import LEXICAL_FEATURES, extract_lexical, ngram_circle_median
from dgadetect.sideinfo import GeoDb, build_country_codes, observed_countries
from helpers import donor_rows, vectorize, xy
from oracles import oracle_auc, oracle_grow_tree, oracle_lexical, oracle_ngram_median, oracle_tree_predict


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status} {criterion}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def big_dataset():
    """5,000 + 5,000 examples at seed 42, vectorized once."""
    examples = synth_dataset(5000, 5000, seed=42)
    geo = GeoDb.bundled()
    codes = build_country_codes(observed_countries((e.record for e in examples), geo))
    vectors = vectorize(examples, geo, codes)
    return examples, vectors, codes


@pytest.fixture(scope="module")
def big_models(big_dataset):
    _, vectors, codes = big_dataset
    cfg = TrainConfig(n_trees=100, seed=42)
    feature_sets = {spec: FeatureSet.parse(spec) for spec in ("lexical", "dns", "dns+lexical")}
    return {spec: train(*xy(vectors, fs), fs, cfg, country_codes=codes)
            for spec, fs in feature_sets.items()}


def _random_domains(n: int, seed: int) -> list[ParsedDomain]:
    rng = random.Random(seed)
    tlds = ["com", "net", "org", "biz", "co.uk", "info", "top", "cf", "io", "de"]
    out = []
    for _ in range(n):
        length = rng.randint(1, 30)
        chars = [rng.choice(string.ascii_lowercase + "0123456789") for _ in range(length)]
        if length > 2 and rng.random() < 0.25:
            chars[rng.randint(1, length - 2)] = "-"
        out.append(ParsedDomain("".join(chars), rng.choice(tlds)))
    return out


def test_c1_lexical_oracle_equivalence():
    """Criterion 1: all 26 features match the independent reference on
    1,000 random valid domains; ints exact, reals to 1e-9; under 10 s."""
    started = time.monotonic()
    mismatches = []
    for d in _random_domains(1000, seed=1234):
        got = extract_lexical(d).as_dict()
        want = oracle_lexical(d.sld, d.tld)
        for name in LEXICAL_FEATURES:
            if isinstance(want[name], int):
                if got[name] != want[name]:
                    mismatches.append((d.fqdn, name))
            elif abs(got[name] - want[name]) > 1e-9:
                mismatches.append((d.fqdn, name))
    elapsed = time.monotonic() - started
    ok = not mismatches and elapsed < 10.0
    _report("criterion 1: lexical oracle equivalence", ok, f"{elapsed:.2f}s, {len(mismatches)} mismatches")
    assert not mismatches
    assert elapsed < 10.0


def test_c2_known_lexical_values():
    """Criterion 2: published known values hold exactly."""
    google = extract_lexical(ParsedDomain("google", "com"))
    aaaa = extract_lexical(ParsedDomain("aaaa", "com"))
    abcd = extract_lexical(ParsedDomain("abcd", "com"))
    checks = [
        google.domain_len == 10,
        aaaa.ent == 0.0 and aaaa.gni == 0.0 and aaaa.cer == 0.0,
        abs(abcd.gni - 0.75) < 1e-12 and abs(abcd.cer - 0.75) < 1e-12,
        # the circle median doubles the SLD before taking the median
        ngram_circle_median("yahoo", 3) == oracle_ngram_median("yahooyahoo", 3) == 2.0,
        extract_lexical(ParsedDomain("yahoo", "com")).gram3_cmed
        == ngram_circle_median("yahoo", 3),
    ]
    ok = all(checks)
    _report("criterion 2: known lexical values", ok)
    assert ok


def test_c3_forest_oracle_equivalence():
    """Criterion 3: a 1-tree forest with the full feature set and no
    bootstrap equals the exhaustive reference tree on 5 random 200-row
    datasets; entropy(3,1) known value."""
    assert entropy((3, 1)) == pytest.approx(0.8113, abs=1e-4)

    fs = FeatureSet.parse("lexical")
    d = len(fs.feature_names())
    failures = 0
    for trial in range(5):
        rng = random.Random(500 + trial)
        domains = _random_domains(200, seed=900 + trial)
        labels = [rng.randint(0, 1) for _ in range(200)]
        labels[0], labels[1] = 0, 1
        X = design_matrix([FeatureVector(lexical=extract_lexical(dom)) for dom in domains], fs)
        cfg = TrainConfig(n_trees=1, bootstrap=False, features_per_tree=d, seed=trial)
        model = train(X, np.array(labels), fs, cfg)
        reference = oracle_grow_tree(X.tolist(), labels, list(range(d)))
        got = model.score_matrix(X)
        want = np.array([oracle_tree_predict(reference, row) for row in X.tolist()])
        if not np.array_equal(got, want):
            failures += 1
    ok = failures == 0
    _report("criterion 3: forest vs exhaustive reference tree", ok, f"{failures} of 5 datasets diverged")
    assert ok


def test_c4_metric_oracles():
    """Criterion 4: trapezoid AUC equals pair counting on 50 random sets;
    partial_auc at 1.0 equals AUC; inverted perfect separator has AUC 0."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 201))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        curve, auc = roc_auc(scores, labels)
        worst = max(worst, abs(auc - oracle_auc(scores.tolist(), labels.tolist())))
        worst = max(worst, abs(partial_auc(curve, 1.0) - auc))
    _, inverted = roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1])
    ok = worst <= 1e-9 and inverted == 0.0
    _report("criterion 4: metric oracles", ok, f"worst |delta|={worst:.2e}")
    assert worst <= 1e-9
    assert inverted == 0.0


def test_c5_end_to_end_synthetic_reproduction(big_dataset):
    """Criterion 5: 5-fold CV on synth(5000, 5000, seed=42): the combined
    model clears TPR@0.1%FPR >= 0.95 and AUC >= 0.99 and strictly beats
    the side-information-only model on both; under 5 minutes."""
    _, vectors, _ = big_dataset
    started = time.monotonic()
    cfg = TrainConfig(n_trees=100, seed=42)
    both, dns = FeatureSet.parse("dns+lexical"), FeatureSet.parse("dns")
    combined = cross_validate(*xy(vectors, both), both, cfg, k=5, seed=42)
    dns_only = cross_validate(*xy(vectors, dns), dns, cfg, k=5, seed=42)
    elapsed = time.monotonic() - started
    ok = (
        combined.tpr_at_fpr >= 0.95
        and combined.auc >= 0.99
        and combined.tpr_at_fpr > dns_only.tpr_at_fpr
        and combined.auc > dns_only.auc
        and elapsed < 300.0
    )
    _report(
        "criterion 5: end-to-end synthetic reproduction",
        ok,
        f"combined tpr={combined.tpr_at_fpr:.4f} auc={combined.auc:.5f} | "
        f"dns tpr={dns_only.tpr_at_fpr:.4f} auc={dns_only.auc:.5f} | {elapsed:.0f}s",
    )
    assert combined.tpr_at_fpr >= 0.95
    assert combined.auc >= 0.99
    assert combined.tpr_at_fpr > dns_only.tpr_at_fpr
    assert combined.auc > dns_only.auc
    assert elapsed < 300.0


def test_c6_robustness_protocol(big_dataset, big_models):
    """Criterion 6: the 1,000-domain, 5-trial attack is deterministic
    under seed, the lexical-only model has exactly zero spread, and the
    combined model detects at least as much."""
    examples, vectors, _ = big_dataset
    seeds = [e.parsed for e in examples if e.label is Label.BENIGN and len(e.parsed.sld) > 2]
    pool = donor_rows(vectors)
    cfg = AttackConfig(n_domains=1000, n_trials=5, seed=606)

    lexical_a = robustness_eval(big_models["lexical"], seeds, pool, cfg)
    lexical_b = robustness_eval(big_models["lexical"], seeds, pool, cfg)
    combined = robustness_eval(big_models["dns+lexical"], seeds, pool, cfg)
    dns_only = robustness_eval(big_models["dns"], seeds, pool, cfg)

    ok = (
        lexical_a == lexical_b
        and lexical_a.stddev == 0.0
        and len(set(lexical_a.rates)) == 1
        and combined.mean >= lexical_a.mean
        and combined.mean >= dns_only.mean
    )
    _report(
        "criterion 6: robustness protocol",
        ok,
        f"lexical={lexical_a.mean:.2%}+/-{lexical_a.stddev:.2%} "
        f"combined={combined.mean:.2%}+/-{combined.stddev:.2%} "
        f"dns={dns_only.mean:.2%}+/-{dns_only.stddev:.2%}",
    )
    assert lexical_a == lexical_b
    assert lexical_a.stddev == 0.0
    assert combined.mean >= lexical_a.mean
    assert combined.mean >= dns_only.mean


# Hand-labeled corpus: 10 domains violating distinct heuristics, 20 passing.
FILTER_CORPUS = [
    ("exam_ple.com", False),
    ("perfectlygood.zzz", False),
    ("1234-5678.com", False),
    ("a" * 30 + ".a.a.a.com", False),
    ("q" * 64 + "." + "r" * 64 + "." + "s" * 64 + "." + "t" * 64 + ".com", False),
    ("v" * 65 + ".com", False),
    ("tencharsxx.co.uk", False),
    ("deepwater.deepwater.com", False),
    ("xn--mnchen-3ya.com", False),
    ("qwertzuiop.com", False),
    ("examples.com", True),
    ("wikipedia.org", True),
    ("cloudfront.net", True),
    ("strawberryfields.com", True),
    ("openstreetmap.org", True),
    ("quietriver.io", True),
    ("binarytrees.org", True),
    ("weatherstation.net", True),
    ("mountainview.de", True),
    ("photogallery.fr", True),
    ("watermelonfarm.co.uk", True),
    ("engineering.edu", True),
    ("blueharbor.info", True),
    ("sunflower42.net", True),
    ("www.stratosphericmaps.com", True),
    ("forum.extraordinarycarpentry.org", True),
    ("royalbotanicgardens.co.uk", True),
    ("deep-sea-exploration.net", True),
    ("7seasnavigation.com", True),
    ("goldenratio1618.biz", True),
]

# each rejected domain trips this heuristic (among possibly others)
FILTER_TARGETED_RULES = [
    "valid_chars",
    "valid_suffix",
    "not_all_digits",
    "max_labels",
    "max_length",
    "label_length",
    "label_tld_ratio",
    "label_dominance",
    "no_idn",
    "not_blacklisted",
]


def test_c7_benign_filter_corpus():
    """Criterion 7: 30-domain curated corpus classifies with zero
    disagreements against the hand labels."""
    db = SuffixDb.bundled()
    bl = Blacklist.bundled()
    disagreements = []
    for fqdn, expected in FILTER_CORPUS:
        if benign_filter(fqdn, db, bl).passed is not expected:
            disagreements.append(fqdn)
    # the ten rejects each trip their targeted rule
    targeted_ok = all(
        rule in benign_filter(fqdn, db, bl).failures()
        for (fqdn, _), rule in zip(FILTER_CORPUS[:10], FILTER_TARGETED_RULES)
    )
    ok = not disagreements and targeted_ok
    _report("criterion 7: benign filter corpus", ok, f"{len(disagreements)} disagreements")
    assert not disagreements
    assert targeted_ok


def test_c8_determinism_and_roundtrips(tmp_path):
    """Criterion 8: identical model bytes across runs and thread counts;
    model file and pDNS JSONL round-trip byte-exactly."""
    examples = synth_dataset(250, 250, seed=88)
    geo = GeoDb.bundled()
    codes = build_country_codes(observed_countries((e.record for e in examples), geo))
    vectors = vectorize(examples, geo, codes)
    cfg = TrainConfig(n_trees=30, seed=88)
    fs = FeatureSet.parse("dns+lexical")

    X, y = xy(vectors, fs)
    run_a = train(X, y, fs, cfg, country_codes=codes).to_json_bytes()
    run_b = train(X, y, fs, cfg, country_codes=codes).to_json_bytes()
    threaded = train(X, y, fs, cfg, country_codes=codes, n_jobs=4).to_json_bytes()

    path = tmp_path / "model.json"
    path.write_bytes(run_a)
    reloaded = ForestModel.load(path).to_json_bytes()

    buf = io.StringIO()
    write_pdns((e.record for e in examples), buf)
    stream = buf.getvalue()
    buf2 = io.StringIO()
    write_pdns(read_pdns(io.StringIO(stream)), buf2)

    ok = run_a == run_b == threaded == reloaded and buf2.getvalue() == stream
    _report("criterion 8: determinism and round-trips", ok)
    assert run_a == run_b
    assert run_a == threaded
    assert run_a == reloaded
    assert buf2.getvalue() == stream


def test_c9_synthetic_ttl_medians():
    """Criterion 9: generated TTL medians hit 3600 s (benign) and 900 s
    (DGA) exactly for odd sample counts."""
    ok = True
    for n, seed in ((101, 3), (1001, 4), (33, 5)):
        examples = synth_dataset(n, n, seed=seed)
        benign = statistics.median(e.record.ttl for e in examples if e.label is Label.BENIGN)
        dga = statistics.median(e.record.ttl for e in examples if e.label is Label.DGA)
        ok = ok and benign == 3600 and dga == 900
    _report("criterion 9: synthetic TTL medians", ok)
    assert ok
