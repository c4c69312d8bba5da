import random

import numpy as np
import pytest

from dgadetect.adversarial import (
    AttackConfig,
    generate_evasive,
    pair_sideinfo,
    robustness_eval,
)
from dgadetect.core import FeatureVector, Label, ParsedDomain
from dgadetect.errors import PoolTooSmallError, SchemaMismatchError, SeedTooShortError
from dgadetect.forest import FeatureSet
from dgadetect.lexical import extract_lexical
from dgadetect.sideinfo import SIDEINFO_FEATURES
from helpers import donor_rows


def _seed_pool():
    return [
        ParsedDomain("googleplex", "com"),
        ParsedDomain("exampleshop", "net"),
        ParsedDomain("binarytrees", "org"),
        ParsedDomain("quietriver", "io"),
    ]


def test_mechanical_substitution():
    # fixing the donor and positions by hand: "google" with positions
    # {1, 4} replaced by {x, q} reads "gxogqe"
    chars = list("google")
    for pos, ch in ((1, "x"), (4, "q")):
        chars[pos] = ch
    assert "".join(chars) == "gxogqe"


def test_generate_deterministic():
    cfg = AttackConfig(n_domains=50, seed=12)
    a = generate_evasive(_seed_pool(), cfg)
    b = generate_evasive(_seed_pool(), cfg)
    assert a == b
    c = generate_evasive(_seed_pool(), AttackConfig(n_domains=50, seed=13))
    assert a != c


def test_generate_edit_distance_exact():
    pool = _seed_pool()
    cfg = AttackConfig(n_domains=200, seed=3, mutation_count=2)
    by_sld = {}
    for d in pool:
        by_sld.setdefault(len(d.sld), []).append(d)
    for out in generate_evasive(pool, cfg):
        donors = [d for d in pool if d.tld == out.tld and len(d.sld) == len(out.sld)]
        distances = [sum(a != b for a, b in zip(out.sld, d.sld)) for d in donors]
        assert cfg.mutation_count in distances


def test_generate_preserves_tld_and_charset():
    pool = _seed_pool()
    tlds = {d.tld for d in pool}
    for out in generate_evasive(pool, AttackConfig(n_domains=100, seed=4)):
        assert out.tld in tlds
        assert set(out.sld) <= set("abcdefghijklmnopqrstuvwxyz0123456789")


def test_generate_avoids_seed_pool():
    pool = _seed_pool()
    fqdns = {d.fqdn for d in pool}
    for out in generate_evasive(pool, AttackConfig(n_domains=200, seed=5)):
        assert out.fqdn not in fqdns


def test_generate_seed_too_short():
    pool = [ParsedDomain("ab", "com")]
    with pytest.raises(SeedTooShortError):
        generate_evasive(pool, AttackConfig(n_domains=5, seed=1, mutation_count=2))


def test_generate_empty_pool():
    with pytest.raises(ValueError):
        generate_evasive([], AttackConfig(n_domains=5, seed=1))


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(n_domains=0)
    with pytest.raises(ValueError):
        AttackConfig(n_trials=0)


BOTH = FeatureSet.parse("dns+lexical")
N_SIDEINFO = len(SIDEINFO_FEATURES)


def _lexical_rows(domains):
    return np.array([list(extract_lexical(d).as_dict().values()) for d in domains])


def test_pair_exact_pool_is_permutation(small_dataset):
    examples, vectors, _ = small_dataset
    domains = generate_evasive(_seed_pool(), AttackConfig(n_domains=40, seed=6))
    pool = donor_rows(examples, vectors)[:40]
    paired = pair_sideinfo(_lexical_rows(domains), pool, trial_seed=1, feature_set=BOTH)
    used = paired[:, :N_SIDEINFO]
    assert len(used) == 40
    # without replacement, full cover
    assert sorted(map(tuple, used.tolist())) == sorted(map(tuple, pool.tolist()))
    assert np.array_equal(used, pool[random.Random(1).sample(range(40), 40)])


def test_pair_trial_seeds_differ(small_dataset):
    examples, vectors, _ = small_dataset
    domains = generate_evasive(_seed_pool(), AttackConfig(n_domains=30, seed=6))
    lexical, pool = _lexical_rows(domains), donor_rows(examples, vectors)
    a = pair_sideinfo(lexical, pool, trial_seed=1, feature_set=BOTH)
    b = pair_sideinfo(lexical, pool, trial_seed=2, feature_set=BOTH)
    assert not np.array_equal(a[:, :N_SIDEINFO], b[:, :N_SIDEINFO])
    assert np.array_equal(pair_sideinfo(lexical, pool, trial_seed=1, feature_set=BOTH), a)


def test_pair_recomputes_lexical(small_dataset):
    examples, vectors, _ = small_dataset
    domains = generate_evasive(_seed_pool(), AttackConfig(n_domains=10, seed=7))
    lexical, pool = _lexical_rows(domains), donor_rows(examples, vectors)
    paired = pair_sideinfo(lexical, pool, trial_seed=3, feature_set=BOTH)
    # the lexical columns are the evasive names' own, in name order
    assert np.array_equal(paired[:, N_SIDEINFO:], lexical)
    assert paired.shape == (10, len(BOTH.feature_names()))
    lexical_only = pair_sideinfo(lexical, pool, trial_seed=3, feature_set=FeatureSet.parse("lexical"))
    assert np.array_equal(lexical_only, lexical)
    dns_only = pair_sideinfo(lexical, pool, trial_seed=3, feature_set=FeatureSet.parse("dns"))
    assert np.array_equal(dns_only, paired[:, :N_SIDEINFO])


def test_pair_pool_too_small(small_dataset):
    examples, vectors, _ = small_dataset
    domains = generate_evasive(_seed_pool(), AttackConfig(n_domains=50, seed=8))
    with pytest.raises(PoolTooSmallError):
        pair_sideinfo(_lexical_rows(domains), donor_rows(examples, vectors)[:10], trial_seed=1, feature_set=BOTH)


def test_pair_requires_sideinfo(small_dataset):
    # donor rows come from design_matrix, which refuses a vector without side information
    dga = [next(e for e in small_dataset[0] if e.label is Label.DGA)]
    bare = [FeatureVector(lexical=extract_lexical(ParsedDomain("donordomain", "com")))]
    with pytest.raises(SchemaMismatchError):
        donor_rows(dga, bare)


class _FlagEverything:
    threshold = 0.5
    feature_set = FeatureSet.parse("lexical")

    def score_matrix(self, X):
        return np.ones(len(X))


class _FlagNothing:
    threshold = 0.5
    feature_set = FeatureSet.parse("lexical")

    def score_matrix(self, X):
        return np.zeros(len(X))


def test_robustness_flag_everything(small_dataset):
    examples, vectors, _ = small_dataset
    report = robustness_eval(
        _FlagEverything(), _seed_pool(), donor_rows(examples, vectors), AttackConfig(n_domains=20, seed=1)
    )
    assert report.mean == 1.0
    assert report.stddev == 0.0
    assert report.rates == (1.0,) * 5


def test_robustness_constant_rates_stddev_zero(small_dataset):
    examples, vectors, _ = small_dataset
    report = robustness_eval(
        _FlagNothing(), _seed_pool(), donor_rows(examples, vectors), AttackConfig(n_domains=20, seed=1)
    )
    assert report.mean == 0.0 and report.stddev == 0.0


def test_robustness_lexical_model_stddev_exactly_zero(small_dataset, small_models):
    examples, vectors, _ = small_dataset
    report = robustness_eval(
        small_models["lexical"],
        _seed_pool(),
        donor_rows(examples, vectors),
        AttackConfig(n_domains=100, n_trials=5, seed=2),
    )
    assert len(set(report.rates)) == 1  # side info ignored, trials identical
    assert report.stddev == 0.0
    assert report.mean == report.rates[0]


def test_robustness_deterministic(small_dataset, small_models):
    examples, vectors, _ = small_dataset
    cfg = AttackConfig(n_domains=60, n_trials=3, seed=9)
    a = robustness_eval(small_models["dns+lexical"], _seed_pool(), donor_rows(examples, vectors), cfg)
    b = robustness_eval(small_models["dns+lexical"], _seed_pool(), donor_rows(examples, vectors), cfg)
    assert a == b


def test_robustness_collect_flagged(small_dataset, small_models):
    examples, vectors, _ = small_dataset
    cfg = AttackConfig(n_domains=50, n_trials=2, seed=16)
    report = robustness_eval(
        small_models["dns+lexical"], _seed_pool(), donor_rows(examples, vectors), cfg, collect_flagged=True
    )
    assert report.flagged is not None and len(report.flagged) == 2
    for rate, domains in zip(report.rates, report.flagged):
        assert len(domains) == round(rate * 50)
    plain = robustness_eval(small_models["dns+lexical"], _seed_pool(), donor_rows(examples, vectors), cfg)
    assert plain.flagged is None
    assert plain.rates == report.rates


def test_robustness_report_consistency(small_dataset, small_models):
    examples, vectors, _ = small_dataset
    report = robustness_eval(
        small_models["dns+lexical"], _seed_pool(), donor_rows(examples, vectors),
        AttackConfig(n_domains=80, n_trials=5, seed=10),
    )
    assert all(0.0 <= r <= 1.0 for r in report.rates)
    assert min(report.rates) <= report.mean <= max(report.rates)
    recomputed = sum(report.rates) / len(report.rates)
    assert report.mean == pytest.approx(recomputed, abs=1e-12)
