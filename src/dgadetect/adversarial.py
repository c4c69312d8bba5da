"""Evasion-domain generation and the randomized robustness protocol.

The attack pairs evasive domains (benign names with a couple of character
substitutions, so they read like legitimate traffic) with side-information
blocks sampled from real DGA rows, then reports how often a model still
flags them.  The domain list is generated once and held fixed; only the
side-information sampling varies across trials.  Evasive names have no
external score, so the protocol applies only to models without the
ext-score block.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FeatureVector, ParsedDomain
from .errors import PoolTooSmallError, SchemaMismatchError, SeedTooShortError
from .forest import FeatureSet, ForestModel, design_matrix
from .lexical import extract_lexical

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
_GENERATOR = "char-substitution"  # the only generator; attack reports name it


@dataclass(frozen=True)
class AttackConfig:
    n_domains: int = 1000
    n_trials: int = 5
    seed: int = 0
    mutation_count: int = 2

    def __post_init__(self):
        if self.n_domains <= 0:
            raise ValueError("n_domains must be positive")
        if self.n_trials <= 0:
            raise ValueError("n_trials must be positive")
        if self.mutation_count <= 0:
            raise ValueError("mutation_count must be positive")


def _char_substitution(seeds: Sequence[ParsedDomain], cfg: AttackConfig) -> list[ParsedDomain]:
    rng = random.Random(cfg.seed)
    pool = {d.fqdn for d in seeds}
    out: list[ParsedDomain] = []
    for _ in range(cfg.n_domains):
        while True:
            donor = rng.choice(seeds)
            chars = list(donor.sld)
            for pos in rng.sample(range(len(chars)), cfg.mutation_count):
                chars[pos] = rng.choice(_ALPHABET.replace(chars[pos], ""))
            candidate = ParsedDomain(sld="".join(chars), tld=donor.tld)
            if candidate.fqdn not in pool:
                break
        out.append(candidate)
    return out


def generate_evasive(seeds: Sequence[ParsedDomain], cfg: AttackConfig) -> list[ParsedDomain]:
    """Evasive domains derived from a benign seed pool.

    Each output takes a uniformly chosen seed and replaces
    ``cfg.mutation_count`` distinct SLD positions with different
    characters from [a-z0-9]; the TLD is preserved and outputs never
    collide with the seed pool.  Deterministic under cfg.seed.

    Raises SeedTooShortError when any seed SLD cannot absorb the
    mutations.
    """
    if not seeds:
        raise ValueError("seed pool must be non-empty")
    short = [d.fqdn for d in seeds if len(d.sld) <= cfg.mutation_count]
    if short:
        raise SeedTooShortError(
            f"{len(short)} seed SLDs are too short for {cfg.mutation_count} mutations "
            f"(first: {short[0]})"
        )
    return _char_substitution(seeds, cfg)


def pair_sideinfo(
    lexical: np.ndarray,
    donors: np.ndarray,
    trial_seed: int,
    feature_set: FeatureSet,
) -> np.ndarray:
    """One trial's matrix for the evasive names, in ``feature_set``'s
    schema order.

    Row i pairs name i's lexical row with the side-information row of a
    donor drawn without replacement from ``donors``, the DGA pool's
    side-information rows.  Deterministic under trial_seed.
    """
    if len(donors) < len(lexical):
        raise PoolTooSmallError(
            f"pool of {len(donors)} cannot cover {len(lexical)} domains"
        )
    picks = random.Random(trial_seed).sample(range(len(donors)), len(lexical))
    blocks = []
    if feature_set.dns:
        blocks.append(donors[picks])
    if feature_set.lexical:
        blocks.append(lexical)
    return np.hstack(blocks)


@dataclass(frozen=True)
class RobustnessReport:
    """Detection rates over the randomized trials.

    ``flagged`` holds the per-trial lists of flagged domains when the
    evaluation was asked to collect them.
    """

    rates: tuple[float, ...]
    mean: float
    stddev: float
    config: AttackConfig
    flagged: tuple[tuple[str, ...], ...] | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "generator": _GENERATOR,
                "n_domains": self.config.n_domains,
                "n_trials": self.config.n_trials,
                "seed": self.config.seed,
                "mutation_count": self.config.mutation_count,
                "rates": list(self.rates),
                "mean": self.mean,
                "stddev": self.stddev,
            },
            indent=2,
            sort_keys=True,
        )

    def write_flagged_csv(self, fp) -> None:
        if self.flagged is None:
            raise ValueError("evaluation did not collect flagged domains")
        fp.write("trial,domain\n")
        for trial, domains in enumerate(self.flagged):
            for domain in domains:
                fp.write(f"{trial},{domain}\n")


def _trial_seed(seed: int, trial: int) -> int:
    # fixed arithmetic derivation keeps trials independent of scheduling
    return seed * 1_000_003 + trial + 1


def robustness_eval(
    model: ForestModel,
    seeds: Sequence[ParsedDomain],
    donors: np.ndarray,
    cfg: AttackConfig = AttackConfig(),
    *,
    collect_flagged: bool = False,
) -> RobustnessReport:
    """Run the full protocol: generate once, re-pair side information from
    the donor rows per trial, score at the model's calibrated threshold,
    and report the mean and population standard deviation of the
    per-trial detection rates.
    """
    if model.feature_set.ext:
        raise SchemaMismatchError("evasive names have no external score")
    domains = generate_evasive(seeds, cfg)
    lexical = design_matrix([FeatureVector(lexical=extract_lexical(d)) for d in domains],
                            FeatureSet(lexical=True))
    rates = []
    flagged: list[tuple[str, ...]] = []
    for trial in range(cfg.n_trials):
        X = pair_sideinfo(lexical, donors, _trial_seed(cfg.seed, trial), model.feature_set)
        hits = model.score_matrix(X) >= model.threshold
        rates.append(float(hits.mean()))
        if collect_flagged:
            flagged.append(tuple(d.fqdn for d, h in zip(domains, hits) if h))
    # statistics uses exact rational arithmetic internally, so identical
    # per-trial rates yield a stddev of exactly zero
    mean = float(statistics.mean(rates))
    stddev = float(statistics.pstdev(rates))
    return RobustnessReport(
        rates=tuple(rates),
        mean=mean,
        stddev=stddev,
        config=cfg,
        flagged=tuple(flagged) if collect_flagged else None,
    )
