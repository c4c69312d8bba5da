import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dgadetect.core import SuffixDb
from dgadetect.forest import FeatureSet, TrainConfig, train
from dgadetect.ingest import synth_dataset
from dgadetect.sideinfo import GeoDb, build_country_codes, observed_countries
from helpers import vectorize, xy


@pytest.fixture(scope="session")
def suffix_db() -> SuffixDb:
    return SuffixDb.bundled()


@pytest.fixture(scope="session")
def geo() -> GeoDb:
    return GeoDb.bundled()


@pytest.fixture(scope="session")
def small_dataset(geo):
    """301+301 synthetic examples with extracted vectors, shared by the
    model-level tests."""
    examples = synth_dataset(301, 301, seed=9)
    codes = build_country_codes(observed_countries((e.record for e in examples), geo))
    vectors = vectorize(examples, geo, codes)
    return examples, vectors, codes


@pytest.fixture(scope="session")
def small_models(small_dataset):
    _, vectors, codes = small_dataset
    cfg = TrainConfig(n_trees=15, seed=4)
    feature_sets = {spec: FeatureSet.parse(spec) for spec in ("lexical", "dns", "dns+lexical")}
    return {spec: train(*xy(vectors, fs), fs, cfg, country_codes=codes)
            for spec, fs in feature_sets.items()}
