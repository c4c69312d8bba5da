"""Inline DGA detection from resolved DNS traffic."""

from .core import DnsRecord, FeatureVector, Label, ParsedDomain, SuffixDb, parse_domain
from .forest import FeatureSet, ForestModel, TrainConfig, train
from .lexical import LEXICAL_FEATURES, LexicalFeatures, extract_lexical
from .sideinfo import (
    SIDEINFO_FEATURES,
    CountryCodes,
    GeoDb,
    SideInfoFeatures,
    build_country_codes,
    extract_sideinfo,
)

__version__ = "0.1.0"

__all__ = [
    "DnsRecord",
    "FeatureVector",
    "Label",
    "ParsedDomain",
    "SuffixDb",
    "parse_domain",
    "FeatureSet",
    "ForestModel",
    "TrainConfig",
    "train",
    "LEXICAL_FEATURES",
    "LexicalFeatures",
    "extract_lexical",
    "SIDEINFO_FEATURES",
    "CountryCodes",
    "GeoDb",
    "SideInfoFeatures",
    "build_country_codes",
    "extract_sideinfo",
    "__version__",
]
