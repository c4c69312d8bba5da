"""Labeled feature vectors of the synthetic datasets, and the arrays that
training, cross-validation and the attack take."""

import numpy as np

from dgadetect.core import Label
from dgadetect.forest import FeatureSet, design_matrix
from dgadetect.ingest import record_vectorizer


def vectorize(examples, geo, codes):
    """Labeled dns+lexical vectors of a dataset's examples."""
    build = record_vectorizer(FeatureSet(dns=True, lexical=True), geo, codes)
    return [build(ex.record, ex.parsed, ex.label) for ex in examples]


def xy(vectors, feature_set):
    """Schema-ordered matrix and int64 labels of labeled vectors."""
    return design_matrix(vectors, feature_set), np.array([v.label for v in vectors], dtype=np.int64)


def donor_rows(vectors):
    """Side-information rows of the DGA vectors: an attack's donor pool."""
    return design_matrix([v for v in vectors if v.label is Label.DGA], FeatureSet(dns=True))
