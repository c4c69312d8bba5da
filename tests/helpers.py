"""Feature vectors of the synthetic datasets, and the arrays that
training, cross-validation and the attack take."""

import numpy as np

from dgadetect.core import Label
from dgadetect.forest import FeatureSet, design_matrix
from dgadetect.ingest import record_vectorizer


def vectorize(examples, geo, codes):
    """dns+lexical vectors of a dataset's examples, in example order."""
    build = record_vectorizer(FeatureSet(dns=True, lexical=True), geo, codes)
    return [build(ex.record, ex.parsed) for ex in examples]


def xy(examples, vectors, feature_set):
    """Schema-ordered matrix of the examples' vectors and the examples'
    int64 labels."""
    return design_matrix(vectors, feature_set), np.array([ex.label for ex in examples], dtype=np.int64)


def donor_rows(examples, vectors):
    """Side-information rows of the DGA examples' vectors: an attack's
    donor pool."""
    return design_matrix([v for ex, v in zip(examples, vectors) if ex.label is Label.DGA],
                         FeatureSet(dns=True))
