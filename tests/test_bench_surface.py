"""The benchmark under ``bench/`` imports program names and traces others.

``bench/spans.py`` skips a traced function the program no longer defines,
and ``bench/layers.py`` then drops its per-layer metric without an error,
so a traced run still exits 0 but reports fewer metrics than
BENCHMARK.json declares.  These tests make such a removal fail here.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        importlib.import_module("workloads")  # fails if a name it imports is gone
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_target_is_defined(spans):
    missing = []
    for span, module, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # the same lookup Tracer.install does
        if owner is None or vars(owner).get(attr) is None:
            missing.append(span)
    assert not missing, (
        f"bench/spans.py traces {missing}, which the program no longer defines; "
        "removing or renaming a traced function needs its own benchmark change first"
    )
