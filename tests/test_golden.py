"""Fixed SHA-256 digests of every output a small seeded run writes.

One dataset, ``synth(300, 300, seed=42)``, goes through the CLI: a
dns+lexical model of 10 trees, its verdicts on the same records, a 3-fold
evaluation report with its ROC CSV, and an attack report with its flagged
domains.  The design matrix of that dataset is pinned too.

The digests were recorded before any refactor of the paths that write
these bytes.  A change that moves one must say why in CHANGES.md; a
digest is never re-recorded just to make this test pass.
"""

import functools
import hashlib

import pytest

from dgadetect import forest, ingest
from dgadetect.cli import main
from dgadetect.sideinfo import GeoDb, build_country_codes, observed_countries
from helpers import vectorize

SEED = 42
N_PER_CLASS = 300
N_TREES = 10
TARGET_FPR = 0.05  # flags enough rows that verdicts and attack rates vary

GOLDEN = {
    "data.jsonl": "19fc94f5f1d5b42ef6582a2555629770ac21d1417650f91337f4d13b2f93646c",
    "data.labels.csv": "ed8e6c4b106a1e038b15feaffcd5a8373652acefa07f038db51fa45febe7b062",
    "model.json": "4b51ee46f5319e889bb6e801a050cfb350eaeb64e517e11ceb2584d140f11222",
    "verdicts.jsonl": "44a2bd490f2f8df7c7100baaf414543bd40f8ba4ef70acc8e055d7363090d9df",
    "eval.json": "e353d367791977eaf15a373d6969bd62bd6718d686235c9a8bd0352113d5d4b2",
    "eval.roc.csv": "63114798462dc174f7b1e8c4fceab3c78cf49e866f82ebd145fa2f7619a03834",
    "attack.json": "f035895be9b09bb38a515f573c47dc653323b87028b8f118309e6be8f481f915",
    "attack.flagged.csv": "8304219e7390a0651fbf4f69e76dbc4ed86ad2ac7f50dcd5e85b1782a548f79f",
    "design_matrix": "e395549cad93fc22dde1007ea0f1bf45f8585e0ea132d1a58834c03cad7982a9",
}


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _run(*args):
    assert main([str(a) for a in args]) == 0


def output_digests(root) -> dict[str, str]:
    """Run the commands into ``root`` and hash every output."""
    data = root / "data.jsonl"
    model = root / "model.json"
    with pytest.MonkeyPatch.context() as mp:
        # the CLI trains 100 trees; 10 keep this test to a few seconds
        mp.setattr(forest, "TrainConfig", functools.partial(forest.TrainConfig, n_trees=N_TREES))
        _run("synth", "--n-benign", N_PER_CLASS, "--n-dga", N_PER_CLASS, "--seed", SEED,
             "--out", root / "data")
        _run("train", "--data", data, "--features", "dns+lexical", "--seed", SEED,
             "--target-fpr", TARGET_FPR, "--out", model)
        _run("evaluate", "--data", data, "--features", "dns+lexical", "--folds", 3,
             "--seed", SEED, "--target-fpr", TARGET_FPR, "--out", root / "eval")
    _run("classify", "--model", model, "--data", data, "--out", root / "verdicts.jsonl")
    _run("attack", "--model", model, "--data", data, "--trials", 3, "--n-domains", 100,
         "--seed", SEED, "--out", root / "attack.json",
         "--flagged-out", root / "attack.flagged.csv")
    out = {name: _sha256((root / name).read_bytes()) for name in GOLDEN if name != "design_matrix"}

    geo = GeoDb.bundled()
    examples = ingest.synth_dataset(N_PER_CLASS, N_PER_CLASS, SEED)
    codes = build_country_codes(observed_countries((ex.record for ex in examples), geo))
    X = forest.design_matrix(vectorize(examples, geo, codes),
                             forest.FeatureSet.parse("dns+lexical"))
    assert X.shape == (2 * N_PER_CLASS, 35) and X.dtype == "float64"
    out["design_matrix"] = _sha256(X.tobytes())
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return output_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name], (
        f"{name} changed; explain why in CHANGES.md before recording a new digest"
    )
