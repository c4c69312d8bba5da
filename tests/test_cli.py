import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import dgadetect
from dgadetect.cli import main
from dgadetect.errors import LabelsFormatError, ModelFormatError, SchemaMismatchError
from dgadetect.forest import ForestModel


def _run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train once; downstream command tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    assert _run(["synth", "--n-benign", 120, "--n-dga", 120, "--seed", 5, "--out", root / "data"]) == 0
    assert _run([
        "train", "--data", root / "data.jsonl", "--features", "dns+lexical",
        "--seed", 5, "--out", root / "model.json",
    ]) == 0
    return root


def test_synth_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "ds"
    assert _run(["synth", "--n-benign", 30, "--n-dga", 20, "--seed", 1, "--out", out]) == 0
    data = (tmp_path / "ds.jsonl").read_text().splitlines()
    labels = (tmp_path / "ds.labels.csv").read_text().splitlines()
    assert len(data) == 50
    assert len(labels) == 51  # header + rows
    assert sum(1 for l in labels[1:] if l.split(",")[1] == "0") == 30
    assert sum(1 for l in labels[1:] if l.split(",")[1] == "1") == 20
    manifest = json.loads((tmp_path / "ds.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 1
    assert str(tmp_path / "ds.jsonl") in manifest["outputs"]


def test_synth_deterministic_files(tmp_path):
    for name in ("a", "b"):
        assert _run(["synth", "--n-benign", 25, "--n-dga", 25, "--seed", 9, "--out", tmp_path / name]) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.labels.csv").read_bytes() == (tmp_path / "b.labels.csv").read_bytes()


def test_train_deterministic_model_bytes(workspace, tmp_path):
    assert _run([
        "train", "--data", workspace / "data.jsonl", "--features", "dns+lexical",
        "--seed", 5, "--out", tmp_path / "model2.json",
    ]) == 0
    assert (workspace / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()


def test_train_all_feature_sets(workspace, tmp_path):
    for features in ("dns", "lexical"):
        assert _run([
            "train", "--data", workspace / "data.jsonl", "--features", features,
            "--seed", 2, "--out", tmp_path / f"{features}.json",
        ]) == 0
        model = ForestModel.load(tmp_path / f"{features}.json")
        assert model.feature_set.id == features


def test_train_single_class_exit_code(workspace, tmp_path):
    labels_path = tmp_path / "one.labels.csv"
    lines = (workspace / "data.labels.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    benign_only = [r for r in rows if r.split(",")[1] == "0"]
    labels_path.write_text("\n".join([header] + benign_only) + "\n")
    code = _run([
        "train", "--data", workspace / "data.jsonl", "--labels", labels_path,
        "--features", "lexical", "--seed", 1, "--out", tmp_path / "m.json",
    ])
    assert code == 5  # SingleClassError


def test_train_missing_data_io_exit_code(tmp_path):
    code = _run([
        "train", "--data", tmp_path / "missing.jsonl", "--features", "lexical",
        "--seed", 1, "--out", tmp_path / "m.json",
    ])
    assert code == 3


def test_classify_stream(workspace, tmp_path):
    out = tmp_path / "verdicts.jsonl"
    assert _run([
        "classify", "--model", workspace / "model.json",
        "--data", workspace / "data.jsonl", "--out", out,
    ]) == 0
    model = ForestModel.load(workspace / "model.json")
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 240
    for line in lines:
        assert set(line) == {"domain", "score", "verdict"}
        assert line["verdict"] == ("dga" if line["score"] >= model.threshold else "benign")


@pytest.fixture(scope="module")
def hybrid(workspace):
    """(score sidecar, dns+lexical+ext-score model) trained on the workspace."""
    labels = (workspace / "data.labels.csv").read_text().splitlines()[1:]
    scores_path = workspace / "scores.csv"
    scores_path.write_text(
        "domain,score\n" + "\n".join(f"{r.split(',')[0]},{0.9 if r.split(',')[1] == '1' else 0.1}" for r in labels) + "\n"
    )
    hybrid_path = workspace / "hybrid.json"
    assert _run([
        "train", "--data", workspace / "data.jsonl", "--features", "dns+lexical+ext-score",
        "--scores", scores_path, "--seed", 3, "--out", hybrid_path,
    ]) == 0
    return scores_path, hybrid_path


def test_classify_hybrid_needs_scores(workspace, hybrid, tmp_path):
    scores_path, hybrid_path = hybrid
    # classify without the sidecar must fail with the schema exit code
    code = _run([
        "classify", "--model", hybrid_path, "--data", workspace / "data.jsonl",
        "--out", tmp_path / "x.jsonl",
    ])
    assert code == 4
    assert _run([
        "classify", "--model", hybrid_path, "--data", workspace / "data.jsonl",
        "--scores", scores_path, "--out", tmp_path / "y.jsonl",
    ]) == 0


BAD_SCORES = ("abc", "1.5", "-0.1", "nan", "inf", "")


def _sidecar_with(scores_path, tmp_path, bad: str):
    """A copy of the sidecar whose third data row (CSV row 4) holds ``bad``."""
    rows = scores_path.read_text().splitlines()
    rows[3] = rows[3].split(",")[0] + ("," + bad if bad else "")
    path = tmp_path / "bad-scores.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("bad", BAD_SCORES)
def test_train_refuses_bad_score_sidecar(workspace, hybrid, tmp_path, capsys, bad):
    scores = _sidecar_with(hybrid[0], tmp_path, bad)
    assert _run([
        "train", "--data", workspace / "data.jsonl", "--features", "lexical+ext-score",
        "--scores", scores, "--out", tmp_path / "m.json",
    ]) == 18
    assert "row 4" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("bad", BAD_SCORES)
def test_classify_refuses_bad_score_sidecar(workspace, hybrid, tmp_path, capsys, bad):
    scores_path, hybrid_path = hybrid
    scores = _sidecar_with(scores_path, tmp_path, bad)
    assert _run([
        "classify", "--model", hybrid_path, "--data", workspace / "data.jsonl",
        "--scores", scores, "--out", tmp_path / "v.jsonl",
    ]) == 18
    assert "row 4" in capsys.readouterr().err


def test_attack_refuses_ext_score_model_up_front(hybrid, tmp_path, capsys):
    _, hybrid_path = hybrid
    code = _run([
        "attack", "--model", hybrid_path, "--data", tmp_path / "missing.jsonl",
        "--out", tmp_path / "attack.json",
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert "attack" in err and "ext-score" in err


def test_evaluate_reports(workspace, tmp_path):
    out = tmp_path / "eval"
    assert _run([
        "evaluate", "--data", workspace / "data.jsonl", "--features", "lexical",
        "--folds", 4, "--seed", 2, "--out", out,
    ]) == 0
    report = json.loads((tmp_path / "eval.json").read_text())
    assert {"auc", "auc_at_fpr", "tpr_at_fpr"} <= set(report)
    assert len(report["folds"]) == 4
    roc_lines = (tmp_path / "eval.roc.csv").read_text().splitlines()
    assert roc_lines[0] == "fold,fpr,tpr"
    assert len(roc_lines) > 4


def test_audit_counts(workspace, tmp_path):
    labels = (workspace / "data.labels.csv").read_text().splitlines()[1:]
    dga_domains = [r.split(",")[0] for r in labels if r.split(",")[1] == "1"]
    benign_domains = [r.split(",")[0] for r in labels if r.split(",")[1] == "0"]
    bl = tmp_path / "bl.txt"
    bl.write_text("\n".join(dga_domains[:40]) + "\n")
    wl = tmp_path / "wl.txt"
    wl.write_text("\n".join(benign_domains[:30] + dga_domains[:5]) + "\n")
    out = tmp_path / "audit.json"
    assert _run([
        "audit", "--model", workspace / "model.json", "--data", workspace / "data.jsonl",
        "--blacklist", bl, "--whitelist", wl, "--out", out,
    ]) == 0
    report = json.loads(out.read_text())
    for key in ("raw", "deduplicated"):
        assert {"total", "flagged", "flagged_in_blacklist", "flagged_in_whitelist",
                "blacklist_whitelist_overlap"} <= set(report[key])
    assert report["raw"]["total"] == 240
    assert report["deduplicated"]["total"] <= 240  # SLD.TLD dedup
    assert report["raw"]["blacklist_whitelist_overlap"] == 5


def test_manifest_digests_recomputable(workspace):
    import hashlib

    manifest = json.loads((workspace / "model.json.manifest.json").read_text())
    for path, digest in manifest["outputs"].items():
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest
    for path, digest in manifest["inputs"].items():
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest
    assert manifest["stats"]["parsed"] == 240
    assert manifest["stats"]["skipped"] == 0


def test_config_dir_env_var(workspace, tmp_path, monkeypatch):
    # a config dir supplies the default suffix list when the flag is absent
    confdir = tmp_path / "conf"
    confdir.mkdir()
    (confdir / "public_suffixes.txt").write_text("com\n")  # minimal table
    monkeypatch.setenv("DGADETECT_CONFIG_DIR", str(confdir))
    out = tmp_path / "verdicts.jsonl"
    assert _run([
        "classify", "--model", workspace / "model.json",
        "--data", workspace / "data.jsonl", "--out", out,
    ]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    # only .com names survive a com-only suffix table
    assert 0 < len(lines) < 240
    assert all(l["domain"].endswith(".com") for l in lines)


def test_attack_flagged_csv(workspace, tmp_path):
    out = tmp_path / "attack.json"
    flagged = tmp_path / "flagged.csv"
    assert _run([
        "attack", "--model", workspace / "model.json", "--data", workspace / "data.jsonl",
        "--trials", 2, "--n-domains", 40, "--seed", 4, "--out", out,
        "--flagged-out", flagged,
    ]) == 0
    lines = flagged.read_text().splitlines()
    assert lines[0] == "trial,domain"
    report = json.loads(out.read_text())
    expected_rows = sum(round(r * 40) for r in report["rates"])
    assert len(lines) - 1 == expected_rows


def test_attack_report(workspace, tmp_path):
    out = tmp_path / "attack.json"
    assert _run([
        "attack", "--model", workspace / "model.json", "--data", workspace / "data.jsonl",
        "--trials", 3, "--n-domains", 50, "--seed", 4, "--out", out,
    ]) == 0
    report = json.loads(out.read_text())
    assert len(report["rates"]) == 3
    assert 0.0 <= report["mean"] <= 1.0
    assert report["stddev"] >= 0.0
    out2 = tmp_path / "attack2.json"
    assert _run([
        "attack", "--model", workspace / "model.json", "--data", workspace / "data.jsonl",
        "--trials", 3, "--n-domains", 50, "--seed", 4, "--out", out2,
    ]) == 0
    assert out.read_text() == out2.read_text()


def test_classify_large_stream_streams(workspace, tmp_path):
    # 10k lines flow through without materializing the stream
    big = tmp_path / "big.jsonl"
    line = (workspace / "data.jsonl").read_text().splitlines()[0]
    with open(big, "w") as fp:
        for _ in range(10000):
            fp.write(line + "\n")
    out = tmp_path / "big_verdicts.jsonl"
    assert _run([
        "classify", "--model", workspace / "model.json", "--data", big, "--out", out,
    ]) == 0
    assert sum(1 for _ in open(out)) == 10000


def test_classify_scores_a_file_in_few_batches(workspace, tmp_path, monkeypatch):
    lines = (workspace / "data.jsonl").read_bytes().splitlines(keepends=True)
    data = tmp_path / "thousand.jsonl"
    data.write_bytes(b"".join(lines[i % len(lines)] for i in range(1000)))
    calls = []
    score_matrix = ForestModel.score_matrix

    def counted(self, X):
        calls.append(len(X))
        return score_matrix(self, X)

    monkeypatch.setattr(ForestModel, "score_matrix", counted)
    out = tmp_path / "verdicts.jsonl"
    assert _run(["classify", "--model", workspace / "model.json", "--data", data, "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 1000
    assert sum(calls) == 1000 and len(calls) <= 4


def test_classify_last_line_without_newline(workspace, tmp_path):
    lines = (workspace / "data.jsonl").read_bytes().splitlines()
    data = tmp_path / "unterminated.jsonl"
    data.write_bytes(b"\n".join(lines[:5]))
    out = tmp_path / "verdicts.jsonl"
    assert _run(["classify", "--model", workspace / "model.json", "--data", data, "--out", out]) == 0
    assert [json.loads(l)["domain"] for l in out.read_text().splitlines()] == [
        json.loads(l)["name"] for l in lines[:5]]
    assert _stats(out) == {"lines": 5, "parsed": 5, "skipped": 0, "unparseable_names": 0}


def test_classify_counts_odd_lines_inside_a_chunk(workspace, tmp_path):
    lines = (workspace / "data.jsonl").read_bytes().splitlines()
    odd = [
        b"",  # blank
        b"\r",  # a bare carriage return: one line, blank once stripped
        b"{not json",
        lines[0] + b"\r" + lines[1],  # two records joined by \r: one malformed line
        b'{"name":"host.invalidtld","ttl":60,"type":1,"class":1,"data":["1.2.3.4"]}',
    ]
    data = tmp_path / "odd.jsonl"
    data.write_bytes(b"\n".join(lines[:50] + odd + lines[50:]) + b"\n")
    out = tmp_path / "verdicts.jsonl"
    assert _run(["classify", "--model", workspace / "model.json", "--data", data, "--out", out]) == 0
    assert [json.loads(l)["domain"] for l in out.read_text().splitlines()] == [
        json.loads(l)["name"] for l in lines]
    assert _stats(out) == {"lines": 245, "parsed": 241, "skipped": 4, "unparseable_names": 1}


def test_classify_hybrid_missing_score_keeps_earlier_verdicts(workspace, hybrid, tmp_path):
    scores_path, hybrid_path = hybrid
    full = tmp_path / "full.jsonl"
    assert _run(["classify", "--model", hybrid_path, "--data", workspace / "data.jsonl",
                 "--scores", scores_path, "--out", full]) == 0
    verdicts = full.read_bytes().splitlines(keepends=True)
    missing = json.loads(verdicts[100])["domain"]
    partial = tmp_path / "partial.csv"
    partial.write_text("\n".join(r for r in scores_path.read_text().splitlines()
                                 if r.split(",")[0] != missing) + "\n")
    out = tmp_path / "partial.jsonl"
    assert _run(["classify", "--model", hybrid_path, "--data", workspace / "data.jsonl",
                 "--scores", partial, "--out", out]) == SchemaMismatchError.exit_code
    assert out.read_bytes() == b"".join(verdicts[:100])


# labels that are not 0 or 1, no label column, and labels the provenance contradicts
BAD_LABELS = ("abc", "2", "", "0,blacklist", "1,heuristics")


def _labels_with(workspace, tmp_path, bad: str):
    """A copy of the labels CSV whose third data row (CSV row 4) holds
    ``bad`` as its label, or as its label and source when ``bad`` names
    both, or has no label column when ``bad`` is empty."""
    rows = (workspace / "data.labels.csv").read_text().splitlines()
    domain, _, source = rows[3].split(",")
    if not bad:
        rows[3] = domain
    else:
        rows[3] = f"{domain},{bad}" if "," in bad else f"{domain},{bad},{source}"
    path = tmp_path / "bad.labels.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def _refused_for_labels(capsys, code):
    assert code == LabelsFormatError.exit_code
    assert "row 4" in capsys.readouterr().err


@pytest.mark.parametrize("bad", BAD_LABELS)
def test_train_refuses_bad_labels(workspace, tmp_path, capsys, bad):
    labels = _labels_with(workspace, tmp_path, bad)
    _refused_for_labels(capsys, _run([
        "train", "--data", workspace / "data.jsonl", "--labels", labels,
        "--features", "lexical", "--out", tmp_path / "m.json",
    ]))
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("bad", BAD_LABELS)
def test_evaluate_refuses_bad_labels(workspace, tmp_path, capsys, bad):
    labels = _labels_with(workspace, tmp_path, bad)
    _refused_for_labels(capsys, _run([
        "evaluate", "--data", workspace / "data.jsonl", "--labels", labels,
        "--features", "lexical", "--folds", 2, "--out", tmp_path / "eval",
    ]))


@pytest.mark.parametrize("bad", BAD_LABELS)
def test_attack_refuses_bad_labels(workspace, tmp_path, capsys, bad):
    labels = _labels_with(workspace, tmp_path, bad)
    _refused_for_labels(capsys, _run([
        "attack", "--model", workspace / "model.json", "--data", workspace / "data.jsonl",
        "--labels", labels, "--n-domains", 20, "--trials", 1, "--out", tmp_path / "attack.json",
    ]))


def test_console_entrypoint_subprocess(tmp_path):
    """End-to-end in a fresh process: synth is reproducible across runs."""
    for name in ("p1", "p2"):
        result = subprocess.run(
            [sys.executable, "-m", "dgadetect.cli", "synth", "--n-benign", "10",
             "--n-dga", "10", "--seed", "3", "--out", str(tmp_path / name)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "p1.jsonl").read_bytes() == (tmp_path / "p2.jsonl").read_bytes()


def test_exit_codes_distinct():
    from dgadetect import errors

    classes = [
        errors.SchemaMismatchError, errors.SingleClassError, errors.EmptyDataError,
        errors.NoNegativesError, errors.TooFewExamplesError, errors.PoolTooSmallError,
        errors.SeedTooShortError, errors.InvalidDomainError, errors.NoValidSuffixError,
        errors.EmptySldError, errors.MalformedIpError, errors.ModelFormatError,
        errors.ScoresFormatError, errors.LabelsFormatError, errors.DgaDetectError,
    ]
    codes = [c.exit_code for c in classes]
    assert len(set(codes)) == len(codes)
    assert 3 not in codes  # io code is reserved for OSError
    assert all(c != 0 for c in codes)


MALFORMED_LINES = {
    "bad-ip": b'{"name":"badip.com","ttl":60,"type":1,"class":1,"data":["999.1.1.1"]}',
    "not-utf8": b"\xff\xfe",
    # json.loads raises ValueError for an integer of more than 4,300
    # digits and RecursionError for nesting this deep
    "huge-integer": b'{"name":"huge.com","ttl":' + b"9" * 5000 + b',"type":1,"class":1,"data":["1.1.1.1"]}',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


def _data_with_line(workspace, tmp_path, line: bytes):
    """The workspace stream with one extra line in its middle."""
    lines = (workspace / "data.jsonl").read_bytes().splitlines(keepends=True)
    path = tmp_path / "mixed.jsonl"
    path.write_bytes(b"".join(lines[:100] + [line + b"\n"] + lines[100:]))
    return path


def _stats(out):
    return json.loads(open(str(out) + ".manifest.json").read())["stats"]


def test_audit_lists_follow_the_data_file_rule(workspace, tmp_path, monkeypatch):
    """--blacklist and --whitelist fall back to $DGADETECT_CONFIG_DIR, then
    to the bundled blacklist and to an empty whitelist."""
    listed = b'{"name":"xkqvjrmwpahz.com","ttl":60,"type":1,"class":1,"data":["1.1.1.1"]}'
    data = _data_with_line(workspace, tmp_path, listed)  # in the bundled blacklist
    confdir = tmp_path / "conf"
    confdir.mkdir()
    (confdir / "whitelist.txt").write_text("xkqvjrmwpahz.com\n")
    monkeypatch.setenv("DGADETECT_CONFIG_DIR", str(confdir))

    def overlap(*flags):
        out = tmp_path / "audit.json"
        assert _run(["audit", "--model", workspace / "model.json", "--data", data,
                     "--out", out, *flags]) == 0
        return json.loads(out.read_text())["raw"]["blacklist_whitelist_overlap"]

    assert overlap() == 1  # the bundled blacklist and the config dir's whitelist
    (confdir / "blacklist.txt").write_text("other.com\n")
    assert overlap() == 0  # the config dir's blacklist replaces the bundled one
    flag_list = tmp_path / "bl.txt"
    flag_list.write_text("xkqvjrmwpahz.com\n")
    assert overlap("--blacklist", flag_list) == 1  # the flag wins over both
    monkeypatch.delenv("DGADETECT_CONFIG_DIR")
    assert overlap() == 0  # no whitelist is bundled


@pytest.mark.parametrize("kind", sorted(MALFORMED_LINES))
def test_classify_skips_malformed_line(workspace, tmp_path, kind):
    data = _data_with_line(workspace, tmp_path, MALFORMED_LINES[kind])
    out = tmp_path / "verdicts.jsonl"
    assert _run(["classify", "--model", workspace / "model.json", "--data", data, "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 240
    assert _stats(out) == {"lines": 241, "parsed": 240, "skipped": 1, "unparseable_names": 0}


@pytest.mark.parametrize("kind", sorted(MALFORMED_LINES))
def test_audit_skips_malformed_line(workspace, tmp_path, kind):
    data = _data_with_line(workspace, tmp_path, MALFORMED_LINES[kind])
    out = tmp_path / "audit.json"
    assert _run(["audit", "--model", workspace / "model.json", "--data", data, "--out", out]) == 0
    assert json.loads(out.read_text())["raw"]["total"] == 240
    assert _stats(out) == {"lines": 241, "parsed": 240, "skipped": 1, "unparseable_names": 0}


@pytest.mark.parametrize("kind", sorted(MALFORMED_LINES))
def test_train_skips_malformed_line(workspace, tmp_path, kind):
    data = _data_with_line(workspace, tmp_path, MALFORMED_LINES[kind])
    out = tmp_path / "model.json"
    assert _run([
        "train", "--data", data, "--labels", workspace / "data.labels.csv",
        "--features", "dns+lexical", "--seed", 5, "--out", out,
    ]) == 0
    assert out.read_bytes() == (workspace / "model.json").read_bytes()
    assert _stats(out)["skipped"] == 1


def test_classify_emits_each_verdict_before_eof(workspace):
    """A verdict reaches a piped stdout while stdin is still open."""
    first = (workspace / "data.jsonl").read_bytes().splitlines()[0]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(dgadetect.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dgadetect.cli", "classify", "--model", str(workspace / "model.json")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
    )
    watchdog = threading.Timer(120, proc.kill)  # only ends a hung run; not a timing bound
    watchdog.start()
    try:
        proc.stdin.write(first + b"\n")
        proc.stdin.flush()
        verdict = proc.stdout.readline()
    finally:
        proc.stdin.close()
        proc.wait()
        watchdog.cancel()
    assert json.loads(verdict)["domain"] == json.loads(first)["name"]


def test_bad_model_file_exit_code(workspace, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format":"nope"}')
    code = _run(["classify", "--model", bad, "--data", workspace / "data.jsonl",
                 "--out", tmp_path / "v.jsonl"])
    assert code == ModelFormatError.exit_code


def test_cyclic_model_file_exit_code(workspace, tmp_path):
    obj = json.loads((workspace / "model.json").read_bytes())
    tree = obj["trees"][0]
    tree["left"][0] = 0  # the root becomes its own child
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(json.dumps(obj))
    code = _run(["audit", "--model", cyclic, "--data", workspace / "data.jsonl",
                 "--out", tmp_path / "a.json"])
    assert code == ModelFormatError.exit_code


def test_dns_model_without_country_codes_refused(workspace, tmp_path):
    obj = json.loads((workspace / "model.json").read_bytes())
    obj["country_codes"] = None
    model = tmp_path / "nocodes.json"
    model.write_text(json.dumps(obj))
    for command in ("classify", "audit"):
        out = tmp_path / f"{command}.out"
        code = _run([command, "--model", model, "--data", workspace / "data.jsonl", "--out", out])
        assert code == SchemaMismatchError.exit_code
        assert not out.exists()
