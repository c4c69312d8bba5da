"""The three workloads, their inputs and their output checks.

Every dgadetect command runs in a child interpreter (``child.py``) with a
pinned environment; this process builds the inputs from the seed, checks
the outputs against the program's own batch scoring path and turns the
children's reports into metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from statistics import median
from pathlib import Path

import numpy as np

from arith import percentile, zipf_ranks
from dgadetect import ingest
from dgadetect.core import FeatureVector, Label, SuffixDb, parse_domain
from dgadetect.forest import ForestModel, design_matrix
from dgadetect.lexical import extract_lexical
from dgadetect.sideinfo import GeoDb, extract_sideinfo

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

DEFAULT_SEED = 42
FIXTURE_SEED = 42  # the scoring workloads use the model of synth(5000, 5000, 42)
SYNTH_SIZE = (5000, 5000)
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170

# pdns-zipf traffic.  Name popularity is Zipf-like with an exponent near
# 0.9, as Jung et al. measured on resolver traces ("DNS performance and the
# effectiveness of caching", IEEE/ACM ToN 2002).  Two parameters are
# assumptions, not measurements: DGA names are a tenth of the distinct names
# and take the least popular ranks (real pDNS is overwhelmingly benign and
# DGA names sit in its long tail), which puts about 2% of the records in the
# DGA class; and each occurrence's TTL is drawn uniformly from [0, the
# name's TTL], the remaining lifetime of a cached answer.
ZIPF_EXPONENT = 0.9
ZIPF_POOL = (2000, 200)  # distinct benign names, then DGA names, by rank
ZIPF_RECORDS = 10_000  # audit's file: per-record work is ~90% of its time
CLASSIFY_RECORDS = 1_000  # classify's file: the stream's first records
# Each repetition runs classify and both audits once.  Medians over at least
# MIN_REPS repetitions of a few seconds each reject the second-scale bursts
# of CPU contention on a shared host better than one long pass would.
MIN_REPS = 3

LIVE_RATE = 80.0  # records/s, a third of classify's capacity
LIVE_MIN_RECORDS = 1010  # p99 needs ten samples beyond it
LIVE_GRACE_S = 2.0  # child start-up before the first record is due
LIVE_LIMIT_MS = 5000.0  # a verdict later than this, or none, misses the limit
LIVE_MAX_LATE_S = 0.25  # generator lag beyond this makes the run invalid

MIN_AUC = 0.99
MIN_TPR = 0.95


class BenchError(RuntimeError):
    """The benchmark itself could not proceed."""


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def pinned_env() -> dict[str, str]:
    """The whole environment of every child: nothing is inherited, so a
    caller's PYTHONUNBUFFERED or thread settings cannot change a result."""
    return {
        "PATH": os.defpath,
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((l.split(":", 1)[1].strip() for l in fp if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "executable": sys.executable,
    }


class Run:
    """Bookkeeping of one benchmark run: operations, checks, child reports."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = pinned_env()
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.reports: list[tuple[str, dict]] = []  # (command, child report)
        self.named: dict[str, tuple[float, str]] = {}
        self.detail: dict = {"inputs": {}, "outputs": {}}
        self.invalid: list[str] = []
        BUILD.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=BUILD))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def op(self, name: str, ok: bool, n: int = 1, bad: int | None = None) -> bool:
        """Count ``n`` attempted operations, ``bad`` of them failed (all
        of them when ``ok`` is false and ``bad`` is not given)."""
        bad = (0 if ok else n) if bad is None else bad
        self.attempted += n
        self.failed += bad
        self.checks[name] = self.checks.get(name, True) and bad == 0
        return bad == 0

    def digest(self, key: str, path: Path, kind: str) -> None:
        """Record a file's SHA-256; a repeated step must give the same bytes."""
        sha = sha256_file(path)
        if self.detail[kind].setdefault(key, sha) != sha:
            self.op(f"repeatable {key}", False)

    def child_spec(self, name: str, spec: dict, trace: bool) -> tuple[Path, Path]:
        spec_path = self.work / f"{name}.spec.json"
        result_path = self.work / f"{name}.result.json"
        spec = dict(spec, result=str(result_path), trace=trace)
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        return spec_path, result_path

    def child(self, name: str, spec: dict, *, measured: bool = True,
              timeout: float = CHILD_TIMEOUT_S) -> dict | None:
        """Run one step in a child interpreter: its report, or None when it
        failed or exited nonzero.  Reports of measured commands feed peak
        RSS and the trace."""
        spec_path, result_path = self.child_spec(name, spec, self.trace and measured)
        with open(self.work / f"{name}.stderr", "wb") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), str(spec_path)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                    env=self.env, cwd=self.work, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return None
        return self.read_report(name, result_path, proc.returncode, measured and "argv" in spec)

    def read_report(self, name: str, result_path: Path, returncode: int, command: bool) -> dict | None:
        if returncode != 0 or not result_path.exists():
            sys.stderr.write((self.work / f"{name}.stderr").read_text("utf-8", "replace")[-2000:])
            return None
        report = json.loads(result_path.read_text("utf-8"))
        if command:
            self.reports.append((name.split("-")[0], report))
        return report

    def setup(self, model: Path) -> None:
        """setup_s: median time to load the model file and the bundled
        suffix and GeoIP tables, in a fresh interpreter."""
        report = self.child("setup", {"setup": {"model": str(model), "repeats": SETUP_REPEATS}})
        if not self.op("setup", report is not None):
            raise BenchError("setup step failed")
        self.name("setup_s", median(report["setup_s"]), "s")

    def name(self, metric: str, value: float, unit: str) -> None:
        self.named[metric] = (value, unit)


# --- inputs --------------------------------------------------------------


def write_synth(stem: Path, n_benign: int, n_dga: int, seed: int) -> tuple[Path, Path]:
    """Write synth_dataset(...) the way ``dgadetect synth`` does."""
    examples = ingest.synth_dataset(n_benign, n_dga, seed)
    data, labels = stem.with_suffix(".jsonl"), stem.with_suffix(".labels.csv")
    with open(data, "w", encoding="utf-8") as fp:
        ingest.write_pdns((ex.record for ex in examples), fp)
    with open(labels, "w", newline="", encoding="utf-8") as fp:
        ingest.write_labels_csv(examples, fp)
    return data, labels


def write_records(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        ingest.write_pdns(records, fp)


def repeat_counts(records) -> dict[str, int]:
    names = [r.name for r in records]
    ips = [ip for r in records for ip in r.data]
    return {"records": len(names), "distinct_names": len(set(names)),
            "ip_lookups": len(ips), "distinct_ips": len(set(ips))}


def derived_seed(seed: int, salt: int) -> int:
    # never 42 for seed >= 0, so no workload draws the fixture's names
    return 1_000_003 * (seed + 1) + salt


def zipf_stream(seed: int) -> tuple[list, list[str]]:
    """ZIPF_RECORDS records whose names (and the IPs each resolves to)
    repeat with Zipf popularity over a pool of both classes, benign names
    at the popular ranks and DGA names in the tail; the TTL is drawn per
    occurrence.  Also returns the pool's benign names."""
    classes: dict[Label, list] = {Label.BENIGN: [], Label.DGA: []}
    seen = set()
    for ex in ingest.synth_dataset(*ZIPF_POOL, derived_seed(seed, 1)):
        if ex.parsed.fqdn not in seen:
            seen.add(ex.parsed.fqdn)
            classes[ex.label].append(ex)
    rng = random.Random(derived_seed(seed, 2))
    for members in classes.values():
        rng.shuffle(members)
    pool = classes[Label.BENIGN] + classes[Label.DGA]
    records = [
        dataclasses.replace(pool[k].record, ttl=rng.randint(0, pool[k].record.ttl))
        for k in zipf_ranks(len(pool), ZIPF_RECORDS, ZIPF_EXPONENT, derived_seed(seed, 3))
    ]
    benign = sorted(ex.parsed.fqdn for ex in classes[Label.BENIGN])
    return records, benign


def unique_stream(seed: int, n: int, exclude: set[str]) -> list:
    """``n`` records of both classes with pairwise distinct names, none of
    them in ``exclude``."""
    examples = ingest.synth_dataset(n, n, derived_seed(seed, 4))
    benign, dga = examples[:n], examples[n:]
    out, seen = [], set(exclude)
    for pair in zip(benign, dga):
        for ex in pair:
            if ex.parsed.fqdn not in seen:
                seen.add(ex.parsed.fqdn)
                out.append(ex.record)
    if len(out) < n:
        raise BenchError(f"only {len(out)} unseen names for {n} live records")
    out = out[:n]
    random.Random(derived_seed(seed, 5)).shuffle(out)
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = SRC / "dgadetect"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def fixture(run: Run) -> Path:
    """Directory holding the scoring workloads' model, trained once per
    source tree on synth(5000, 5000, 42) and kept under .bench_build."""
    final = BUILD / f"fixture-{source_digest()[:16]}"
    if (final / "model.json").exists():
        return final
    tmp = Path(tempfile.mkdtemp(prefix="fixture-tmp-", dir=BUILD))
    data, _ = write_synth(tmp / "data", *SYNTH_SIZE, FIXTURE_SEED)
    report = run.child("fixture", {"argv": [
        "train", "--data", str(data), "--features", "dns+lexical",
        "--seed", str(FIXTURE_SEED), "--out", str(tmp / "model.json")]}, measured=False, timeout=600)
    if report is None:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BenchError("training the fixture model failed")
    try:
        os.rename(tmp, final)
    except OSError:  # another run got there first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


# --- output checks -------------------------------------------------------


def batch_reference(model: ForestModel, records) -> tuple[list[str], list[float]]:
    """Names and scores that ``score_matrix(design_matrix(...))`` gives the
    records in one batch: what every streamed verdict must equal."""
    suffixes, geo = SuffixDb.bundled(), GeoDb.bundled()
    parsed = [parse_domain(r.name, suffixes) for r in records]
    vectors = [
        FeatureVector(lexical=extract_lexical(p),
                      sideinfo=extract_sideinfo(r, geo, model.country_codes)
                      if model.feature_set.dns else None)
        for p, r in zip(parsed, records)
    ]
    scores = model.score_matrix(design_matrix(vectors, model.feature_set))
    return [p.fqdn for p in parsed], [float(s) for s in scores]


def bad_verdicts(lines: list[bytes], names: list[str], scores: list[float], threshold: float) -> int:
    """Records without exactly one correct verdict: the line order matches
    the input, the score equals the batch score and the verdict equals
    score >= threshold."""
    bad = abs(len(lines) - len(names))
    for line, name, score in zip(lines, names, scores):
        try:
            obj = json.loads(line)
        except ValueError:
            bad += 1
            continue
        expected = "dga" if score >= threshold else "benign"
        if obj.get("domain") != name or obj.get("score") != score or obj.get("verdict") != expected:
            bad += 1
    return bad


def model_shape(path: Path) -> tuple[int, int]:
    """(total nodes, deepest leaf) over the trees of a model file.
    Children always follow their parent in the node arrays."""
    obj = json.loads(path.read_bytes())
    nodes = depth_max = 0
    for tree in obj["trees"]:
        depth = [0] * len(tree["feature"])
        for i, (l, r) in enumerate(zip(tree["left"], tree["right"])):
            if l >= 0:
                depth[l] = depth[r] = depth[i] + 1
        nodes += len(depth)
        depth_max = max(depth_max, max(depth))
    return nodes, depth_max


# --- workloads -----------------------------------------------------------


def pdns_zipf(run: Run) -> Path:
    """classify the stream's first CLASSIFY_RECORDS records, then audit
    both that file and the whole Zipf stream."""
    fix = fixture(run)
    model_path = fix / "model.json"
    model = ForestModel.load(model_path)
    records, benign = zipf_stream(run.seed)
    head = records[:CLASSIFY_RECORDS]
    data, head_data = run.work / "pdns.jsonl", run.work / "pdns-head.jsonl"
    write_records(data, records)
    write_records(head_data, head)
    whitelist = run.work / "whitelist.txt"
    whitelist.write_text("".join(f"{d}\n" for d in benign), encoding="utf-8")
    run.digest("pdns-zipf/pdns.jsonl", data, "inputs")
    run.digest("pdns-zipf/pdns-head.jsonl", head_data, "inputs")
    benign_set = set(benign)
    run.detail["repeats"] = dict(repeat_counts(records),
                                 dga_records=sum(r.name not in benign_set for r in records))
    names, scores = batch_reference(model, head)
    m = len(head)

    audits = {"audit_rps": (data, len(records), []),
              "audit_same_input_rps": (head_data, m, [])}
    classify_s = []
    deadline = time.monotonic() + run.seconds
    for rep in itertools.count():
        out = run.work / f"verdicts-{rep}.jsonl"
        report = run.child(f"classify-{rep}", {"argv": [
            "classify", "--model", str(model_path), "--data", str(head_data), "--out", str(out)]})
        lines = out.read_bytes().splitlines() if report is not None else []
        run.op("classify_verdicts", report is not None, n=m,
               bad=bad_verdicts(lines, names, scores, model.threshold) if report is not None else m)
        if report is not None:
            classify_s.append(report["wall_s"])
            run.digest("pdns-zipf/verdicts.jsonl", out, "outputs")
        for path, n, times in audits.values():
            stem = path.stem.replace("pdns", "audit")
            audit_out = run.work / f"{stem}-{rep}.json"
            report = run.child(f"{stem}-{rep}", {"argv": [
                "audit", "--model", str(model_path), "--data", str(path),
                "--blacklist", str(SRC / "dgadetect" / "data" / "blacklist.txt"),
                "--whitelist", str(whitelist), "--out", str(audit_out)]})
            ok = report is not None and json.loads(audit_out.read_text("utf-8"))["raw"]["total"] == n
            if run.op("audit_total", ok):
                times.append(report["wall_s"])
                run.digest(f"pdns-zipf/{stem}.json", audit_out, "outputs")
        if run.trace or (rep + 1 >= MIN_REPS and time.monotonic() >= deadline):
            break
    if not classify_s or not all(times for _, _, times in audits.values()):
        raise BenchError("no classify or audit pass succeeded")
    run.detail["reps"] = len(classify_s)
    run.name("classify_rps", m / median(classify_s), "records/s")
    for figure, (_, n, times) in audits.items():
        run.name(figure, n / median(times), "records/s")
    run.setup(model_path)
    return model_path


def live_unique(run: Run) -> Path:
    """Open loop: one generator process feeds classify's stdin at
    LIVE_RATE; verdicts are timed from each record's due time."""
    fix = fixture(run)
    model_path = fix / "model.json"
    model = ForestModel.load(model_path)
    with open(fix / "data.labels.csv", encoding="utf-8") as fp:
        trained = set(ingest.load_labeled_rows(fp))
    n = max(LIVE_MIN_RECORDS, round(LIVE_RATE * run.seconds))
    records = unique_stream(run.seed, n, trained)
    data = run.work / "live.jsonl"
    write_records(data, records)
    run.digest("live-unique/live.jsonl", data, "inputs")
    run.detail["repeats"] = repeat_counts(records)
    names, scores = batch_reference(model, records)

    spec = {"argv": ["classify", "--model", str(model_path)]}
    spec_path, result_path = run.child_spec("classify", spec, run.trace)
    gen_result = run.work / "livegen.json"
    t0 = time.monotonic() + LIVE_GRACE_S
    with open(run.work / "classify.stderr", "wb") as err:
        gen = subprocess.Popen(
            [sys.executable, str(BENCH / "livegen.py"), str(data), repr(t0), repr(LIVE_RATE),
             str(gen_result)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=run.env, cwd=run.work)
        cls = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            stdin=gen.stdout, stdout=subprocess.PIPE, stderr=err, env=run.env, cwd=run.work)
        gen.stdout.close()
        watchdog = threading.Timer(LIVE_GRACE_S + n / LIVE_RATE + 60, lambda: (gen.kill(), cls.kill()))
        watchdog.start()
        try:
            received = [(time.monotonic(), line) for line in cls.stdout]
        finally:
            cls.stdout.close()
            cls.wait()
            gen.wait()
            watchdog.cancel()
    report = run.read_report("classify", result_path, cls.returncode, command=True)

    lines = [line for _, line in received]
    run.op("live_verdicts", report is not None, n=n,
           bad=bad_verdicts(lines, names, scores, model.threshold) if report is not None else n)
    (run.work / "verdicts.jsonl").write_bytes(b"".join(lines))
    run.digest("live-unique/verdicts.jsonl", run.work / "verdicts.jsonl", "outputs")
    latency_ms = [(t - (t0 + i / LIVE_RATE)) * 1000.0 for i, (t, _) in enumerate(received[:n])]
    latency_ms += [float("inf")] * (n - len(latency_ms))
    capped = [min(v, LIVE_LIMIT_MS) for v in latency_ms]
    for p in (50, 90, 99):
        value = percentile(capped, p)
        if value is None:
            raise BenchError(f"too few samples for p{p}")
        run.name(f"live_p{p}_ms", value, "ms")

    gen_report = json.loads(gen_result.read_text("utf-8")) if gen_result.exists() else {"sent": 0, "late_s": [0.0]}
    late_ms = [v * 1000.0 for v in gen_report["late_s"]] or [0.0]
    run.detail["live"] = {
        "rate_per_s": LIVE_RATE, "records": n, "sent": gen_report["sent"], "verdicts": len(received),
        "over_limit": sum(v > LIVE_LIMIT_MS for v in latency_ms), "limit_ms": LIVE_LIMIT_MS,
        "generator_late_max_ms": max(late_ms), "generator_late_p50_ms": median(late_ms),
        "generator_late_bound_ms": LIVE_MAX_LATE_S * 1000.0,
    }
    if max(late_ms) > LIVE_MAX_LATE_S * 1000.0 or gen_report["sent"] != n:
        run.invalid.append("the generator fell behind its schedule")
    run.setup(model_path)
    return model_path


def offline(run: Run) -> Path:
    """train, 5-fold evaluate and attack on synth(5000, 5000, seed)."""
    data, labels = write_synth(run.work / "data", *SYNTH_SIZE, run.seed)
    run.digest("offline/data.jsonl", data, "inputs")
    run.digest("offline/data.labels.csv", labels, "inputs")
    model_path = run.work / "model.json"
    common = ["--data", str(data), "--seed", str(run.seed)]

    report = run.child("train", {"argv": [
        "train", *common, "--features", "dns+lexical", "--out", str(model_path)]})
    if report is None:
        raise BenchError("train failed")
    run.op("train", len(ForestModel.load(model_path).trees) == 100)
    run.name("train_s", report["wall_s"], "s")

    report = run.child("evaluate", {"argv": [
        "evaluate", *common, "--features", "dns+lexical", "--folds", "5",
        "--out", str(run.work / "eval")]})
    if report is None:
        raise BenchError("evaluate failed")
    cv = json.loads((run.work / "eval.json").read_text("utf-8"))
    run.detail["cv"] = {"auc": cv["auc"], "tpr_at_fpr": cv["tpr_at_fpr"]}
    run.op("evaluate", cv["auc"] >= MIN_AUC and cv["tpr_at_fpr"] >= MIN_TPR and len(cv["folds"]) == 5)
    run.digest("offline/eval.json", run.work / "eval.json", "outputs")
    run.name("evaluate_s", report["wall_s"], "s")

    attack_path = run.work / "attack.json"
    report = run.child("attack", {"argv": [
        "attack", "--model", str(model_path), *common, "--n-domains", "1000", "--trials", "5",
        "--out", str(attack_path)]})
    if report is None:
        raise BenchError("attack failed")
    attack = json.loads(attack_path.read_text("utf-8"))
    run.op("attack", len(attack["rates"]) == 5 and all(0.0 <= r <= 1.0 for r in attack["rates"]))
    run.digest("offline/attack.json", attack_path, "outputs")
    run.name("attack_s", report["wall_s"], "s")
    run.setup(model_path)
    return model_path


WORKLOADS = {"pdns-zipf": pdns_zipf, "live-unique": live_unique, "offline": offline}
