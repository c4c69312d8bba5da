"""dgadetect benchmark: three workloads driven through the CLI.

    python3 bench/run.py --workload pdns-zipf --seed 42 --seconds 5 --trace 0
    python3 bench/run.py --workload all     # every workload, every figure by name

Workloads (BENCHMARK.json says why each exists):
  pdns-zipf    one pDNS stream of 10,000 records whose names and IPs
               repeat with Zipf popularity: ``classify`` its first 1,000
               records, then ``audit`` that file and the whole stream;
               repeated at least three times and until --seconds have
               passed
  live-unique  open loop: a generator process writes distinct, unseen
               names to one ``classify`` child's stdin at 80 records/s;
               latency runs from each record's due time to its verdict
  offline      ``train`` (dns+lexical, 100 trees), 5-fold ``evaluate`` and
               ``attack`` (1,000 domains, 5 trials) on synth(5000, 5000, seed)

Every workload reports the same end-to-end metrics, so each fills three
slots with its own figures, all in ms and lower-is-better (record rates
become ms per 1,000 records):

  slot          pdns-zipf              live-unique   offline
  primary_ms    classify_rps           live_p50_ms   train_s
  secondary_ms  audit_rps              live_p99_ms   evaluate_s
  tertiary_ms   audit_same_input_rps   live_p90_ms   attack_s

plus ``setup_s`` (load the model file and the bundled suffix and GeoIP
tables; median of several loads) and ``peak_rss_mb`` (largest peak RSS of
a command's process).  The line before the result carries every figure
under its own name, with ``failed_share``, the input and output digests,
the repeat counts, the pinned child environment and the machine.

``audit_rps`` audits the whole stream; ``audit_same_input_rps`` audits
classify's own file, so it and ``classify_rps`` contrast per-record and
one-batch scoring on the same records.

With --trace 1 every command runs under span wrappers (``spans.py``) and
the metrics are the per-layer figures of ``layers.py``, including the
tracing overhead.  The last stdout line is always the result JSON; the
exit code is nonzero, with no result, when the run could not complete.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

SLOTS = {
    "pdns-zipf": ("classify_rps", "audit_rps", "audit_same_input_rps"),
    "live-unique": ("live_p50_ms", "live_p99_ms", "live_p90_ms"),
    "offline": ("train_s", "evaluate_s", "attack_s"),
}
SLOT_NAMES = ("primary_ms", "secondary_ms", "tertiary_ms")


def as_ms(value: float, unit: str) -> float:
    if unit == "records/s":
        return 1e6 / value  # ms per 1,000 records
    if unit == "s":
        return value * 1e3
    if unit == "ms":
        return value
    raise ValueError(unit)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result, detail) of one run."""
    import layers
    import selftest
    import workloads

    run = workloads.Run(name, seed, seconds, trace)
    try:
        failures = selftest.run_all()
        run.op("selftest", not failures, n=len(selftest.CHECKS), bad=len(failures))
        model_path = workloads.WORKLOADS[name](run)
        run.digest(f"{name}/model.json", model_path, "outputs")
        if seed == workloads.DEFAULT_SEED:
            expected = json.loads((BENCH / "digests.json").read_text("utf-8"))
            for kind in ("inputs", "outputs"):
                for key, sha in run.detail[kind].items():
                    run.op(f"digest {key}", expected.get(key) == sha)
        run.name("peak_rss_mb", max(r["maxrss_kb"] for _, r in run.reports) / 1024.0, "MB")
        run.name("failed_share", run.failed / run.attempted, "ratio")

        if trace:
            metrics = {k: metric(v, u) for k, (v, u) in
                       layers.layer_metrics(run.reports, workloads.model_shape(model_path)).items()}
        else:
            metrics = {slot: metric(as_ms(*run.named[src]), "ms") for slot, src in zip(SLOT_NAMES, SLOTS[name])}
            metrics["setup_s"] = metric(*run.named["setup_s"])
            metrics["peak_rss_mb"] = metric(*run.named["peak_rss_mb"])
        result = {"correct": run.failed == 0 and not run.invalid,
                  "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
        detail = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "named": {k: metric(v, u) for k, (v, u) in run.named.items()},
            "checks": run.checks, "invalid": run.invalid,
            "commands_wall_s": sum(r["wall_s"] for _, r in run.reports),
            "env": run.env, "machine": workloads.machine_facts(), **run.detail,
        }
        return result, detail
    finally:
        run.close()


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*SLOTS, "all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dgadetect" / "cli.py").is_file():
        print(f"bench: no dgadetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    from workloads import BenchError

    names = list(SLOTS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(detail, sort_keys=True), flush=True)
            results[name] = (result, detail)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.workload != "all":
        print(json.dumps(results[args.workload][0], sort_keys=True))
        return 0
    combined = {}
    for name, (result, detail) in results.items():
        for key, m in detail["named"].items():
            print(f"{name:12} {key:22} {m['value']:14.4f} {m['unit']}")
            combined[f"{name}.{key}"] = m
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in results.values()),
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": combined,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
