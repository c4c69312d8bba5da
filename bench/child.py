"""Run one dgadetect step in a fresh interpreter and report what it cost.

    python3 bench/child.py SPEC.json

SPEC keys:
  result  path the report JSON is written to
  argv    CLI arguments: time ``dgadetect.cli.main(argv)``
  setup   {"model": path, "repeats": n}: instead time loading the model
          file and the bundled suffix and GeoIP tables, ``repeats`` times
  trace   wrap the package's public functions and report spans

The package is imported before any clock starts, so interpreter start-up
and import are not counted.  stdin and stdout belong to the command.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from spans import Tracer, per_span_cost


def time_setup(model_path: str, repeats: int) -> list[float]:
    from dgadetect.core import SuffixDb
    from dgadetect.forest import ForestModel
    from dgadetect.sideinfo import GeoDb

    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ForestModel.load(model_path)
        SuffixDb.bundled()
        GeoDb.bundled()
        samples.append(time.perf_counter() - t0)
    return samples


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fp:
        spec = json.load(fp)
    import dgadetect.cli

    report: dict = {}
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if "setup" in spec:
        report["setup_s"] = time_setup(spec["setup"]["model"], spec["setup"]["repeats"])
        code = 0
    else:
        code = dgadetect.cli.main(spec["argv"])
    sys.stdout.flush()
    report["wall_s"] = time.perf_counter() - t0
    report["cpu_s"] = time.process_time() - cpu0
    report["exit"] = code
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        report["spans"] = tracer.report()
        report["span_count"] = tracer.spans
        report["overhead_s"] = tracer.spans * per_span_cost()

    with open(spec["result"], "w", encoding="utf-8") as fp:
        json.dump(report, fp)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
