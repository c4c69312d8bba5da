"""Open-loop record generator for the live-unique workload.

    python3 bench/livegen.py RECORDS.jsonl T0 RATE RESULT.json

Writes line i of RECORDS.jsonl to stdout at monotonic time T0 + i / RATE,
whatever the reader does, and records how late each write finished.
CLOCK_MONOTONIC is shared by every process on the host, so the reader
times verdicts against the same due times.
"""

from __future__ import annotations

import json
import sys
import time


def main(records_path: str, t0: float, rate: float, result_path: str) -> int:
    with open(records_path, "rb") as fp:
        lines = fp.readlines()
    out = sys.stdout.buffer
    late = []
    try:
        for i, line in enumerate(lines):
            due = t0 + i / rate
            wait = due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            out.write(line)
            out.flush()
            late.append(time.monotonic() - due)
    except BrokenPipeError:
        pass  # the reader died; the benchmark counts the missing verdicts
    finally:
        with open(result_path, "w", encoding="utf-8") as fp:
            json.dump({"sent": len(late), "late_s": late}, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), sys.argv[4]))
