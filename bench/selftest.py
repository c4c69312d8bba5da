"""Self-tests for the benchmark's own arithmetic, on tiny inputs.

Run standalone with ``python3 bench/selftest.py``; ``run.py`` also runs
them before every workload and reports a failure as an incorrect run.
"""

from __future__ import annotations

import sys

from arith import percentile, self_times, zipf_ranks


def check_percentile_rule() -> None:
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990  # exactly ten samples beyond
    assert percentile(values[:999], 99) is None  # only nine beyond
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(reversed(values)), 90) == 900


def check_self_times() -> None:
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]
    assert self_times([], [], []) == []


def check_zipf_sampler() -> None:
    a = zipf_ranks(50, 500, 1.0, seed=7)
    assert a == zipf_ranks(50, 500, 1.0, seed=7)
    assert a != zipf_ranks(50, 500, 1.0, seed=8)
    assert all(0 <= k < 50 for k in a)
    assert a.count(0) > a.count(49)  # rank 0 is the most popular
    assert zipf_ranks(1, 3, 1.2, seed=1) == [0, 0, 0]


CHECKS = (check_percentile_rule, check_self_times, check_zipf_sampler)


def run_all() -> list[str]:
    """Names of the checks that failed."""
    failed = []
    for check in CHECKS:
        try:
            check()
        except AssertionError:
            failed.append(check.__name__)
    return failed


if __name__ == "__main__":
    failures = run_all()
    for name in failures:
        print(f"FAIL {name}", file=sys.stderr)
    print(f"{len(CHECKS) - len(failures)}/{len(CHECKS)} self-tests passed")
    sys.exit(1 if failures else 0)
