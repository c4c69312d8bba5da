"""Spans around the public functions of each dgadetect module.

The wrappers live in the benchmark, not in the program.  ``install``
replaces every binding of a traced function across the package's modules
(``cli``, ``ingest`` and ``adversarial`` import some functions by name,
``evaluation`` imports ``train``), so a call through any name is seen.
A target the program no longer defines is skipped, and its metrics are
then absent from the report rather than an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter

from arith import self_times

PACKAGE = "dgadetect"

# (span name, module, attribute path, items counted per call, distinct key)
# Items: "yield" counts generator outputs; a callable gets the call's
# positional arguments.  Keys feed the distinct-share metrics.
TARGETS = (
    ("ingest.read_pdns", "ingest", "read_pdns", "yield", None),
    ("core.parse_domain", "core", "parse_domain", None, None),
    ("lexical.extract_lexical", "lexical", "extract_lexical", None, lambda a: a[0].fqdn),
    ("sideinfo.extract_sideinfo", "sideinfo", "extract_sideinfo", None, None),
    ("sideinfo.GeoDb.lookup", "sideinfo", "GeoDb.lookup", None, lambda a: a[1]),
    ("forest.ForestModel.load", "forest", "ForestModel.load", None, None),
    ("forest.design_matrix", "forest", "design_matrix", lambda a: len(a[0]), None),
    ("forest.score_matrix", "forest", "ForestModel.score_matrix", lambda a: len(a[1]), None),
    ("forest.train", "forest", "train", None, None),
    ("forest.best_split", "forest", "best_split", None, None),
    ("forest.Tree.predict", "forest", "Tree.predict", lambda a: len(a[1]), None),
    ("forest.calibrate_threshold", "forest", "calibrate_threshold", None, None),
    ("evaluation.cross_validate", "evaluation", "cross_validate", None, None),
    ("evaluation.roc_auc", "evaluation", "roc_auc", None, None),
    ("evaluation.audit", "evaluation", "audit", None, None),
    ("adversarial.generate_evasive", "adversarial", "generate_evasive", None, None),
    ("adversarial.pair_sideinfo", "adversarial", "pair_sideinfo", None, None),
    ("cli.cmd_train", "cli", "cmd_train", None, None),
    ("cli.cmd_classify", "cli", "cmd_classify", None, None),
    ("cli.cmd_audit", "cli", "cmd_audit", None, None),
)


class Tracer:
    """In-memory span recorder: one row per call, aggregated on report."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items: Counter[str] = Counter()
        self.keys: dict[str, set] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, items=None, key=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self._stack)
        counts = self.items
        keys = self.keys.setdefault(name, set()) if key else None
        clock = time.perf_counter

        def open_span() -> int:
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            return i

        def close_span(i: int) -> None:
            end[i] = clock()
            stack.pop()

        if items == "yield":
            # one span per next() on the generator, so the consumer's work
            # between items is not charged to the producer
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(i)
                    counts[name] += 1
                    yield item
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if items is not None:
                counts[name] += items(args)
            if keys is not None:
                keys.add(key(args))
            i = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(i)
        return wrapper

    def install(self) -> None:
        """Wrap every target the program defines."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in {t[1] for t in TARGETS}}
        for span, mod_name, path, items, key in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(span, raw.__func__, items, key)))
            elif inspect.isclass(owner):
                setattr(owner, attr, self.wrap(span, raw, items, key))
            else:
                wrapped = self.wrap(span, raw, items, key)
                for mod in [m for n, m in sys.modules.items()
                            if n == PACKAGE or n.startswith(PACKAGE + ".")]:
                    for bound, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, bound, wrapped)

    def report(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, counted
        items and the number of distinct keys."""
        selfs = self_times(self.parent, self.start, self.end)
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "items": self.items.get(name, 0),
                      "distinct": len(self.keys.get(name, ()))}
               for name in self.names}
        for i, nid in enumerate(self.span_name):
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["s"] += self.end[i] - self.start[i]
            agg["self_s"] += selfs[i]
        return out

    @property
    def spans(self) -> int:
        return len(self.start)


def per_span_cost(n: int = 100_000, repeats: int = 5) -> float:
    """Seconds one traced call adds over a bare call, measured on a no-op."""
    def noop(x):
        return x

    samples = []
    for _ in range(repeats):
        traced = Tracer().wrap("noop", noop)
        t0 = time.perf_counter()
        for i in range(n):
            noop(i)
        t1 = time.perf_counter()
        for i in range(n):
            traced(i)
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / n)
    return max(statistics.median(samples), 0.0)
