"""Span recorder that times calls into ``fatpoints`` from outside the package.

The program carries no tracing of its own, so the benchmark wraps the
functions at each layer boundary.  A name bound by ``from ... import`` is a
separate reference in every importing module, so each wrapper replaces the
original in *every* loaded ``fatpoints`` module that binds it; patching only
the defining module would miss, for example, ``verify``'s own
``_rank_of_int_rows``.  A function that no longer exists is recorded as
absent instead of failing the run.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out once at the end.  Work done by the tracer itself (the size
counters) is recorded as ``trace.hook`` spans, so it is subtracted from the
self time of the span it happens in.

This module must not import ``fatpoints``: the CLI bootstrap imports it
before timing the program's import.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter

HOOK = "trace.hook"
OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def begin(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf()
        return rec

    def end(self, rec: list) -> None:
        rec[2] = perf()
        self._stack.pop()

    def wrap(self, name: str, func, before=None, after=None):
        """Wrapper recording one span per call; ``before`` may replace the
        arguments (to materialize an iterator it wants to measure) and
        ``after`` sees the result.  Both run inside ``trace.hook`` spans."""

        def wrapper(*args, **kwargs):
            if before is not None:
                hook = self.begin(HOOK)
                args = before(self, args)
                self.end(hook)
            rec = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(rec)
            if after is not None:
                hook = self.begin(HOOK)
                after(self, args, result)
                self.end(hook)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self, targets) -> None:
        """Patch each ``(module, attribute, span name, before, after)``."""
        loaded = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "fatpoints" or key.startswith("fatpoints.")
        ]
        for module_name, attr, name, before, after in targets:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, before, after)
            for mod in loaded:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)

    def dump(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc.update(
            spans=self.spans, counters=self.counters, maxima=self.maxima, absent=self.absent
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


# --- size counters taken at the layer boundaries -------------------------


def _before_rank(tracer: Tracer, args):
    rows, ncols = args[0], args[1]
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    nnz = 0
    bits = 0
    for row in rows:
        nnz += len(row)
        for v in row.values():
            b = v.bit_length()
            if b > bits:
                bits = b
    tracer.count("rank_cells", len(rows) * ncols)
    tracer.count("rank_nnz", nnz)
    tracer.peak("rank_max_bits", bits)
    return (rows,) + tuple(args[1:])


def _after_nullspace(tracer: Tracer, args, result):
    tracer.count("nullspace_vectors", len(result))


def _after_rows(tracer: Tracer, args, result):
    rows = result[0]
    tracer.count("rows_built", len(rows))
    tracer.count("rows_nonempty", sum(1 for r in rows if r))


def _after_json(tracer: Tracer, args, result):
    tracer.count("json_bytes", len(result.encode("utf-8")))


CHECKS = ("reg_invariance", "stable_range", "transfer", "cor46", "prop44", "lemma23", "rnc")

TARGETS = [
    ("fatpoints.exactlinalg", "_rank_of_int_rows", "exactlinalg.rank", _before_rank, None),
    ("fatpoints.exactlinalg", "_sparse_nullspace", "exactlinalg.nullspace", None, _after_nullspace),
    ("fatpoints.hilbert", "hilbert_function", "hilbert.h", None, None),
    ("fatpoints.hilbert", "_conditions_int_rows", "hilbert.rows", None, _after_rows),
    ("fatpoints.scheme", "embed", "scheme.embed", None, None),
    ("fatpoints.scheme", "truncate", "scheme.truncate", None, None),
    ("fatpoints.scheme", "scheme_fingerprint", "scheme.fingerprint", None, None),
    ("fatpoints.scheme", "scheme_from_json", "scheme.parse", None, None),
    ("fatpoints.verify", "check_restriction_range", "verify.restriction", None, None),
    ("fatpoints.verify", "report_to_json", "verify.json", None, _after_json),
] + [
    ("fatpoints.verify", "check_" + check, "verify." + check, None, None)
    for check in CHECKS
]


def rank_cache(hilbert_module):
    """The Hilbert layer's rank cache, if it still exposes ``cache_info``."""
    cached = getattr(hilbert_module, "_rank_at_degree", None)
    return cached if hasattr(cached, "cache_info") else None


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, and the longest call.

    Self time is a span's duration minus the time its direct children cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        dur = end - start
        s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "max": 0.0})
        s["calls"] += 1
        s["total"] += dur
        s["self"] += dur - child[i]
        s["max"] = max(s["max"], dur)
    return out


def merge_summaries(into: dict, other: dict) -> None:
    for name, s in other.items():
        t = into.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "max": 0.0})
        t["calls"] += s["calls"]
        t["total"] += s["total"]
        t["self"] += s["self"]
        t["max"] = max(t["max"], s["max"])
