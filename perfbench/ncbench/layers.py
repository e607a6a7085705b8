"""Spans recorded from outside the program, around calls into each layer.

:class:`SpanLog` replaces a public function (or method) with a wrapper
that records ``(name, start, end, parent)`` on a per-thread stack, so
nesting — and therefore self time — follows the real call tree. Spans
stay in memory and are written out once, when the traced process ends.

:data:`HOOKS` lists every boundary the traced run wraps, outermost layer
first. A hook whose target no longer exists is skipped and reported, so
a refactor of the program degrades the decomposition instead of
breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import threading
import time
from pathlib import Path


def _exact_attrs(args, kwargs) -> dict:
    """Shape of one exact test: outcome rows scored, streamed or cached."""
    pi_arr, _x, n = args[0], args[1], int(args[2])
    k = int((pi_arr > 0).sum())
    outcomes = math.comb(n + k - 1, k - 1)
    from repro.stats import multinomial

    cap = getattr(multinomial, "_OUTCOME_TABLE_MAX_ELEMENTS", None)
    return {
        "n": n,
        "k": k,
        "outcomes": outcomes,
        "streamed": cap is not None and outcomes * k > cap,
    }


def _mc_attrs(args, kwargs) -> dict:
    return {"outcomes": int(kwargs.get("samples", 20_000))}


def _distribution_attrs(args, kwargs) -> dict:
    labels = kwargs.get("labels", args[3] if len(args) > 3 else ())
    return {"labels": len(labels)}


#: ``(module, attribute path, span name, attribute extractor)``.
HOOKS: "tuple[tuple[str, str, str, object], ...]" = (
    ("repro.service.server", "NCRequestHandler.do_POST", "http.post", None),
    ("repro.service.server", "outcome_to_json", "server.serialize", None),
    ("repro.service.server", "create_server", "server.bind", None),
    ("repro.service.engine", "NCEngine.submit", "engine.submit", None),
    ("repro.service.engine", "NCEngine.pin", "engine.pin", None),
    ("repro.service.engine", "NCEngine.swap_snapshot", "engine.swap", None),
    ("repro.service.engine", "publish_snapshot", "shm.publish", None),
    ("repro.core.findnc", "FindNC.run", "findnc.run", None),
    ("repro.core.context", "RandomWalkContext.select", "context.ppr", None),
    ("repro.core.context", "RandomWalkContext.select_many", "context.ppr", None),
    (
        "repro.core.findnc",
        "build_all_distributions",
        "distributions.sweep",
        _distribution_attrs,
    ),
    (
        "repro.core.discrimination",
        "MultinomialDiscriminator.score",
        "discrimination.score",
        None,
    ),
    ("repro.stats.multinomial", "_exact_validated", "multinomial.exact", _exact_attrs),
    (
        "repro.stats.multinomial",
        "montecarlo_multinomial_test",
        "multinomial.mc",
        _mc_attrs,
    ),
    ("repro.stats.multinomial", "compositions_array", "multinomial.table_build", None),
    (
        "repro.stats.multinomial",
        "_cached_outcome_table",
        "multinomial.table_lookup",
        None,
    ),
    ("repro.cli", "load_dataset", "setup.graph", None),
    ("repro.disk", "open_snapshot_view", "store.open", None),
    ("repro.disk.registry", "SnapshotRegistry.append_delta", "delta.append", None),
    ("repro.disk.ingest", "StreamingCompiler.merge_delta", "ingest.merge", None),
)


class SpanLog:
    """In-memory spans with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self.marks: "dict[str, int]" = {}
        self.missing: "list[str]" = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def mark(self, name: str) -> None:
        """Record a named instant (``CLOCK_MONOTONIC`` ns)."""
        self.marks[name] = time.monotonic_ns()

    def _wrapper(self, original, name: str, extract):
        log = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = log._stack()
            attrs = extract(args, kwargs) if extract is not None else None
            span = [name, time.monotonic_ns(), 0, stack[-1] if stack else -1,
                    threading.get_ident(), attrs]
            with log._lock:
                index = len(log.spans)
                log.spans.append(span)
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                stack.pop()

        return wrapper

    def wrap(self, module_name: str, path: str, name: str, extract=None) -> bool:
        """Replace ``module.path`` with a recording wrapper."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{path}")
            return False
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(f"{module_name}.{path}")
                return False
        if inspect.isclass(owner):
            raw = inspect.getattr_static(owner, attr, None)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{module_name}.{path}")
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrapper(raw.__func__, name, extract))
        else:
            replacement = self._wrapper(raw, name, extract)
        setattr(owner, attr, replacement)
        return True

    def install(self, hooks=HOOKS) -> None:
        for module_name, path, name, extract in hooks:
            self.wrap(module_name, path, name, extract)

    def export(self) -> dict:
        """Spans, marks and skipped hooks as one JSON-ready dict."""
        with self._lock:
            spans = [list(span) for span in self.spans]
        return {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e or s, "parent": p,
                 "thread": t, "attrs": a}
                for n, s, e, p, t, a in spans
            ],
            "marks": self.marks,
            "missing": self.missing,
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.export()))


def self_times(spans: "list[dict]") -> "list[float]":
    """Seconds of each span not covered by its direct children.

    Children of one span run on the parent's thread and one after
    another, so their durations add up without overlap.
    """
    covered = [0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent >= 0:
            covered[parent] += span["end_ns"] - span["start_ns"]
    return [
        (span["end_ns"] - span["start_ns"] - covered[index]) / 1e9
        for index, span in enumerate(spans)
    ]


def in_window(spans: "list[dict]", start_ns: int, end_ns: int) -> "list[int]":
    """Indices of spans that started inside ``[start_ns, end_ns)``."""
    return [
        index
        for index, span in enumerate(spans)
        if start_ns <= span["start_ns"] < end_ns
    ]


def totals(spans: "list[dict]", indices: "list[int]") -> "dict[str, dict]":
    """Per span name: call count, total and self seconds, over ``indices``."""
    selfs = self_times(spans)
    out: "dict[str, dict]" = {}
    for index in indices:
        span = spans[index]
        entry = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (span["end_ns"] - span["start_ns"]) / 1e9
        entry["self_s"] += selfs[index]
    return out
