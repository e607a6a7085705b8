"""The ``saturated_batch`` serving process: an in-process engine under load.

Usage: ``python perfbench/engine_runner.py SPEC.json OUT.json``

``SPEC.json`` holds the snapshot path, the engine settings, the path of
the type table and the workload seed. Queries (entity-name lists) are
drawn lazily from the benchmark's own seeded stream, so a window of any
length never runs out of them; nothing but the generated queries and
the ingest batch reaches the program. The runner opens the snapshot,
builds an ``NCEngine`` with the process executor, answers the first
query (the end of set-up), then — unless the spec asks for set-up only
— keeps ``in_flight`` distinct queries outstanding through
``NCEngine.submit`` futures: an untimed warm-up prefix, then a window of
``seconds``. Timings, CPU and peak RSS of this process and its workers,
pool counters and a seeded sample of answers are written to
``OUT.json``. After the window, one delta batch is ingested through the
snapshot registry and the engine hot-swaps onto the merged version; a
few more queries are answered there. With
``"trace": true`` the layer hooks are installed and every request
carries a program trace, whose worker spans are exported too.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ncbench import generators  # noqa: E402
from ncbench.common import (  # noqa: E402
    StealMeter,
    cpu_seconds,
    peak_rss_mb,
    process_tree,
    require_program,
)


class _Loop:
    """Keeps ``width`` requests in flight, drawing queries from a stream.

    ``issued[i]`` is the ``i``-th query submitted.
    """

    def __init__(self, engine, stream, width: int, trace: bool) -> None:
        self.engine = engine
        self.stream = stream
        self.issued: "list[list[str]]" = []
        self.width = width
        self.trace = trace
        self.records: "list[dict]" = []
        # re-entrant: a future that is already done runs its callback inline
        self.lock = threading.RLock()
        self.done = threading.Condition(self.lock)
        self.inflight = 0

    @property
    def next_index(self) -> int:
        return len(self.issued)

    def _submit(self) -> None:
        index = self.next_index
        query = list(next(self.stream))
        self.issued.append(query)
        trace = self.engine.tracer.begin("bench.request") if self.trace else None
        started = time.monotonic()
        future, _cached, _coalesced, _version = self.engine.submit(query, trace=trace)
        self.inflight += 1
        future.add_done_callback(
            lambda f, i=index, t=started, tr=trace: self._finish(f, i, t, tr)
        )

    def _finish(self, future, index: int, started: float, trace) -> None:
        ended = time.monotonic()
        record = {"index": index, "start": started, "end": ended}
        try:
            record["result"] = future.result()
        except Exception as error:  # noqa: BLE001 - counted as a failed request
            record["error"] = repr(error)
        if trace is not None:
            record["spans"] = trace.as_dict()["spans"]
        with self.done:
            self.records.append(record)
            self.inflight -= 1
            self.done.notify()

    def run(self, count: "int | None", until: "float | None") -> None:
        """Submit until ``count`` queries are issued or ``until`` passes; drain."""
        with self.done:
            while True:
                if count is not None and self.next_index >= count:
                    break
                if until is not None and time.monotonic() >= until:
                    break
                while self.inflight < self.width and (
                    count is None or self.next_index < count
                ):
                    self._submit()
                self.done.wait(timeout=0.5)
            while self.inflight:
                self.done.wait(timeout=0.5)


def _notable(result) -> list:
    return [[c.label, c.score, c.channel, c.p_value] for c in result.notable]


def _ingest(engine, spec: dict, stream) -> dict:
    """After the window: append one delta batch, merge it, hot-swap, re-query.

    Runs the registry write path in-process (``append_delta``,
    ``merge_pending`` and the server's own ``reload_from_registry``) and
    times it up to the first answer served at the merged version. The
    swap outcome is returned so the harness can check the ingest was
    adopted.
    """
    from repro.disk import SnapshotRegistry
    from repro.disk.delta import parse_delta_lines
    from repro.service.server import reload_from_registry

    registry = SnapshotRegistry(spec["registry"], create=False)
    started = time.monotonic()
    registry.append_delta(parse_delta_lines(spec["ingest"].splitlines(), "tsv"))
    registry.merge_pending()
    swap = reload_from_registry(engine, registry)
    samples, visible = [], None
    for _ in range(spec["post_queries"]):
        query = list(next(stream))
        outcome = engine.request(query)
        if visible is None:
            visible = time.monotonic() - started
        samples.append(
            {"query": query, "version": outcome.graph_version,
             "notable": _notable(outcome.result)}
        )
    tip = registry.latest()
    return {
        "swapped": bool(swap.get("swapped")),
        "visible_s": visible,
        "merged_version": tip.version,
        "merged_path": tip.path,
        "chain_depth": len(tip.deltas),
        "samples": samples,
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    out_path = Path(sys.argv[2])
    require_program()
    log = None
    if spec["trace"]:
        from ncbench.layers import SpanLog

        log = SpanLog()
        log.install()
    from repro.disk import open_snapshot_view
    from repro.service.engine import EngineConfig, NCEngine

    marks = {"imported": time.monotonic()}
    view = open_snapshot_view(spec["snapshot"])
    engine = NCEngine(
        view,
        config=EngineConfig(
            executor="process",
            max_workers=spec["workers"],
            max_batch=spec["max_batch"],
            batch_window_ms=spec["batch_window_ms"],
            context_size=spec["context_size"],
            trace_sample_rate=1.0 if spec["trace"] else 0.0,
        ),
    )
    marks["engine_built"] = time.monotonic()
    types = json.loads(Path(spec["types"]).read_text())
    stream = generators.query_stream(types, spec["seed"], widths=(2,))
    out: dict = {"marks": marks}
    try:
        first = engine.tracer.begin("bench.first") if spec["trace"] else None
        engine.submit(list(next(stream)), trace=first)[0].result()
        marks["first_answer"] = time.monotonic()
        if first is not None:
            out["setup_spans"] = first.as_dict()["spans"]
        if spec["setup_only"]:
            return 0
        loop = _Loop(engine, stream, spec["in_flight"], spec["trace"])
        loop.run(count=spec["warmup"], until=None)
        warm = len(loop.records)
        tree = process_tree(os.getpid())
        before = engine.stats().as_dict()
        steal = StealMeter()
        steal.start()
        cpu_before = cpu_seconds(tree)
        marks["window_start"] = time.monotonic()
        loop.run(count=None, until=marks["window_start"] + spec["seconds"])
        marks["window_end"] = time.monotonic()
        tree = process_tree(os.getpid())
        out["cpu_s"] = cpu_seconds(tree) - cpu_before
        out["steal"] = steal.stop()
        out["peak_rss_mb"] = peak_rss_mb(tree)
        out["processes"] = len(tree)
        out["stats_before"] = before
        out["stats_after"] = engine.stats().as_dict()
        window = sorted(loop.records[warm:], key=lambda r: r["index"])
        out["requests"] = [
            {
                "index": r["index"],
                "query": loop.issued[r["index"]],
                "latency_s": r["end"] - r["start"],
                "end": r["end"],
                "error": r.get("error"),
            }
            for r in window
        ]
        if spec["trace"]:
            out["traces"] = [r["spans"] for r in window if "spans" in r]
        ok = [r for r in window if "result" in r]
        picks = random.Random(spec["seed"]).sample(
            ok, min(spec["sample"], len(ok))
        )
        out["samples"] = [
            {"query": loop.issued[r["index"]], "notable": _notable(r["result"])}
            for r in picks
        ]
        out["ingest"] = _ingest(engine, spec, stream)
    finally:
        engine.close()
        view.close()
        if log is not None:
            out["hooks"] = log.export()
        out_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
