"""The workloads, each in an untraced and a traced form.

A *segment* is one serving process under load: fresh set-up (repeated
``reps`` times, the last process kept), an untimed warm-up prefix, then
a closed-loop window. An untraced run is one segment and reports the
end-to-end metrics. A traced run is two half-length segments on the
same inputs — untraced, then traced — and reports the per-layer
metrics of the traced one plus the latency difference between the two
(the tracing overhead). The correctness check always runs after the
segment's server has stopped, outside every timed window.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from ncbench import check, generators, layers
from ncbench.client import HttpClient, ServerProcess
from ncbench.common import (
    BENCH_DIR,
    ROOT,
    BenchError,
    StealMeter,
    cached_dir,
    child_env,
    cpu_seconds,
    latency_summary,
    peak_rss_mb,
    process_tree,
)

ALPHA = 0.05
#: ``repro serve``'s default ``--seed`` (the HTTP workloads serve with it).
SERVE_SEED = 11
#: ``EngineConfig``'s default ``seed`` (the in-process engine uses it).
ENGINE_SEED = 0
PAPER_CONTEXT = 100
BATCH_CONTEXT = 5
BATCH_IN_FLIGHT = 16
#: Seed of the ``paper_default`` set-up query. It is the same in every
#: run, so ``setup_s`` measures the boot and not the cost of one query
#: of the measured mix (which ranges from 10 ms to 0.5 s).
SETUP_QUERY_SEED = 0


@dataclass
class Settings:
    """Sizes of one run; :meth:`smoke` shrinks them for the self-tests."""

    seed: int
    seconds: float
    scratch: Path
    paper_setup_reps: int = 7
    batch_setup_reps: int = 3
    scale: float = 2.0
    batch_scale: float = 32.0
    min_members: int = 10
    paper_warmup: int = 8
    paper_sample: int = 8
    batch_warmup: int = 64
    batch_sample: int = 16
    batch_post_queries: int = 4

    @classmethod
    def smoke(cls, seed: int, seconds: float, scratch: Path) -> "Settings":
        return cls(
            seed=seed, seconds=seconds, scratch=scratch, paper_setup_reps=1,
            batch_setup_reps=1, scale=0.5,
            batch_scale=0.5, min_members=4, paper_warmup=2, paper_sample=3,
            batch_warmup=16, batch_sample=4,
        )


@dataclass
class Segment:
    """What one serving process did: set-up times, window records, counters.

    ``records`` holds ``(query, status, payload, latency_s)`` per search
    in the window; ``extra`` carries workload-specific results.
    """

    setups: "list[float]"
    launched_at: float
    window: "_Window"
    records: list
    ops: int
    failed: int
    rss_mb: float
    stats_before: dict
    stats_after: dict
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> list:
        return [r for r in self.records if r[1] == 200]

    @property
    def latencies(self) -> "list[float]":
        return [r[3] for r in self.ok]


@dataclass
class Outcome:
    """Operation counts, checked answers and broken invariants of one run.

    A run is correct when every checked answer matched and no workload
    invariant was broken (``violations`` names each broken one).
    """

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    wrong: int = 0
    violations: "list[str]" = field(default_factory=list)
    metrics: "dict[str, tuple[float, str]]" = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.checked > 0 and not self.violations

    def count(self, segment: Segment) -> None:
        self.attempted += segment.ops
        self.failed += segment.failed
        # every query is distinct, so a result-cache hit means the
        # workload no longer measures computed answers
        ratio = _hit_ratio(segment.stats_before, segment.stats_after)
        if ratio != 0:
            self.violations.append(f"cache_hit_ratio {ratio:g} (must be 0)")

    def compare(self, served, expected) -> None:
        self.checked += len(expected)
        self.wrong += len(check.mismatches(served, expected))


class _Window:
    """CPU, steal and wall time of one measured window over a process tree.

    The harness's own garbage collector is paused inside the window: a
    full collection over thousands of recorded responses would otherwise
    land inside some request's timer and show up as server latency.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid

    def __enter__(self) -> "_Window":
        gc.disable()
        self._steal = StealMeter()
        self._steal.start()
        self._cpu = cpu_seconds(process_tree(self.pid))
        self.start = time.monotonic()
        self.start_ns = time.monotonic_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.monotonic()
        self.end_ns = time.monotonic_ns()
        try:
            tree = process_tree(self.pid)
            self.cpu_s = cpu_seconds(tree) - self._cpu
            self.steal = self._steal.stop()
            self.processes = len(tree)
        finally:
            gc.enable()

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _hit_ratio(before: dict, after: dict) -> float:
    requests = after["requests"] - before["requests"]
    return (after["cache_hits"] - before["cache_hits"]) / max(requests, 1)


def end_to_end(segment: Segment) -> "dict[str, tuple[float, str]]":
    """The end-to-end metrics every workload reports."""
    summary = latency_summary(segment.latencies)
    completed = segment.ops - segment.failed
    return {
        "setup_s": (statistics.median(segment.setups), "s"),
        "throughput_rps": (completed / segment.window.seconds, "1/s"),
        "latency_p50_s": (summary["p50"], "s"),
        "latency_p90_s": (summary["p90"], "s"),
        "cpu_s_per_request": (segment.window.cpu_s / max(completed, 1), "s"),
        "peak_rss_mb": (segment.rss_mb, "MB"),
    }


def window_details(segment: Segment) -> dict:
    window = segment.window
    return {
        "window_s": window.seconds,
        "operations": segment.ops,
        "steal_fraction": window.steal,
        "serving_processes": window.processes,
        "search_latency": latency_summary(segment.latencies),
        "setup_samples_s": segment.setups,
        "cache_hit_ratio": _hit_ratio(segment.stats_before, segment.stats_after),
    }


# -- HTTP plumbing ------------------------------------------------------------


def _load_graph(scale: float):
    from repro.datasets.loader import load_dataset

    return load_dataset("yago", scale=scale)


def _serve_argv(flags: "list[str]", spans: "Path | None") -> "list[str]":
    if spans is None:
        return [sys.executable, "-m", "repro", "serve", "--port", "0", *flags]
    launcher = str(BENCH_DIR / "serve_launcher.py")
    return [sys.executable, launcher, str(spans), "serve", "--port", "0", *flags]


def _boot(argv, log_path: Path, first_query) -> "tuple[ServerProcess, HttpClient, float]":
    """Launch a server and time it to its first search answer."""
    server = ServerProcess(argv, log_path)
    server.start()
    client = server.client()
    try:
        status, payload, _ = client.search(first_query)
        ready = time.monotonic()
        if status != 200:
            raise BenchError(f"first search answered {status}: {payload}")
    except BaseException:
        client.close()
        server.stop()
        raise
    return server, client, ready - server.launched_at


def _boot_repeated(flags, first_query, reps: int, spans, scratch: Path, tag: str):
    """Set up ``reps`` fresh servers; keep the last one running."""
    setups = []
    for rep in range(reps):
        server, client, setup_s = _boot(
            _serve_argv(flags, spans if rep + 1 == reps else None),
            scratch / f"{tag}-{rep}.log",
            first_query,
        )
        setups.append(setup_s)
        if rep + 1 < reps:
            client.close()
            server.stop()
    return server, client, setups


def _search(client, query, records: list) -> "dict | None":
    status, payload, latency = client.search(query)
    records.append((query, status, payload, latency))
    return payload if status == 200 else None


def _traced(settings: "Settings", outcome: "Outcome", segment, checker, metrics):
    """An untraced then a traced segment, half the window each.

    ``segment(seconds, spans_path, tag)`` runs one segment, ``checker``
    checks one, and ``metrics(traced, plain, hooks)`` builds the layer
    metrics. Returns the traced segment.
    """
    half = settings.seconds / 2.0
    plain = segment(half, None, "plain")
    spans_path = settings.scratch / "spans.json"
    traced = segment(half, spans_path, "traced")
    # HTTP servers dump their hooks at exit; the engine runner returns them
    hooks = (
        json.loads(spans_path.read_text()) if spans_path.exists()
        else traced.extra["hooks"]
    )
    for run in (plain, traced):
        outcome.count(run)
        checker(run)
    outcome.metrics = metrics(traced, plain, hooks)
    outcome.details = {
        "violations": outcome.violations,
        "missing_hooks": hooks["missing"],
        "traced_window": window_details(traced),
        "plain_window": window_details(plain),
    }
    return traced


# -- paper_default ------------------------------------------------------------


def _paper_segment(settings, types, seconds, spans, reps, tag) -> Segment:
    """One ``repro serve`` over the generated dataset under distinct searches."""
    flags = [
        "--dataset", "yago", "--scale", str(settings.scale), "--executor", "thread",
        "--context-size", str(PAPER_CONTEXT), "--alpha", str(ALPHA),
    ]
    first = _setup_query(types)
    stream = (
        query for query in generators.query_stream(types, settings.seed)
        if set(query) != set(first)
    )
    warmup = generators.take(stream, settings.paper_warmup)
    server, client, setups = _boot_repeated(
        flags, first, reps, spans, settings.scratch, tag
    )
    try:
        for query in warmup:
            client.search(query)
        before = client.get("/v1/stats")
        records: list = []
        with _Window(server.pid) as window:
            until = window.start + seconds
            for query in stream:
                if time.monotonic() >= until:
                    break
                _search(client, query, records)
        after = client.get("/v1/stats")
        rss = peak_rss_mb(process_tree(server.pid))
    finally:
        client.close()
        server.stop()
    return Segment(
        setups=setups, launched_at=server.launched_at, window=window,
        records=records, ops=len(records),
        failed=sum(1 for r in records if r[1] != 200), rss_mb=rss,
        stats_before=before, stats_after=after,
    )


def _setup_query(types: "dict[str, list[str]]") -> tuple:
    """The ``paper_default`` set-up query: one fixed width-2 query."""
    return next(generators.query_stream(types, SETUP_QUERY_SEED, widths=(2,)))


def paper_default(settings: Settings, trace: bool) -> Outcome:
    """Distinct Table-1-shaped queries at ``context_size=100``: the statistics layer."""
    graph = _load_graph(settings.scale)
    types = generators.type_members(graph, min_members=settings.min_members)
    outcome = Outcome()

    def segment(seconds, spans, tag, reps=1) -> Segment:
        return _paper_segment(settings, types, seconds, spans, reps, tag)

    def checker(run: Segment) -> None:
        picks = random.Random(settings.seed).sample(
            run.ok, min(settings.paper_sample, len(run.ok))
        )
        expected = check.findnc_reference(
            graph, [r[0] for r in picks], context_size=PAPER_CONTEXT, alpha=ALPHA,
            seed=SERVE_SEED,
        )
        outcome.compare([check.notable_of_json(r[2]) for r in picks], expected)

    if trace:
        _traced(settings, outcome, segment, checker, http_layer_metrics)
        return outcome
    run = segment(settings.seconds, None, "paper", settings.paper_setup_reps)
    outcome.count(run)
    checker(run)
    outcome.metrics = end_to_end(run)
    outcome.details = {"violations": outcome.violations, **window_details(run)}
    return outcome


# -- saturated_batch ------------------------------------------------------------


def _batch_inputs(settings: Settings) -> "tuple[Path, Path, list]":
    """The compiled snapshot, the path of its type table and an edge
    sample, built once per program version."""
    from repro.datasets.loader import to_snapshot

    def build(directory: Path) -> None:
        graph = _load_graph(settings.batch_scale)
        types = generators.type_members(graph, min_members=settings.min_members)
        (directory / "types.json").write_text(json.dumps(types))
        # every 8th edge is plenty to draw one ingest batch per run from
        edges = generators.entity_edges(graph)[::8]
        (directory / "edges.json").write_text(json.dumps(edges))
        to_snapshot("yago", directory / "graph.snap", scale=settings.batch_scale)

    directory = cached_dir(f"batch-inputs-{settings.batch_scale:g}", build)
    return (
        directory / "graph.snap",
        directory / "types.json",
        [tuple(edge) for edge in json.loads((directory / "edges.json").read_text())],
    )


def _batch_segment(settings, registry, ingest: str, types: Path, seconds, trace,
                   reps, tag) -> Segment:
    """Run the engine runner ``reps`` times; the last run carries the load."""
    spec = {
        "snapshot": str(registry.latest().path),
        "registry": str(registry.directory),
        "ingest": ingest,
        "post_queries": settings.batch_post_queries,
        "workers": 1,
        "max_batch": 16,
        "batch_window_ms": 30.0,
        "context_size": BATCH_CONTEXT,
        "in_flight": BATCH_IN_FLIGHT,
        "warmup": settings.batch_warmup,
        "seconds": seconds,
        "sample": settings.batch_sample,
        "seed": settings.seed,
        "types": str(types),
    }
    setups = []
    for rep in range(reps):
        last = rep + 1 == reps
        spec.update(setup_only=not last, trace=trace and last)
        spec_path = settings.scratch / f"{tag}-spec.json"
        out_path = settings.scratch / f"{tag}-{rep}.json"
        spec_path.write_text(json.dumps(spec))
        with open(settings.scratch / f"{tag}-{rep}.log", "wb") as log:
            launched = time.monotonic()
            # its own session, so a hung runner is killed with its worker
            process = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "engine_runner.py"),
                 str(spec_path), str(out_path)],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=child_env(),
                start_new_session=True,
            )
            try:
                code = process.wait(timeout=seconds + 150)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                raise BenchError(f"engine runner {tag}-{rep} timed out") from None
        if code != 0 or not out_path.exists():
            tail = (settings.scratch / f"{tag}-{rep}.log").read_text()[-2000:]
            raise BenchError(f"engine runner {tag}-{rep} failed ({code}):\n{tail}")
        out = json.loads(out_path.read_text())
        setups.append(out["marks"]["first_answer"] - launched)
    window = _Window(0)
    window.start, window.end = out["marks"]["window_start"], out["marks"]["window_end"]
    window.start_ns, window.end_ns = int(window.start * 1e9), int(window.end * 1e9)
    window.cpu_s, window.steal = out["cpu_s"], out["steal"]
    window.processes = out["processes"]
    records = [
        (r["query"], 500 if r["error"] else 200, None, r["latency_s"])
        for r in out["requests"]
    ]
    out["snapshot"] = spec["snapshot"]
    return Segment(
        setups=setups, launched_at=launched, window=window, records=records,
        ops=len(records), failed=sum(1 for r in records if r[1] != 200),
        rss_mb=out["peak_rss_mb"], stats_before=out["stats_before"],
        stats_after=out["stats_after"], extra=out,
    )


def _batch_details(segment: Segment) -> dict:
    before = segment.stats_before["workers"]
    after = segment.stats_after["workers"]
    batches = after["batches"] - before["batches"]
    members = after["batched_members"] - before["batched_members"]
    return {"batches": batches, "mean_batch_size": members / max(batches, 1)}


def saturated_batch(settings: Settings, trace: bool) -> Outcome:
    """16 width-2 queries in flight on one batching worker: batching, IPC, PPR.

    After the window, the runner ingests one delta batch through the
    snapshot registry and hot-swaps: the write path, timed per layer. The
    ingest is one more attempted operation; it fails unless it is
    adopted.
    """
    from repro.disk import SnapshotRegistry, open_snapshot_view

    snapshot, types_path, edges = _batch_inputs(settings)
    types = json.loads(types_path.read_text())
    ingest = next(generators.ingest_batches(edges, types, settings.seed))
    outcome = Outcome()

    def compare(path: str, samples: list) -> None:
        view = open_snapshot_view(path)
        try:
            expected = check.findnc_reference(
                view, [tuple(s["query"]) for s in samples],
                context_size=BATCH_CONTEXT, alpha=ALPHA, seed=ENGINE_SEED,
            )
        finally:
            view.close()
        outcome.compare([[tuple(n) for n in s["notable"]] for s in samples], expected)

    def checker(segment: Segment) -> None:
        compare(segment.extra["snapshot"], segment.extra["samples"])
        # post-swap answers against the merged snapshot
        compare(segment.extra["ingest"]["merged_path"],
                segment.extra["ingest"]["samples"])
        outcome.attempted += 1
        if not _ingest_details(segment)["ingest_adopted"]:
            outcome.failed += 1
            outcome.violations.append("the post-window ingest was not adopted")

    def segment(seconds, trace_on, tag, reps=1) -> Segment:
        registry = SnapshotRegistry(settings.scratch / f"{tag}-registry")
        registry.publish_snapshot_file(snapshot)
        return _batch_segment(
            settings, registry, ingest, types_path, seconds, trace_on, reps, tag
        )

    if trace:
        traced = _traced(
            settings, outcome,
            lambda seconds, spans, tag: segment(seconds, spans is not None, tag),
            checker, batch_layer_metrics,
        )
        outcome.details["batching"] = _batch_details(traced)
        outcome.details["ingest"] = _ingest_details(traced)
        return outcome
    run = segment(settings.seconds, False, "batch", settings.batch_setup_reps)
    outcome.count(run)
    checker(run)
    outcome.metrics = end_to_end(run)
    outcome.details = {"violations": outcome.violations, **window_details(run)}
    outcome.details["batching"] = _batch_details(run)
    outcome.details["ingest"] = _ingest_details(run)
    return outcome


def _ingest_details(segment: Segment) -> dict:
    """The post-window ingest: adopted when the engine swapped, the chain
    grew by one and every post-swap answer came from the merged version."""
    ingest = segment.extra["ingest"]
    return {
        "visible_s": ingest["visible_s"],
        "chain_depth": ingest["chain_depth"],
        "swapped": ingest["swapped"],
        "ingest_adopted": ingest["swapped"] and ingest["chain_depth"] == 1 and all(
            s["version"] == ingest["merged_version"] for s in ingest["samples"]
        ),
    }


# -- per-layer metrics ------------------------------------------------------------

#: Every per-layer metric with its unit, in the order they are printed.
#: ``/req`` units are totals over the traced window per completed search.
LAYER_UNITS: "dict[str, str]" = {
    "multinomial.exact_calls": "count/req",
    "multinomial.exact_s": "s/req",
    "multinomial.mc_calls": "count/req",
    "multinomial.mc_s": "s/req",
    "multinomial.streamed_calls": "count/req",
    "multinomial.table_builds": "count/req",
    "multinomial.table_hit_ratio": "ratio",
    "multinomial.outcomes": "count/req",
    "multinomial.compute_share": "ratio",
    "discrimination.score_s": "s/req",
    "discrimination.tests_per_request": "count/req",
    "context.ppr_s": "s/req",
    "context.batch_share": "ratio",
    "distributions.sweep_s": "s/req",
    "distributions.candidate_labels": "count/req",
    "workers.batches": "count",
    "workers.mean_batch_size": "count",
    "workers.batch_s": "s",
    "workers.gather_s": "s/req",
    "workers.ipc_s": "s/req",
    "workers.attach_s": "s",
    "shm.publish_s": "s",
    "engine.submit_s": "s/req",
    "engine.cache_hit_ratio": "ratio",
    "engine.compute_s": "s",
    "engine.pin_s": "s",
    "engine.swap_s": "s",
    "server.overhead_p50_s": "s",
    "server.serialize_s": "s/req",
    "delta.append_s": "s",
    "ingest.merge_s": "s",
    "ingest.visible_s": "s",
    "registry.chain_depth": "count",
    "store.open_s": "s",
    "setup.import_s": "s",
    "setup.graph_s": "s",
    "setup.first_answer_s": "s",
    "tracing.overhead": "ratio",
}


def _duration(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _overhead(plain: Segment, traced: Segment) -> float:
    """Traced over untraced latency on the searches both segments answered."""
    common = min(len(plain.records), len(traced.records))
    pairs = [
        (p[3], t[3])
        for p, t in zip(plain.records[:common], traced.records[:common])
        if p[1] == 200 and t[1] == 200
    ]
    base = sum(p for p, _ in pairs)
    return sum(t for _, t in pairs) / base - 1.0 if base else 0.0


class _HookView:
    """Sums over the in-process hook spans of one traced segment."""

    def __init__(self, hooks: dict, segment: Segment) -> None:
        self.spans = hooks["spans"]
        self.marks = hooks["marks"]
        window = segment.window
        self.inside = layers.in_window(self.spans, window.start_ns, window.end_ns)
        self.sums = layers.totals(self.spans, self.inside)
        self.requests = max(len(segment.ok), 1)

    def named(self, name: str, *, window: bool = True) -> "list[dict]":
        indices = self.inside if window else range(len(self.spans))
        return [self.spans[i] for i in indices if self.spans[i]["name"] == name]

    def total(self, name: str) -> float:
        return self.sums.get(name, {}).get("total_s", 0.0)

    def calls(self, name: str) -> int:
        return self.sums.get(name, {}).get("calls", 0)

    def per_request(self, name: str) -> float:
        return self.total(name) / self.requests

    def mean_all(self, name: str) -> float:
        return _mean(_duration(s) for s in self.named(name, window=False))

    def longest(self, name: str) -> float:
        return max((_duration(s) for s in self.named(name, window=False)), default=0.0)


def _zero_layers() -> dict:
    return {name: 0.0 for name in LAYER_UNITS}


def _with_units(metrics: dict) -> dict:
    return {name: (metrics[name], unit) for name, unit in LAYER_UNITS.items()}


def http_layer_metrics(traced: Segment, plain: Segment, hooks: dict) -> dict:
    """Per-layer metrics of a traced HTTP segment (thread executor)."""
    view = _HookView(hooks, traced)
    requests = view.requests
    exact = view.named("multinomial.exact")
    mc = view.named("multinomial.mc")
    lookups = view.calls("multinomial.table_lookup")
    misses = [r for r in traced.ok if not r[2]["cached"]]
    compute = view.total("findnc.run")
    first_answer_ns = int((traced.launched_at + traced.setups[-1]) * 1e9)
    bind = view.named("server.bind", window=False)
    graph_spans = view.named("setup.graph", window=False)
    metrics = _zero_layers()
    metrics.update({
        "multinomial.exact_calls": len(exact) / requests,
        "multinomial.exact_s": view.per_request("multinomial.exact"),
        "multinomial.mc_calls": len(mc) / requests,
        "multinomial.mc_s": view.per_request("multinomial.mc"),
        "multinomial.streamed_calls": sum(
            1 for s in exact if s["attrs"]["streamed"]
        ) / requests,
        "multinomial.table_builds": view.calls("multinomial.table_build") / requests,
        "multinomial.table_hit_ratio": (
            1.0 - view.calls("multinomial.table_build") / lookups if lookups else 0.0
        ),
        "multinomial.outcomes": sum(
            s["attrs"]["outcomes"] for s in exact + mc
        ) / requests,
        "multinomial.compute_share": (
            (view.total("multinomial.exact") + view.total("multinomial.mc")) / compute
            if compute else 0.0
        ),
        "discrimination.score_s": view.per_request("discrimination.score"),
        "discrimination.tests_per_request": view.calls("discrimination.score") / requests,
        "context.ppr_s": view.per_request("context.ppr"),
        "distributions.sweep_s": view.per_request("distributions.sweep"),
        "distributions.candidate_labels": sum(
            s["attrs"]["labels"] for s in view.named("distributions.sweep")
        ) / requests,
        "shm.publish_s": view.mean_all("shm.publish"),
        "engine.submit_s": view.per_request("engine.submit"),
        "engine.cache_hit_ratio": (len(traced.ok) - len(misses)) / requests,
        "engine.compute_s": _mean(r[2]["elapsed"]["request_s"] for r in misses),
        "engine.pin_s": view.longest("engine.pin"),
        "server.overhead_p50_s": statistics.median(
            r[3] - r[2]["elapsed"]["request_s"] for r in traced.ok
        ) if traced.ok else 0.0,
        "server.serialize_s": view.per_request("server.serialize"),
        "setup.import_s": view.marks.get("imported", 0) / 1e9 - traced.launched_at,
        "setup.graph_s": _duration(graph_spans[0]) if graph_spans else 0.0,
        "setup.first_answer_s": (
            (first_answer_ns - bind[0]["end_ns"]) / 1e9 if bind else 0.0
        ),
        "tracing.overhead": _overhead(plain, traced),
    })
    return _with_units(metrics)


def batch_layer_metrics(traced: Segment, plain: Segment, hooks: dict) -> dict:
    """Per-layer metrics of a traced ``saturated_batch`` segment.

    Worker-side phases come from the program's own spans, stitched into
    each request's trace. The shared PPR and sweep spans of a batch are
    attached to every member, so they are counted once per batch.
    """
    view = _HookView(hooks, traced)
    requests = view.requests
    batches: "dict[int, dict]" = {}
    shared: "dict[tuple, float]" = {}
    gather = []
    for spans in traced.extra["traces"]:
        worker = [s for s in spans if s["name"] == "pool.worker"]
        if not worker:
            continue
        batch = batches.setdefault(
            worker[0]["start_ns"], {"start": worker[0]["start_ns"], "end": None,
                                    "work_s": 0.0}
        )
        end = worker[0]["end_ns"]
        batch["end"] = end if batch["end"] is None else min(batch["end"], end)
        for span in spans:
            name = span["name"]
            if name == "pool.gather":
                gather.append(_duration(span))
            elif name in ("worker.ppr", "worker.sweep", "worker.attach"):
                key = (name, span["start_ns"], span["end_ns"])
                if key not in shared:
                    shared[key] = _duration(span)
                    batch["work_s"] += shared[key]
            elif name in ("worker.discriminate", "worker.execute"):
                batch["work_s"] += _duration(span)
    batch_times = [(b["end"] - b["start"]) / 1e9 for b in batches.values()]
    ipc = sum(t - b["work_s"] for t, b in zip(batch_times, batches.values()))

    def phase(name: str) -> float:
        return sum(v for (n, _, _), v in shared.items() if n == name)

    discriminate = sum(
        _duration(s)
        for spans in traced.extra["traces"]
        for s in spans
        if s["name"] in ("worker.discriminate", "worker.execute")
    )
    details = _batch_details(traced)
    marks = traced.extra["marks"]
    metrics = _zero_layers()
    metrics.update({
        "discrimination.score_s": discriminate / requests,
        "context.ppr_s": phase("worker.ppr") / requests,
        "context.batch_share": phase("worker.ppr") / sum(batch_times) if batch_times else 0.0,
        "distributions.sweep_s": phase("worker.sweep") / requests,
        "workers.batches": details["batches"],
        "workers.mean_batch_size": details["mean_batch_size"],
        "workers.batch_s": _mean(batch_times),
        "workers.gather_s": sum(gather) / requests,
        "workers.ipc_s": ipc / requests,
        "workers.attach_s": sum(
            _duration(s) for s in traced.extra.get("setup_spans", [])
            if s["name"] == "worker.attach"
        ),
        "shm.publish_s": view.mean_all("shm.publish"),
        "engine.submit_s": view.per_request("engine.submit"),
        "engine.cache_hit_ratio": _hit_ratio(traced.stats_before, traced.stats_after),
        "engine.compute_s": _mean(traced.latencies),
        "engine.pin_s": view.longest("engine.pin"),
        "store.open_s": view.mean_all("store.open"),
        "delta.append_s": view.mean_all("delta.append"),
        "ingest.merge_s": view.mean_all("ingest.merge"),
        "engine.swap_s": view.mean_all("engine.swap"),
        "ingest.visible_s": traced.extra["ingest"]["visible_s"],
        "registry.chain_depth": traced.extra["ingest"]["chain_depth"],
        "setup.import_s": marks["imported"] - traced.launched_at,
        "setup.graph_s": _duration(view.named("store.open", window=False)[0]),
        "setup.first_answer_s": marks["first_answer"] - marks["engine_built"],
        "tracing.overhead": _overhead(plain, traced),
    })
    return _with_units(metrics)
