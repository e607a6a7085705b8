"""Throughput/latency benchmark for the query service (``repro bench-serve``).

Phases, all on the same built-in dataset and seeded (deterministic
workload; queries are Table-1 entity sets sent as fuzzy display names,
the way API clients spell entities):

* **cold latency** — every distinct query computed once through the
  engine on an empty cache, one at a time. Doubles as the engine's
  single-thread distinct-query throughput.
* **warm latency** — the same queries again, all cache hits; the
  cold/warm ratio is the cached-hit speedup (acceptance: >= 10x).
* **sequential vs concurrent traffic** — a realistic trace (a few hot
  queries repeated, a tail of one-off queries, deterministically
  shuffled) served two ways: the *single-thread sequential* baseline is
  the pre-service stateless path (a fresh ``rw_mult`` finder computes
  every request, exactly what ``repro search`` does per invocation); the
  *concurrent* run pushes the same trace through the engine's 4-wide
  executor, where the version-keyed cache serves repeats and
  single-flight coalesces duplicates in flight. The throughput ratio is
  what the service layer buys under real traffic (acceptance: > 1x).
* **concurrent distinct (transparency)** — the distinct-query-only trace
  through the executor, reported with ``cpu_count``: on a single-CPU
  host the GIL bounds this at ~1x engine-sequential; on multi-core hosts
  the numpy/BLAS kernels release the GIL and it rises above.
* **backend comparison** — the same distinct-query traffic through the
  thread backend and the shared-memory **process** backend
  (``executor="process"``), with a full result-parity check: both
  backends must return identical labels and scores for every query.
  Distinct queries are the traffic class the GIL caps, so this ratio is
  what the process pool buys; it only exceeds 1x on multi-core hosts
  (``cpu_count`` is recorded so single-core runs read honestly).
* **cold start** (PR 4) — boot-time comparison for the same graph:
  the legacy path (parse the N-Triples dump, rebuild the dict graph,
  recompile the columnar snapshot) vs the snapshot store (one
  ``mmap`` open of the compiled file, :mod:`repro.disk`). The one-time
  ``repro compile`` cost and file size are recorded alongside; the
  speedup must clear 10x (asserted).
* **snapshot serving** (PR 4) — the distinct queries served by an
  engine over the mmapped snapshot *view* (no ``KnowledgeGraph`` in the
  process), asserted identical to the live-graph thread engine's
  results.
* **hot swap** (PR 5) — the serve-v2-while-v1-drains scenario: two
  content-identical versions published into a
  :class:`~repro.disk.registry.SnapshotRegistry`, an engine booted on
  v1 under sustained multi-client traffic, then
  :meth:`~repro.service.engine.NCEngine.swap_snapshot` onto v2
  mid-stream. Asserted: **zero** failed/dropped requests across the
  swap, post-swap results byte-identical to a fresh engine opened on
  the v2 file, and the drained v1 pin retired (old mapping closed,
  version recorded in ``drained_versions``) after its last in-flight
  request completed.
* **fault storm** (PR 6) — the chaos phase: a process-backend engine
  over a snapshot registry serves sustained multi-client traffic while
  workers are crash-injected (``worker.crash`` via
  :mod:`repro.service.faults`) *and* SIGKILLed outright *and* a hot
  swap lands mid-storm. Asserted: every completed response is
  byte-identical to a fault-free engine's answer for the same query,
  every failure is a structured serving error (deadline / saturation /
  crash — never a hang, never a wrong answer), the error rate stays
  bounded, and after the storm ends the pool is revived and health
  returns to ``ok``.
* **load profile** (PR 7) — :mod:`repro.service.loadgen` traffic shaped
  like production: Zipf-skewed entity popularity, entity-centric
  sessions, **open-loop** Poisson arrivals (latency charged from the
  scheduled arrival, so queue buildup is measured, not hidden — no
  coordinated omission) plus a closed-loop companion run. Latency
  quantiles are reported with seeded bootstrap confidence intervals
  (:mod:`repro.eval.bootstrap`), and the raw latency samples are
  embedded so ``tools/bench_compare.py`` can re-bootstrap a
  two-report comparison.
* **saturated batch** (PR 8) — the micro-batching phase: the same
  saturated burst of *distinct* width-2 queries (sampled over the whole
  graph, so neither the cache nor single-flight can absorb it) served
  by two single-worker process engines — per-query dispatch
  (``max_batch=1``) vs micro-batched (``max_batch``,
  ``batch_window_ms``), where each worker runs one shared multi-column
  power iteration and one fused distribution sweep per batch. Results
  are asserted byte-identical between the arms; the throughput ratio is
  gated by ``tools/bench_compare.py --saturated`` (acceptance: >= 2x).
* **live ingest** (PR 10) — the delta-chain phase: a registry-backed
  engine serves sustained multi-client reads while statement batches
  land live — append to the delta log, incremental CSR merge
  (:meth:`~repro.disk.ingest.StreamingCompiler.merge_delta`) into a new
  snapshot, adopt via ``swap_snapshot`` — the pipeline behind
  ``POST /v1/admin/ingest``. Asserted: zero failed reads across every
  cycle, exact chain provenance and merge arithmetic on the final
  manifest entry, and post-ingest results byte-identical to a fresh
  engine on the merged file. Read p99 during ingest vs a
  like-for-like quiescent control is gated by
  ``tools/bench_compare.py --live-ingest``.
* **trace overhead** (PR 9) — the same saturated burst served with
  request tracing disabled vs 1% head sampling; throughput and p99 are
  gated by ``tools/bench_compare.py --trace-overhead`` (acceptance:
  no regression beyond noise tolerance), and a forced-slow run asserts
  the captured trace carries the worker-side ``worker.ppr`` +
  ``worker.sweep`` spans with durations bounded by the request span.
* **single-flight coalescing** — N clients issuing one identical query
  concurrently must trigger exactly one computation.

The CLI (``repro bench-serve``) and ``benchmarks/run_service_bench.py``
both call :func:`run_service_benchmark` and write the report as
``BENCH_PR10.json`` (see ``benchmarks/README.md`` for the field
reference; diff two reports with ``tools/bench_compare.py``).
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import tempfile
import threading
import time

from repro.core.findnc import rw_mult
from repro.datasets.loader import load_dataset
from repro.datasets.seeds import TABLE1_DOMAINS
from repro.service.engine import NCEngine


def benchmark_queries(limit: int) -> list[tuple[str, ...]]:
    """Distinct service-style queries: nested Table-1 sets as display names.

    Names are lowercased with spaces ("angela merkel") so every request
    exercises the fuzzy entity-resolution layer, like real API traffic.
    """
    queries = [
        tuple(name.replace("_", " ").lower() for name in nested)
        for domain in TABLE1_DOMAINS
        for nested in domain.nested_queries()
    ]
    if limit < 1:
        raise ValueError(f"need at least one query, got limit={limit}")
    return queries[:limit]


def traffic_trace(
    queries: list[tuple[str, ...]],
    *,
    hot_queries: int = 4,
    hot_repeats: int = 8,
    seed: int = 11,
) -> list[tuple[str, ...]]:
    """A deterministic hot/cold request trace over ``queries``.

    The first ``hot_queries`` entries arrive ``hot_repeats`` times each
    (the trending-entity pattern that makes result caches pay for
    themselves); the rest arrive once. Order is a seeded shuffle.
    """
    trace = [q for q in queries[:hot_queries] for _ in range(hot_repeats)]
    trace += queries[hot_queries:]
    random.Random(seed).shuffle(trace)
    return trace


def _summary(latencies: list[float]) -> dict:
    return {
        "n": len(latencies),
        "mean_s": statistics.fmean(latencies),
        "median_s": statistics.median(latencies),
        "max_s": max(latencies),
        "total_s": sum(latencies),
    }


def _timed(func) -> float:
    started = time.perf_counter()
    func()
    return time.perf_counter() - started


def _bench_cold_start(graph, *, repeat: int, snap_path: str) -> dict:
    """The PR-4 boot-time phase: parse+compile vs one mmap open.

    Writes the graph's N-Triples dump to a private temp dir and times the
    legacy boot (stream-parse the dump, rebuild the dict graph with its
    inverse closure, compile the columnar snapshot) against
    :func:`repro.disk.open_snapshot` over ``snap_path``. The snapshot
    file is reused when it already matches the graph (CI caches it as a
    workflow artifact); otherwise it is (re)compiled here and the
    one-time cost recorded. The mmap boot must be at least 10x faster —
    asserted, because this is the acceptance bar of the subsystem.
    """
    from repro.disk import open_snapshot, save_graph_snapshot
    from repro.graph.io import load_graph, save_graph

    snapshot_compile_s: "float | None" = None
    reused = False
    if os.path.exists(snap_path):
        try:
            with open_snapshot(snap_path) as existing:
                reused = (
                    existing.header.version == graph.version
                    and existing.header.node_count == graph.node_count
                    and existing.compiled.edge_count == graph.edge_count
                )
        except Exception:
            reused = False
    if not reused:
        snapshot_compile_s = _timed(lambda: save_graph_snapshot(graph, snap_path))

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as workdir:
        nt_path = os.path.join(workdir, "graph.nt")
        triples = save_graph(graph, nt_path)

        def parse_boot() -> None:
            """The legacy cold start: dump → dict graph → compiled arrays."""
            load_graph(nt_path).compiled()

        parse_compile_s = min(_timed(parse_boot) for _ in range(repeat))

    def mmap_boot() -> None:
        """The snapshot-store cold start: open + touch the index arrays."""
        with open_snapshot(snap_path) as snap:
            compiled = snap.compiled
            int(compiled.indptr[-1])
            if compiled.edge_count:
                int(compiled.targets[0])

    mmap_open_s = min(_timed(mmap_boot) for _ in range(repeat))
    speedup = parse_compile_s / mmap_open_s
    phase = {
        "triples": triples,
        "parse_compile_s": parse_compile_s,
        "mmap_open_s": mmap_open_s,
        "speedup": speedup,
        "snapshot_bytes": os.path.getsize(snap_path),
        "snapshot_reused": reused,
        "snapshot_compile_s": snapshot_compile_s,
        "note": (
            "parse_compile_s = stream-parse the N-Triples dump, rebuild the "
            "dict graph (inverse closure included) and compile the columnar "
            "snapshot; mmap_open_s = repro.disk.open_snapshot over the "
            "compiled file (pages fault in on demand)"
        ),
    }
    if speedup < 10.0:  # pragma: no cover - would be a regression
        raise AssertionError(
            f"snapshot cold start is only {speedup:.1f}x faster than "
            f"parse+compile (acceptance bar: 10x)"
        )
    return phase


def _bench_hot_swap(
    graph,
    *,
    context_size: int,
    alpha: float,
    seed: int,
    workers: int,
    queries: "list[tuple[str, ...]]",
    clients: int = 4,
    drain_timeout_s: float = 30.0,
) -> dict:
    """The PR-5 phase: swap registry versions under sustained traffic.

    Publishes the same graph twice into a throwaway
    :class:`~repro.disk.registry.SnapshotRegistry` (v1 and v2 — identical
    content, distinct monotonic ids), serves v1 with ``clients``
    threads hammering the distinct-query set, and hot-swaps to v2 while
    they run. Acceptance (all asserted, this is the PR's bar):

    * zero failed or dropped requests across the swap;
    * post-swap results byte-identical to a fresh engine opened directly
      on the v2 file (same parameters and seed);
    * the drained v1 pin retired after its last in-flight request — the
      swapped-out version must show up in ``drained_versions``.
    """
    import tempfile

    from repro.disk import SnapshotRegistry, open_snapshot_view
    from repro.service.engine import NCEngine as Engine

    with tempfile.TemporaryDirectory(prefix="repro-hotswap-") as registry_dir:
        registry = SnapshotRegistry(registry_dir)
        entry_v1 = registry.publish_graph(graph)
        entry_v2 = registry.publish_graph(graph)

        with Engine(
            registry.open_view(entry_v1.version),
            context_size=context_size,
            alpha=alpha,
            max_workers=workers,
            seed=seed,
        ) as engine:
            engine.pin()
            engine.request(queries[0])  # warm the resolution index

            stop = threading.Event()
            barrier = threading.Barrier(clients + 1)
            failures: "list[BaseException]" = []
            served = [0] * clients

            def client(slot: int) -> None:
                """One sustained-traffic client cycling the query set."""
                rng = random.Random(seed + slot)
                try:
                    barrier.wait()
                    while not stop.is_set():
                        engine.request(rng.choice(queries))
                        served[slot] += 1
                except BaseException as error:  # pragma: no cover - failure
                    failures.append(error)

            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(clients)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            # Let traffic build up on v1, swap mid-stream, keep serving.
            time.sleep(0.3)
            served_before_swap = sum(served)
            swap_s = _timed(
                lambda: engine.swap_snapshot(registry.open_view(entry_v2.version))
            )
            time.sleep(0.3)
            stop.set()
            for thread in threads:
                thread.join()
            if failures:  # pragma: no cover - would be the acceptance bug
                raise AssertionError(
                    f"hot swap dropped/failed {len(failures)} request(s); "
                    f"first: {failures[0]!r}"
                )

            # Post-swap traffic must compute at v2 and match a fresh
            # engine booted directly on the v2 file.
            engine.cache.clear()
            post_swap = [engine.request(query) for query in queries]
            assert all(
                outcome.graph_version == entry_v2.version for outcome in post_swap
            ), "post-swap requests still served from the old version"

            # The drained v1 pin must retire once in-flight work finishes.
            deadline = time.monotonic() + drain_timeout_s
            drained: "tuple[int, ...]" = ()
            while time.monotonic() < deadline:
                drained = engine.stats().drained_versions
                if entry_v1.version in drained:
                    break
                time.sleep(0.02)
            if entry_v1.version not in drained:  # pragma: no cover - bug
                raise AssertionError(
                    f"swapped-out version {entry_v1.version} never drained "
                    f"(drained={drained})"
                )
            stats = engine.stats()

        fresh_view = open_snapshot_view(entry_v2.path)
        try:
            with Engine(
                fresh_view,
                context_size=context_size,
                alpha=alpha,
                max_workers=workers,
                seed=seed,
            ) as fresh_engine:
                fresh_engine.pin()
                fresh = [fresh_engine.request(query) for query in queries]
        finally:
            fresh_view.close()

        def _fingerprint(result) -> "list[tuple[str, float]]":
            return [(item.label, item.score) for item in result.results]

        identical = all(
            _fingerprint(a.result) == _fingerprint(b.result)
            and a.result.notable_labels() == b.result.notable_labels()
            for a, b in zip(post_swap, fresh)
        )
        if not identical:  # pragma: no cover - would be the acceptance bug
            raise AssertionError(
                "post-swap results differ from a fresh engine on the new "
                "snapshot"
            )
        total = sum(served) + len(queries) + 1
        return {
            "clients": clients,
            "requests": total,
            "requests_before_swap": served_before_swap,
            "failures": 0,
            "swap_s": swap_s,
            "old_version": entry_v1.version,
            "new_version": entry_v2.version,
            "drained_versions": list(stats.drained_versions),
            "swaps": stats.swaps,
            "identical_results": identical,
            "note": (
                "two content-identical registry versions; clients hammer the "
                "engine across swap_snapshot(v2); zero failures, post-swap "
                "parity vs a fresh v2 engine, and v1 retired after its last "
                "in-flight request are all asserted"
            ),
        }


def _bench_live_ingest(
    graph,
    *,
    context_size: int,
    alpha: float,
    seed: int,
    workers: int,
    queries: "list[tuple[str, ...]]",
    clients: int = 4,
    cycles: int = 2,
    batch_edges: int = 6,
    window_gap_s: float = 0.25,
) -> dict:
    """The PR-10 phase: delta append → merge → swap under sustained reads.

    Publishes the graph into a throwaway registry (v1), serves it with
    ``clients`` sustained threads, then lands ``cycles`` live-ingest
    rounds mid-stream: each round appends a statement batch to the
    registry's delta log (fresh subject nodes, one remove of the
    previous round's edge from round two on), folds the pending run
    into a new snapshot with the incremental CSR merge, and adopts it
    via :meth:`~repro.service.engine.NCEngine.swap_snapshot` — the
    exact pipeline behind ``POST /v1/admin/ingest``.

    The read-latency comparison is like-for-like: the *quiescent*
    window runs the same traffic with one ``cache.clear()`` per
    would-be cycle (a version swap invalidates the version-keyed cache
    anyway), so both windows pay the same cold-miss storms and the p99
    ratio isolates what the append+merge+swap work itself costs
    readers. Acceptance (asserted here; the ratio is gated by
    ``tools/bench_compare.py --live-ingest``):

    * **zero** failed or dropped reads across every cycle;
    * the final manifest entry records the full chain (``base`` = v1,
      one delta run per cycle) and the merged snapshot's node/edge
      counts match the statement arithmetic exactly;
    * post-ingest results are byte-identical to a fresh engine opened
      directly on the final snapshot file.
    """
    import tempfile

    from repro.disk import SnapshotRegistry, open_snapshot_view
    from repro.service.engine import NCEngine as Engine

    def batch_ops(cycle: int) -> "list[tuple[str, tuple[str, str, str]]]":
        """Cycle ``cycle``'s statement batch: fresh-subject adds + a remove."""
        ops: "list[tuple[str, tuple[str, str, str]]]" = [
            (
                "+",
                (
                    f"bench_ingest_c{cycle}_n{i}",
                    "bench_ingest_rel",
                    graph.node_name(i % graph.node_count),
                ),
            )
            for i in range(batch_edges)
        ]
        if cycle > 0:
            ops.append(
                (
                    "-",
                    (
                        f"bench_ingest_c{cycle - 1}_n0",
                        "bench_ingest_rel",
                        graph.node_name(0),
                    ),
                )
            )
        return ops

    total_adds = cycles * batch_edges
    total_removes = max(cycles - 1, 0)

    with tempfile.TemporaryDirectory(prefix="repro-liveingest-") as registry_dir:
        registry = SnapshotRegistry(registry_dir)
        entry_v1 = registry.publish_graph(graph)

        with Engine(
            registry.open_view(entry_v1.version),
            context_size=context_size,
            alpha=alpha,
            max_workers=workers,
            seed=seed,
        ) as engine:
            engine.pin()
            engine.request(queries[0])  # warm the resolution index

            stop = threading.Event()
            barrier = threading.Barrier(clients + 1)
            window = ["warmup"]  # [0] read by clients at request start
            samples: "list[tuple[str, float]]" = []
            failures: "list[BaseException]" = []
            lock = threading.Lock()

            def client(slot: int) -> None:
                """Sustained reads; every latency tagged with its window."""
                rng = random.Random(seed + slot)
                try:
                    barrier.wait()
                    while not stop.is_set():
                        tag = window[0]
                        started = time.perf_counter()
                        engine.request(rng.choice(queries))
                        elapsed = time.perf_counter() - started
                        with lock:
                            samples.append((tag, elapsed))
                except BaseException as error:  # pragma: no cover - failure
                    failures.append(error)

            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(clients)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()

            # -- quiescent control: same miss storms, no ingest work -------
            window[0] = "quiescent"
            for _ in range(cycles):
                time.sleep(window_gap_s)
                engine.cache.clear()
            time.sleep(window_gap_s)

            # -- live ingest: append -> merge -> swap, readers running -----
            window[0] = "ingest"
            cycle_reports = []
            entry = entry_v1
            for cycle in range(cycles):
                time.sleep(window_gap_s)
                started = time.perf_counter()
                run = registry.append_delta(batch_ops(cycle))
                appended_s = time.perf_counter() - started
                entry = registry.merge_pending()
                engine.swap_snapshot(registry.open_view(entry.version))
                adoption_s = time.perf_counter() - started
                cycle_reports.append(
                    {
                        "run": run.file,
                        "adds": run.adds,
                        "removes": run.removes,
                        "merged_version": entry.version,
                        "append_s": appended_s,
                        "adoption_s": adoption_s,
                    }
                )
            time.sleep(window_gap_s)
            window[0] = "drain"
            stop.set()
            for thread in threads:
                thread.join()
            if failures:  # pragma: no cover - would be the acceptance bug
                raise AssertionError(
                    f"live ingest dropped/failed {len(failures)} read(s); "
                    f"first: {failures[0]!r}"
                )

            # -- chain provenance + merge arithmetic ------------------------
            if entry.base != entry_v1.version or len(entry.deltas) != cycles:
                raise AssertionError(  # pragma: no cover - would be a bug
                    f"final manifest entry lost its chain: base={entry.base}, "
                    f"deltas={entry.deltas}"
                )
            expected_nodes = graph.node_count + total_adds
            expected_edges = graph.edge_count + 2 * (total_adds - total_removes)
            if (entry.nodes, entry.edges) != (expected_nodes, expected_edges):
                raise AssertionError(  # pragma: no cover - would be a bug
                    f"merged snapshot has |V|={entry.nodes}, |E|={entry.edges}; "
                    f"expected |V|={expected_nodes}, |E|={expected_edges}"
                )

            # -- parity vs a fresh engine on the final snapshot file --------
            engine.cache.clear()
            post = [engine.request(query) for query in queries]
            assert all(
                outcome.graph_version == entry.version for outcome in post
            ), "post-ingest requests still served from an old version"

        fresh_view = open_snapshot_view(entry.path)
        try:
            with Engine(
                fresh_view,
                context_size=context_size,
                alpha=alpha,
                max_workers=workers,
                seed=seed,
            ) as fresh_engine:
                fresh_engine.pin()
                fresh = [fresh_engine.request(query) for query in queries]
        finally:
            fresh_view.close()
        identical = all(
            _result_fingerprint(a.result) == _result_fingerprint(b.result)
            for a, b in zip(post, fresh)
        )
        if not identical:  # pragma: no cover - would be the acceptance bug
            raise AssertionError(
                "post-ingest results differ from a fresh engine on the "
                "merged snapshot"
            )

    def p99(latencies: "list[float]") -> float:
        ordered = sorted(latencies)
        return ordered[min(len(ordered) - 1, round(0.99 * (len(ordered) - 1)))]

    quiescent = [lat for tag, lat in samples if tag == "quiescent"]
    ingest = [lat for tag, lat in samples if tag == "ingest"]
    return {
        "clients": clients,
        "cycles": cycle_reports,
        "batch_edges": batch_edges,
        "requests": len(samples),
        "failures": 0,
        "base_version": entry_v1.version,
        "final_version": entry.version,
        "chain_deltas": len(entry.deltas),
        "nodes_after": entry.nodes,
        "edges_after": entry.edges,
        "quiescent_n": len(quiescent),
        "quiescent_p99_s": p99(quiescent),
        "quiescent_mean_s": statistics.fmean(quiescent),
        "ingest_n": len(ingest),
        "ingest_p99_s": p99(ingest),
        "ingest_mean_s": statistics.fmean(ingest),
        "p99_ratio": p99(ingest) / p99(quiescent),
        "identical_results": identical,
        "note": (
            "sustained reads across append->merge->swap cycles; the "
            "quiescent control clears the cache once per would-be cycle "
            "so both windows pay the same cold-miss storms; zero failed "
            "reads, exact chain provenance + merge arithmetic, and "
            "fresh-engine parity are asserted; tools/bench_compare.py "
            "--live-ingest gates on p99_ratio"
        ),
    }


def _bench_fault_storm(
    graph,
    *,
    context_size: int,
    alpha: float,
    seed: int,
    workers: int,
    queries: "list[tuple[str, ...]]",
    clients: int = 4,
    storm_s: float = 2.5,
    crash_probability: float = 0.25,
    recovery_timeout_s: float = 30.0,
) -> dict:
    """The PR-6 chaos phase: survive crash-injected workers + a hot swap.

    Builds fault-free reference answers on a thread engine, then serves
    the same queries from a **process**-backend engine over a snapshot
    registry while three kinds of chaos run concurrently:

    * every worker is spawned with ``worker.crash`` armed (probability
      ``crash_probability`` per task, via the ``REPRO_FAULTS`` env var —
      the only transport that crosses the spawn boundary);
    * a killer thread SIGKILLs a random live worker every ~250ms;
    * a hot swap (v1 → v2, content-identical registry versions) lands
      mid-storm.

    Acceptance (all asserted — this is the PR's bar):

    * **zero wrong answers**: every completed response fingerprints
      byte-identical to the fault-free reference for its query;
    * **bounded, structured errors**: any client-visible failure is a
      known serving error (deadline, saturation, stale snapshot, crash
      surfaced after budget exhaustion) — never a hang or a foreign
      exception — and the error rate stays under 20% (retries plus the
      degraded local fallback absorb nearly everything);
    * **recovery**: after the storm the faults are disarmed, the pool
      revived, and one clean round of traffic brings health back to
      ``ok`` with every worker slot alive.
    """
    import signal

    from repro.disk import SnapshotRegistry
    from repro.errors import DeadlineExceededError, EngineSaturatedError
    from repro.parallel.shm import StaleSnapshotError
    from repro.service import faults
    from repro.service.workers import (
        ProcessWorkerPool,
        RemoteQueryError,
        WorkerCrashError,
    )

    structured = (
        DeadlineExceededError,
        EngineSaturatedError,
        StaleSnapshotError,
        RemoteQueryError,
        WorkerCrashError,
    )

    # Fault-free reference answers (thread backend; answers draw no
    # per-request randomness, so these fingerprints are valid on both
    # registry versions and both backends).
    with NCEngine(
        graph,
        context_size=context_size,
        alpha=alpha,
        max_workers=workers,
        seed=seed,
    ) as reference_engine:
        reference_engine.pin()
        reference = {
            query: _result_fingerprint(reference_engine.request(query).result)
            for query in queries
        }

    with tempfile.TemporaryDirectory(prefix="repro-faultstorm-") as registry_dir:
        registry = SnapshotRegistry(registry_dir)
        entry_v1 = registry.publish_graph(graph)
        entry_v2 = registry.publish_graph(graph)

        previous_spec = os.environ.get(faults.FAULTS_ENV)
        os.environ[faults.FAULTS_ENV] = f"worker.crash={crash_probability}"
        try:
            with NCEngine(
                registry.open_view(entry_v1.version),
                context_size=context_size,
                alpha=alpha,
                max_workers=workers,
                executor="process",
                seed=seed,
                request_timeout=30.0,
                retries=3,
                retry_backoff=0.02,
                breaker_threshold=5,
                breaker_reset_s=0.5,
            ) as engine:
                engine.pin()
                # Pre-build the pool with chaos-grade detection latency:
                # the default 0.5s watchdog tick + 1s crash grace means a
                # crashed job costs ~1.5s to surface, which under a 25%
                # crash rate starves the whole storm. The pool spawns here
                # (inside the armed-REPRO_FAULTS window) so every worker
                # inherits the crash injection.
                engine._pool = ProcessWorkerPool(  # noqa: SLF001 - chaos harness
                    workers,
                    watchdog_tick=0.05,
                    crash_grace_s=0.25,
                    respawn_limit=64,
                )
                engine.request(queries[0])  # warm the resolution index
                stop = threading.Event()
                barrier = threading.Barrier(clients + 2)
                completed = [0] * clients
                wrong: "list[tuple[tuple[str, ...], object]]" = []
                errors: "list[BaseException]" = []
                foreign: "list[BaseException]" = []
                lock = threading.Lock()

                def client(slot: int) -> None:
                    """Sustained traffic; verifies every completed answer."""
                    rng = random.Random(seed + slot)
                    barrier.wait()
                    while not stop.is_set():
                        query = rng.choice(queries)
                        try:
                            outcome = engine.request(query)
                        except structured as error:
                            with lock:
                                errors.append(error)
                            continue
                        except BaseException as error:  # pragma: no cover
                            with lock:
                                foreign.append(error)
                            continue
                        fingerprint = _result_fingerprint(outcome.result)
                        if fingerprint != reference[query]:  # pragma: no cover
                            with lock:
                                wrong.append((query, fingerprint))
                        completed[slot] += 1

                def killer() -> None:
                    """SIGKILL a random live worker every ~250ms."""
                    rng = random.Random(seed + 997)
                    barrier.wait()
                    while not stop.wait(0.25):
                        pool = engine._pool  # noqa: SLF001 - chaos harness
                        if pool is None:
                            continue
                        with pool._lock:  # noqa: SLF001
                            processes = list(pool._processes)  # noqa: SLF001
                        alive = [p for p in processes if p.is_alive() and p.pid]
                        if not alive:
                            continue
                        try:
                            os.kill(rng.choice(alive).pid, signal.SIGKILL)
                        except ProcessLookupError:  # pragma: no cover - raced
                            pass

                threads = [
                    threading.Thread(target=client, args=(slot,))
                    for slot in range(clients)
                ]
                threads.append(threading.Thread(target=killer))
                for thread in threads:
                    thread.start()
                barrier.wait()
                # First half of the storm on v1, swap, second half on v2.
                time.sleep(storm_s / 2)
                engine.swap_snapshot(registry.open_view(entry_v2.version))
                time.sleep(storm_s / 2)
                stop.set()
                for thread in threads:
                    thread.join()

                # -- storm over: disarm, revive, verify recovery -----------
                os.environ.pop(faults.FAULTS_ENV, None)
                revived = engine.revive_workers()
                recovered = False
                deadline = time.monotonic() + recovery_timeout_s
                while time.monotonic() < deadline:
                    engine.cache.clear()
                    try:
                        post = [
                            _result_fingerprint(engine.request(q).result)
                            for q in queries
                        ]
                    except structured:  # pragma: no cover - lingering crash
                        engine.revive_workers()
                        time.sleep(0.05)
                        continue
                    worker_stats = engine.stats().workers or {}
                    if (
                        post == [reference[q] for q in queries]
                        and worker_stats.get("alive") == workers
                        and engine.health()["status"] == "ok"
                    ):
                        recovered = True
                        break
                stats = engine.stats()
                health = engine.health()
        finally:
            if previous_spec is None:
                os.environ.pop(faults.FAULTS_ENV, None)
            else:  # pragma: no cover - nested chaos runs
                os.environ[faults.FAULTS_ENV] = previous_spec

    total = sum(completed) + len(errors) + len(foreign)
    error_rate = (len(errors) + len(foreign)) / max(total, 1)
    phase = {
        "clients": clients,
        "storm_s": storm_s,
        "crash_probability": crash_probability,
        "requests": total,
        "completed": sum(completed),
        "wrong_answers": len(wrong),
        "structured_errors": len(errors),
        "error_types": sorted({type(error).__name__ for error in errors}),
        "foreign_errors": len(foreign),
        "error_rate": error_rate,
        "swapped_mid_storm": True,
        "revived_workers": revived,
        "recovered": recovered,
        "health_after": health["status"],
        "engine": {
            "retries": stats.retries,
            "fallbacks": stats.fallbacks,
            "timeouts": stats.timeouts,
            "breaker": stats.breaker,
        },
        "worker_pool": stats.workers,
        "note": (
            "workers crash-injected (REPRO_FAULTS) and SIGKILLed under "
            "sustained traffic with a mid-storm hot swap; asserted: zero "
            "wrong answers, only structured errors, bounded error rate, "
            "health back to ok after revive"
        ),
    }
    if wrong:  # pragma: no cover - would be the acceptance bug
        raise AssertionError(
            f"fault storm produced {len(wrong)} wrong answer(s); first "
            f"query: {wrong[0][0]!r}"
        )
    if foreign:  # pragma: no cover - would be the acceptance bug
        raise AssertionError(
            f"fault storm leaked {len(foreign)} unstructured error(s); "
            f"first: {foreign[0]!r}"
        )
    if error_rate > 0.20:  # pragma: no cover - would be the acceptance bug
        raise AssertionError(
            f"fault-storm error rate {error_rate:.1%} exceeds the 20% bound "
            f"({len(errors)} errors / {total} requests)"
        )
    if not recovered:  # pragma: no cover - would be the acceptance bug
        raise AssertionError(
            f"pool did not return to ok health within {recovery_timeout_s}s "
            f"after the storm (health={health})"
        )
    return phase


def _bench_load_profile(
    engine,
    *,
    seed: int,
    rate: float = 40.0,
    duration_s: float = 3.0,
    zipf_s: float = 1.1,
    entity_pool: int = 64,
    closed_requests: int = 120,
    concurrency: int = 4,
) -> dict:
    """The PR-7 phase: Zipf-skewed open-loop load with bootstrap CIs.

    Replays :mod:`repro.service.loadgen` traffic against the live
    engine: an **open-loop** run (Poisson arrivals at ``rate`` req/s for
    ``duration_s``; latency charged from each request's *scheduled*
    arrival so dispatch lag counts — the coordinated-omission-safe
    number) and a closed-loop companion (``concurrency`` workers
    draining ``closed_requests``) for the classic saturated-throughput
    view. Entity popularity is Zipf(``zipf_s``) over the graph's first
    ``entity_pool`` nodes, grouped into entity-centric sessions — the
    skewed, bursty shape real per-entity traffic has, which is exactly
    what the result cache and single-flight layers are for.

    Each run's latency quantiles carry seeded percentile-bootstrap
    confidence intervals (:func:`repro.eval.bootstrap.quantile_report`),
    and the raw per-request samples are embedded (rounded, completion
    order) so ``tools/bench_compare.py`` can bootstrap a *two-report*
    comparison later without re-running anything.
    """
    from repro.eval.bootstrap import quantile_report
    from repro.service.loadgen import (
        LoadProfile,
        build_schedule,
        engine_target,
        entity_ranking,
        run_load,
    )

    entities = entity_ranking(engine.graph, limit=entity_pool)
    target = engine_target(engine)
    phase: dict = {
        "zipf_s": zipf_s,
        "entity_pool": len(entities),
        "note": (
            "open-loop latency is charged from the scheduled Poisson "
            "arrival (queue buildup counts; no coordinated omission); "
            "quantile CIs are seeded percentile bootstraps; latencies_s "
            "holds the raw samples for tools/bench_compare.py"
        ),
    }
    profiles = {
        "open": LoadProfile(
            mode="open",
            rate=rate,
            duration_s=duration_s,
            zipf_s=zipf_s,
            seed=seed,
        ),
        "closed": LoadProfile(
            mode="closed",
            requests=closed_requests,
            concurrency=concurrency,
            zipf_s=zipf_s,
            seed=seed,
        ),
    }
    for name, profile in profiles.items():
        engine.cache.clear()
        schedule, skew = build_schedule(entities, profile)
        report = run_load(target, schedule, profile)
        summary = report.summary()
        summary["skew"] = skew
        summary["quantiles"] = quantile_report(
            list(report.latencies_s), seed=seed
        )
        summary["latencies_s"] = [
            round(value, 6) for value in report.latencies_s
        ]
        if report.errors:  # pragma: no cover - would be the acceptance bug
            raise AssertionError(
                f"load profile ({name}) hit errors: {dict(report.errors)}"
            )
        phase[name] = summary
    return phase


def saturated_queries(
    graph, count: int, width: int, *, seed: int = 11
) -> "list[tuple[str, ...]]":
    """``count`` distinct ``width``-entity queries sampled across the graph.

    The Table-1 seed sets are too few and too hub-adjacent to saturate a
    worker pool with *distinct* traffic, so this samples entity names
    uniformly (seeded, deterministic) over the whole node space — the
    "every request is a different customer" traffic class that neither
    the result cache nor single-flight coalescing can absorb, which is
    exactly the class micro-batching exists for.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    ids = rng.choice(graph.node_count, size=count * width * 3, replace=False)
    names: "list[str]" = []
    seen: "set[str]" = set()
    for node in ids:
        name = graph.node_name(int(node))
        if name and name not in seen:
            seen.add(name)
            names.append(name)
    if len(names) < count * width:  # pragma: no cover - tiny graphs only
        raise ValueError(
            f"graph too small for {count} x {width} distinct query entities"
        )
    return [tuple(names[i * width : (i + 1) * width]) for i in range(count)]


def _bench_saturated_batch(
    *,
    alpha: float,
    seed: int,
    repeat: int,
    dataset: str = "yago",
    scale: float = 32.0,
    context_size: int = 5,
    distinct: int = 16,
    width: int = 2,
    max_batch: int = 16,
    batch_window_ms: float = 30.0,
) -> dict:
    """The PR-8 phase: micro-batched vs per-query process workers.

    Serves the same saturated distinct-query burst (``distinct`` seeded
    ``width``-entity queries, all submitted at once, caches cleared per
    round) through two process-backend engines on one worker process:
    the **per-query** arm dispatches one task per request
    (``max_batch=1``, the pre-PR-8 backend) while the **batched** arm
    gathers the burst into micro-batches (``max_batch``,
    ``batch_window_ms``) so each worker runs one shared multi-column
    power iteration and one fused distribution sweep for the whole
    batch. One worker isolates the batching effect — extra workers
    multiply both arms alike.

    Results are asserted byte-identical between the arms (the engine's
    differential guarantee; ``tests/test_batch_parity.py`` pins the
    same property per kernel). The throughput ratio is the phase's
    headline number; ``tools/bench_compare.py --saturated`` turns it
    into the PR's accept/reject verdict.
    """
    graph = load_dataset(dataset, scale=scale)
    queries = saturated_queries(graph, distinct, width, seed=seed)

    def serve(engine_kwargs: dict) -> "tuple[float, list, dict]":
        with NCEngine(
            graph,
            context_size=context_size,
            alpha=alpha,
            max_workers=1,
            executor="process",
            seed=seed,
            **engine_kwargs,
        ) as engine:
            engine.pin()

            def drain() -> None:
                futures = [engine.submit(query)[0] for query in queries]
                for future in futures:
                    future.result()

            drain()  # warmup: worker attach + transition adoption
            best = float("inf")
            for _ in range(repeat):
                engine.cache.clear()
                best = min(best, _timed(drain))
            # Stats before the parity pass: the one-at-a-time re-requests
            # below would dilute the recorded mean batch size.
            stats = engine.stats().workers or {}
            engine.cache.clear()
            results = [engine.request(query).result for query in queries]
        return best, results, stats

    per_query_s, per_query_results, _ = serve({})
    batched_s, batched_results, batched_stats = serve(
        {"max_batch": max_batch, "batch_window_ms": batch_window_ms}
    )

    identical = all(
        _result_fingerprint(a) == _result_fingerprint(b)
        for a, b in zip(per_query_results, batched_results)
    )
    if not identical:  # pragma: no cover - would be a correctness bug
        raise AssertionError(
            "micro-batched execution returned different results than the "
            "per-query process backend on the same queries"
        )
    batches = int(batched_stats.get("batches", 0))
    members = int(batched_stats.get("batched_members", 0))
    return {
        "traffic": (
            f"{distinct} distinct width-{width} queries sampled over the "
            f"whole graph (seed {seed}), all submitted concurrently"
        ),
        "graph": {"dataset": dataset, "scale": scale, "nodes": graph.node_count,
                  "edges": graph.edge_count},
        "context_size": context_size,
        "workers": 1,
        "max_batch": max_batch,
        "batch_window_ms": batch_window_ms,
        "per_query_elapsed_s": per_query_s,
        "per_query_rps": len(queries) / per_query_s,
        "batched_elapsed_s": batched_s,
        "batched_rps": len(queries) / batched_s,
        "ratio": per_query_s / batched_s,
        "batches": batches,
        "mean_batch_size": members / batches if batches else 0.0,
        "identical_results": identical,
        "note": (
            "same burst through two single-worker process engines: "
            "max_batch=1 (per-query dispatch) vs micro-batched; one shared "
            "power iteration + fused distribution sweep per batch; result "
            "parity asserted; tools/bench_compare.py --saturated gates on "
            "the ratio"
        ),
    }


def _bench_trace_overhead(
    *,
    alpha: float,
    seed: int,
    repeat: int,
    dataset: str = "yago",
    scale: float = 32.0,
    context_size: int = 5,
    distinct: int = 16,
    width: int = 2,
    max_batch: int = 16,
    batch_window_ms: float = 30.0,
    sample_rate: float = 0.01,
) -> dict:
    """The PR-9 phase: request tracing must be ~free at 1% sampling.

    Serves the saturated-batch burst through two single-worker
    micro-batching process engines — tracing **disabled** vs **1% head
    sampling** (every request pays the coin flip; ~1% also record and
    retain spans) — and reports throughput plus per-request p99 for
    both arms. ``tools/bench_compare.py --trace-overhead`` turns the
    pair into the accept/reject verdict (no throughput/p99 regression
    beyond noise tolerance).

    A third short run with an absurdly low ``slow_query_ms`` forces
    tail capture on every request and asserts the captured slow trace
    is *complete across the pickle boundary*: the worker-side power
    iteration (``worker.ppr``) and fused distribution sweep
    (``worker.sweep``) spans are present, and their durations sum to no
    more than the request span — rebasing worker-local offsets can
    never make children outgrow their parent.
    """
    graph = load_dataset(dataset, scale=scale)
    queries = saturated_queries(graph, distinct, width, seed=seed)

    def serve(trace_kwargs: dict) -> "tuple[float, list[float]]":
        """Best-round elapsed + per-request latencies across all rounds."""
        with NCEngine(
            graph,
            context_size=context_size,
            alpha=alpha,
            max_workers=1,
            executor="process",
            seed=seed,
            max_batch=max_batch,
            batch_window_ms=batch_window_ms,
            **trace_kwargs,
        ) as engine:
            engine.pin()
            tracer = engine.tracer

            def drain() -> "list[float]":
                pending = []
                for query in queries:
                    trace = (
                        tracer.begin("bench.request") if tracer.enabled else None
                    )
                    started = time.perf_counter()
                    future = engine.submit(query, trace=trace)[0]
                    pending.append((future, started, trace))
                latencies = []
                for future, started, trace in pending:
                    future.result()
                    latencies.append(time.perf_counter() - started)
                    tracer.finish(trace)
                return latencies

            drain()  # warmup: worker attach + transition adoption
            best = float("inf")
            all_latencies: "list[float]" = []
            for _ in range(repeat):
                engine.cache.clear()
                round_started = time.perf_counter()
                all_latencies.extend(drain())
                best = min(best, time.perf_counter() - round_started)
        return best, all_latencies

    def p99(latencies: "list[float]") -> float:
        ordered = sorted(latencies)
        return ordered[min(len(ordered) - 1, round(0.99 * (len(ordered) - 1)))]

    disabled_s, disabled_lat = serve({})
    sampled_s, sampled_lat = serve({"trace_sample_rate": sample_rate})

    # -- forced slow-query capture: one request, full span tree ------------
    with NCEngine(
        graph,
        context_size=context_size,
        alpha=alpha,
        max_workers=1,
        executor="process",
        seed=seed,
        max_batch=max_batch,
        batch_window_ms=batch_window_ms,
        slow_query_ms=0.001,  # everything is "slow": tail capture always fires
    ) as engine:
        engine.pin()
        trace = engine.tracer.begin("bench.request")
        engine.request(queries[0], trace=trace)
        retained = engine.tracer.finish(trace)
        if not retained:  # pragma: no cover - would be a tracer bug
            raise AssertionError(
                "slow-query tail capture did not retain the forced-slow trace"
            )
        captured = engine.tracer.buffer.get(trace.trace_id)
    span_names = {span["name"] for span in captured["spans"]}
    worker_ms = sum(
        span["duration_ms"]
        for span in captured["spans"]
        if span["name"] in ("worker.ppr", "worker.sweep")
    )
    request_ms = captured["duration_ms"]
    if not {"worker.ppr", "worker.sweep"} <= span_names:  # pragma: no cover
        raise AssertionError(
            f"slow trace is missing worker-side phase spans "
            f"(got {sorted(span_names)})"
        )
    if worker_ms > request_ms:  # pragma: no cover - would be a stitch bug
        raise AssertionError(
            f"worker ppr+sweep spans ({worker_ms:.3f}ms) exceed the request "
            f"span ({request_ms:.3f}ms): cross-process rebasing is broken"
        )
    return {
        "traffic": (
            f"{distinct} distinct width-{width} queries, all submitted "
            f"concurrently (the saturated-batch workload)"
        ),
        "workers": 1,
        "max_batch": max_batch,
        "batch_window_ms": batch_window_ms,
        "sample_rate": sample_rate,
        "disabled_elapsed_s": disabled_s,
        "disabled_rps": len(queries) / disabled_s,
        "disabled_p99_s": p99(disabled_lat),
        "sampled_elapsed_s": sampled_s,
        "sampled_rps": len(queries) / sampled_s,
        "sampled_p99_s": p99(sampled_lat),
        "throughput_ratio": disabled_s / sampled_s,
        "slow_trace": {
            "trace_id": captured["trace_id"],
            "spans": len(captured["spans"]),
            "phases": sorted(span_names),
            "worker_ppr_sweep_ms": worker_ms,
            "request_ms": request_ms,
        },
        "note": (
            "same saturated burst, tracing off vs 1% head sampling; "
            "tools/bench_compare.py --trace-overhead gates on throughput "
            "and p99; the forced-slow run asserts the captured trace "
            "carries worker.ppr + worker.sweep spans bounded by the "
            "request span"
        ),
    }


def _result_fingerprint(result) -> "list[tuple[str, float]]":
    """The byte-identity fingerprint used by the parity/chaos phases."""
    return [(item.label, item.score) for item in result.results] + [
        ("__notable__", 0.0)
    ] + [(label, 0.0) for label in result.notable_labels()]


def run_service_benchmark(
    *,
    snapshot_path: "str | None" = None,
    **kwargs,
) -> dict:
    """Run the full service benchmark; returns the JSON-ready report.

    Throughput phases run ``repeat`` times and keep the best (min time),
    filtering scheduler jitter the same way ``run_perf_suite`` does.

    ``snapshot_path`` optionally names the snapshot file the cold-start
    and snapshot-serving phases use: an existing, matching file is
    reused (CI caches it across runs), anything else is (re)compiled
    there. Without it a temp file is used and removed afterwards — even
    when a phase fails. Remaining keyword arguments are those of
    :func:`_run_service_benchmark`.
    """
    snap_path = snapshot_path or os.path.join(
        tempfile.gettempdir(), f"repro-bench-{os.getpid()}.snap"
    )
    try:
        return _run_service_benchmark(snap_path=snap_path, **kwargs)
    finally:
        if snapshot_path is None and os.path.exists(snap_path):
            os.unlink(snap_path)  # private temp snapshot; caches pass a real path


def _run_service_benchmark(
    *,
    dataset: str = "yago",
    scale: float = 2.0,
    context_size: int = 100,
    workers: int = 4,
    distinct: int = 12,
    hot_queries: int = 4,
    hot_repeats: int = 8,
    coalesce_clients: int = 8,
    alpha: float = 0.05,
    seed: int = 11,
    repeat: int = 3,
    saturated_scale: float = 32.0,
    saturated_context: int = 5,
    saturated_distinct: int = 16,
    saturated_max_batch: int = 16,
    saturated_window_ms: float = 30.0,
    snap_path: str = "",
) -> dict:
    """The benchmark body; ``snap_path`` is owned (created/cleaned) by the
    public wrapper."""
    graph = load_dataset(dataset, scale=scale)
    queries = benchmark_queries(distinct)
    trace = traffic_trace(
        queries, hot_queries=hot_queries, hot_repeats=hot_repeats, seed=seed
    )
    report: dict = {
        "suite": "service_bench",
        "pr": 10,
        "created_unix": int(time.time()),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "graph": {
            "dataset": dataset,
            "scale": scale,
            "nodes": graph.node_count,
            "edges": graph.edge_count,
        },
        "params": {
            "context_size": context_size,
            "workers": workers,
            "distinct_queries": len(queries),
            "trace_requests": len(trace),
            "hot_queries": hot_queries,
            "hot_repeats": hot_repeats,
            "coalesce_clients": coalesce_clients,
            "alpha": alpha,
            "repeat": repeat,
            "saturated_scale": saturated_scale,
            "saturated_context": saturated_context,
            "saturated_distinct": saturated_distinct,
            "saturated_max_batch": saturated_max_batch,
            "saturated_window_ms": saturated_window_ms,
        },
    }

    # -- cold start: parse+compile vs mmap open (PR 4) ---------------------
    report["cold_start"] = _bench_cold_start(graph, repeat=repeat, snap_path=snap_path)

    # -- single-thread sequential baseline over the traffic trace ----------
    # The pre-service serving path: stateless, a fresh finder computes
    # every request (what `repro search` does per invocation). One warmup
    # pass over the distinct queries fills process-level caches (compiled
    # snapshot, multinomial outcome tables) so the comparison isolates
    # the serving architecture, not cold-process effects.
    def serve_stateless(requests: list[tuple[str, ...]]) -> None:
        """One fresh finder per request — the pre-service serving path."""
        for query in requests:
            rw_mult(graph, context_size=context_size, alpha=alpha, rng=seed).run(query)

    serve_stateless(queries)  # warmup
    sequential_s = min(_timed(lambda: serve_stateless(trace)) for _ in range(repeat))
    report["sequential"] = {
        "mode": "stateless single-thread (per-request finder, no cache)",
        "requests": len(trace),
        "elapsed_s": sequential_s,
        "throughput_rps": len(trace) / sequential_s,
    }

    with NCEngine(
        graph,
        context_size=context_size,
        alpha=alpha,
        max_workers=workers,
        seed=seed,
    ) as engine:
        engine.pin()

        # -- cold latencies == engine sequential distinct throughput -------
        best_cold: list[float] | None = None
        for _ in range(repeat):
            engine.cache.clear()
            cold = [engine.request(query).elapsed_seconds for query in queries]
            if best_cold is None or sum(cold) < sum(best_cold):
                best_cold = cold
        cold_summary = _summary(best_cold)
        cold_summary["throughput_rps"] = len(best_cold) / cold_summary["total_s"]
        report["cold"] = cold_summary

        # -- warm latencies (all cache hits) -------------------------------
        warm_outcomes = [engine.request(query) for query in queries]
        assert all(outcome.cached for outcome in warm_outcomes), (
            "warm phase expected cache hits"
        )
        warm = [outcome.elapsed_seconds for outcome in warm_outcomes]
        warm_summary = _summary(warm)
        warm_summary["hit_speedup_mean"] = (
            cold_summary["mean_s"] / warm_summary["mean_s"]
        )
        warm_summary["hit_speedup_median"] = (
            cold_summary["median_s"] / warm_summary["median_s"]
        )
        report["warm"] = warm_summary

        # -- concurrent engine over the same traffic trace -----------------
        def serve_concurrent(requests: list[tuple[str, ...]]) -> None:
            """Push the whole trace through the engine, then drain it."""
            futures = [engine.submit(query)[0] for query in requests]
            for future in futures:
                future.result()

        concurrent_s = float("inf")
        for _ in range(repeat):
            engine.cache.clear()
            concurrent_s = min(concurrent_s, _timed(lambda: serve_concurrent(trace)))
        report["concurrent"] = {
            "mode": f"engine, {workers} workers, cache + single-flight",
            "requests": len(trace),
            "workers": workers,
            "elapsed_s": concurrent_s,
            "throughput_rps": len(trace) / concurrent_s,
            "speedup_vs_sequential": sequential_s / concurrent_s,
        }

        # -- concurrent distinct-only (pure parallelism transparency) ------
        distinct_s = float("inf")
        for _ in range(repeat):
            engine.cache.clear()
            distinct_s = min(distinct_s, _timed(lambda: serve_concurrent(queries)))
        report["concurrent_distinct"] = {
            "workers": workers,
            "elapsed_s": distinct_s,
            "throughput_rps": len(queries) / distinct_s,
            "speedup_vs_engine_sequential": cold_summary["total_s"] / distinct_s,
            "note": (
                "distinct queries only, so neither cache nor coalescing can "
                "help; on a single-CPU host the GIL bounds this near 1x"
            ),
        }

        # -- backend comparison: thread vs process on distinct traffic -----
        # Same distinct queries, empty caches, all submitted concurrently.
        # The thread number is the concurrent-distinct phase above (this
        # engine IS the thread backend); the process engine re-serves the
        # identical workload from shared-memory worker processes. One
        # warmup pass per backend lets workers attach the segment and
        # build their transition matrix outside the timed region.
        thread_results = [engine.request(query).result for query in queries]
        with NCEngine(
            graph,
            context_size=context_size,
            alpha=alpha,
            max_workers=workers,
            executor="process",
            seed=seed,
        ) as process_engine:
            process_engine.pin()

            def serve_process(requests: list[tuple[str, ...]]) -> None:
                """The same drain loop against the process-backed engine."""
                futures = [process_engine.submit(query)[0] for query in requests]
                for future in futures:
                    future.result()

            serve_process(queries)  # warmup: attach + per-worker transition
            process_results = [
                process_engine.request(query).result for query in queries
            ]
            process_s = float("inf")
            for _ in range(repeat):
                process_engine.cache.clear()
                process_s = min(process_s, _timed(lambda: serve_process(queries)))
            worker_stats = process_engine.stats().workers or {}

        def _fingerprint(result) -> list[tuple[str, float]]:
            return [(item.label, item.score) for item in result.results]

        identical = all(
            _fingerprint(a) == _fingerprint(b)
            and a.notable_labels() == b.notable_labels()
            for a, b in zip(thread_results, process_results)
        )
        report["backends"] = {
            "traffic": "distinct queries only (the GIL-bound class)",
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "thread_elapsed_s": distinct_s,
            "thread_throughput_rps": len(queries) / distinct_s,
            "process_elapsed_s": process_s,
            "process_throughput_rps": len(queries) / process_s,
            "process_speedup_vs_thread": distinct_s / process_s,
            "identical_results": identical,
            "worker_pool": worker_stats,
            "note": (
                "the process backend pays IPC + result pickling per request; "
                "its advantage grows with cpu_count (parallel distinct "
                "computations), though heavyweight queries can beat the "
                "thread backend even on one CPU by sidestepping GIL "
                "contention between executor threads"
            ),
        }
        if not identical:  # pragma: no cover - would be a correctness bug
            raise AssertionError(
                "process backend returned different results than the thread "
                "backend on the same trace"
            )

        # -- snapshot serving: the same distinct traffic off the mmap ------
        # An engine over the snapshot *view* — no KnowledgeGraph in the
        # serving stack — must answer exactly what live-graph serving
        # answers. This is `repro serve --snapshot` in benchmark form.
        from repro.disk import open_snapshot_view

        view = open_snapshot_view(snap_path)
        try:
            with NCEngine(
                view,
                context_size=context_size,
                alpha=alpha,
                max_workers=workers,
                seed=seed,
            ) as snapshot_engine:
                pin_s = _timed(snapshot_engine.pin)

                def serve_snapshot(requests: list[tuple[str, ...]]) -> None:
                    """The drain loop against the snapshot-backed engine."""
                    futures = [
                        snapshot_engine.submit(query)[0] for query in requests
                    ]
                    for future in futures:
                        future.result()

                serve_snapshot(queries)  # warmup (resolution index, caches)
                snapshot_results = [
                    snapshot_engine.request(query).result for query in queries
                ]
                snapshot_s = float("inf")
                for _ in range(repeat):
                    snapshot_engine.cache.clear()
                    snapshot_s = min(
                        snapshot_s, _timed(lambda: serve_snapshot(queries))
                    )
        finally:
            # Release the mapping before the caller unlinks the temp file
            # (an open memmap blocks deletion on Windows).
            view.close()
        snapshot_identical = all(
            _fingerprint(a) == _fingerprint(b)
            and a.notable_labels() == b.notable_labels()
            for a, b in zip(thread_results, snapshot_results)
        )
        report["snapshot_serving"] = {
            "mode": "thread engine over the mmapped snapshot view "
            "(no KnowledgeGraph in the serving process)",
            "pin_s": pin_s,
            "elapsed_s": snapshot_s,
            "throughput_rps": len(queries) / snapshot_s,
            "identical_results": snapshot_identical,
        }
        if not snapshot_identical:  # pragma: no cover - would be a bug
            raise AssertionError(
                "snapshot-backed serving returned different results than "
                "live-graph serving"
            )

        # -- hot swap: registry versions under sustained traffic (PR 5) ----
        report["hot_swap"] = _bench_hot_swap(
            graph,
            context_size=context_size,
            alpha=alpha,
            seed=seed,
            workers=workers,
            queries=queries,
        )

        # -- live ingest: delta append -> merge -> swap under reads (PR 10)
        report["live_ingest"] = _bench_live_ingest(
            graph,
            context_size=context_size,
            alpha=alpha,
            seed=seed,
            workers=workers,
            queries=queries,
        )

        # -- fault storm: crash-injected workers + SIGKILLs (PR 6) ---------
        report["fault_storm"] = _bench_fault_storm(
            graph,
            context_size=context_size,
            alpha=alpha,
            seed=seed,
            workers=workers,
            queries=queries,
        )

        # -- load profile: Zipf open-loop traffic + bootstrap CIs (PR 7) ---
        report["load_profile"] = _bench_load_profile(engine, seed=seed)

        # -- saturated batch: micro-batched vs per-query workers (PR 8) ----
        # Runs on its own (larger, shallower-context) graph where a
        # worker's per-query fixed cost dominates — the regime the
        # batched multi-column kernels exist for.
        report["saturated_batch"] = _bench_saturated_batch(
            alpha=alpha,
            seed=seed,
            repeat=repeat,
            dataset=dataset,
            scale=saturated_scale,
            context_size=saturated_context,
            distinct=saturated_distinct,
            max_batch=saturated_max_batch,
            batch_window_ms=saturated_window_ms,
        )

        # -- trace overhead: 1% sampling on the saturated workload (PR 9) --
        report["trace_overhead"] = _bench_trace_overhead(
            alpha=alpha,
            seed=seed,
            repeat=repeat,
            dataset=dataset,
            scale=saturated_scale,
            context_size=saturated_context,
            distinct=saturated_distinct,
            max_batch=saturated_max_batch,
            batch_window_ms=saturated_window_ms,
        )

        # -- single-flight coalescing --------------------------------------
        engine.cache.clear()
        stats_before = engine.stats()
        computed_before = stats_before.computed
        coalesced_before = stats_before.coalesced
        hits_before = stats_before.cache_hits
        barrier = threading.Barrier(coalesce_clients)
        errors: list[BaseException] = []

        def hot_client() -> None:
            """One synchronized client hammering the same hot query."""
            try:
                barrier.wait()
                engine.request(queries[0])
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=hot_client) for _ in range(coalesce_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:  # pragma: no cover - only on benchmark failure
            raise errors[0]
        stats = engine.stats()
        report["single_flight"] = {
            "clients": coalesce_clients,
            "computed": stats.computed - computed_before,
            "coalesced": stats.coalesced - coalesced_before,
            "cache_hits": stats.cache_hits - hits_before,
        }
        report["engine_stats"] = stats.as_dict()
    return report


def print_report(report: dict) -> None:
    """The human-readable digest printed by ``repro bench-serve``."""
    sequential = report["sequential"]
    cold = report["cold"]
    warm = report["warm"]
    concurrent = report["concurrent"]
    distinct = report["concurrent_distinct"]
    flight = report["single_flight"]
    print(
        f"traffic trace: {sequential['requests']} requests over "
        f"{report['params']['distinct_queries']} distinct queries"
    )
    print(
        f"sequential (stateless single-thread): "
        f"{sequential['throughput_rps']:.2f} req/s"
    )
    print(
        f"concurrent (engine, {concurrent['workers']} workers): "
        f"{concurrent['throughput_rps']:.2f} req/s "
        f"({concurrent['speedup_vs_sequential']:.2f}x sequential)"
    )
    print(
        f"cold latency: mean {cold['mean_s'] * 1e3:.1f}ms | warm (cached): "
        f"mean {warm['mean_s'] * 1e6:.0f}us "
        f"({warm['hit_speedup_mean']:.0f}x faster)"
    )
    print(
        f"distinct-only concurrency: "
        f"{distinct['speedup_vs_engine_sequential']:.2f}x engine-sequential "
        f"on {report['machine']['cpu_count']} CPU(s)"
    )
    backends = report.get("backends")
    if backends:
        print(
            f"backends (distinct traffic, {backends['workers']} workers): "
            f"thread {backends['thread_throughput_rps']:.2f} req/s | "
            f"process {backends['process_throughput_rps']:.2f} req/s "
            f"({backends['process_speedup_vs_thread']:.2f}x, identical "
            f"results: {backends['identical_results']})"
        )
    cold_start = report.get("cold_start")
    if cold_start:
        print(
            f"cold start: parse+compile {cold_start['parse_compile_s']:.3f}s | "
            f"mmap open {cold_start['mmap_open_s'] * 1e3:.2f}ms "
            f"({cold_start['speedup']:.0f}x)"
        )
    snapshot_serving = report.get("snapshot_serving")
    if snapshot_serving:
        print(
            f"snapshot serving: {snapshot_serving['throughput_rps']:.2f} req/s "
            f"off the mmap view (identical results: "
            f"{snapshot_serving['identical_results']})"
        )
    hot_swap = report.get("hot_swap")
    if hot_swap:
        print(
            f"hot swap: v{hot_swap['old_version']} -> "
            f"v{hot_swap['new_version']} in {hot_swap['swap_s'] * 1e3:.1f}ms "
            f"under {hot_swap['clients']} clients "
            f"({hot_swap['requests']} requests, {hot_swap['failures']} "
            f"failures, drained: {hot_swap['drained_versions']})"
        )
    live_ingest = report.get("live_ingest")
    if live_ingest:
        last = live_ingest["cycles"][-1]
        print(
            f"live ingest: {len(live_ingest['cycles'])} append->merge->swap "
            f"cycle(s) under {live_ingest['clients']} clients "
            f"(v{live_ingest['base_version']} -> "
            f"v{live_ingest['final_version']}, last adoption "
            f"{last['adoption_s'] * 1e3:.1f}ms, {live_ingest['failures']} "
            f"failed reads, p99 {live_ingest['ingest_p99_s'] * 1e3:.1f}ms vs "
            f"quiescent {live_ingest['quiescent_p99_s'] * 1e3:.1f}ms "
            f"[{live_ingest['p99_ratio']:.2f}x], identical results: "
            f"{live_ingest['identical_results']})"
        )
    fault_storm = report.get("fault_storm")
    if fault_storm:
        breaker = fault_storm["engine"]["breaker"] or {}
        print(
            f"fault storm: {fault_storm['requests']} requests under "
            f"crash-injected + SIGKILLed workers "
            f"({fault_storm['wrong_answers']} wrong answers, "
            f"{fault_storm['structured_errors']} structured errors "
            f"[{fault_storm['error_rate']:.1%}], "
            f"{fault_storm['engine']['retries']} retries, "
            f"{fault_storm['engine']['fallbacks']} fallbacks, "
            f"{breaker.get('trips', 0)} breaker trip(s), recovered: "
            f"{fault_storm['recovered']}, health: "
            f"{fault_storm['health_after']})"
        )
    load_profile = report.get("load_profile")
    if load_profile:
        open_run = load_profile["open"]
        p99 = open_run["quantiles"]["p99"]
        print(
            f"load profile (open loop, zipf_s={load_profile['zipf_s']}): "
            f"{open_run['completed']}/{open_run['requests']} requests at "
            f"{open_run['achieved_rps']:.1f} req/s, p99 "
            f"{p99['value'] * 1e3:.1f}ms "
            f"[{p99['ci_lo'] * 1e3:.1f}, {p99['ci_hi'] * 1e3:.1f}]"
        )
    saturated = report.get("saturated_batch")
    if saturated:
        print(
            f"saturated batch (distinct traffic, 1 process worker): "
            f"per-query {saturated['per_query_rps']:.2f} req/s | "
            f"micro-batched {saturated['batched_rps']:.2f} req/s "
            f"({saturated['ratio']:.2f}x, mean batch "
            f"{saturated['mean_batch_size']:.1f}, identical results: "
            f"{saturated['identical_results']})"
        )
    trace_overhead = report.get("trace_overhead")
    if trace_overhead:
        print(
            f"trace overhead ({trace_overhead['sample_rate']:.0%} sampling): "
            f"off {trace_overhead['disabled_rps']:.2f} req/s | "
            f"on {trace_overhead['sampled_rps']:.2f} req/s "
            f"({trace_overhead['throughput_ratio']:.2f}x), slow trace "
            f"{trace_overhead['slow_trace']['spans']} spans, worker "
            f"ppr+sweep {trace_overhead['slow_trace']['worker_ppr_sweep_ms']:.1f}ms "
            f"of {trace_overhead['slow_trace']['request_ms']:.1f}ms request"
        )
    print(
        f"single-flight: {flight['clients']} clients -> "
        f"{flight['computed']} computation(s), {flight['coalesced']} coalesced"
    )
