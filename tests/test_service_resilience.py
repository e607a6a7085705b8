"""Tests for resilient query execution: deadlines, retries, breaker, shedding."""

from __future__ import annotations

import time

import pytest

import threading

from repro.datasets.figure1 import figure1_graph
from repro.errors import DeadlineExceededError, EngineSaturatedError
from repro.parallel.shm import publish_graph
from repro.service import faults
from repro.service.engine import CircuitBreaker, NCEngine
from repro.service.workers import ProcessWorkerPool, WorkerConfig

QUERY = ["Angela_Merkel", "Barack_Obama"]


@pytest.fixture(autouse=True)
def _disarmed(monkeypatch):
    """Every test starts and ends with no faults armed."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture()
def graph():
    return figure1_graph()


class _Clock:
    """An injectable monotonic clock the breaker tests can advance."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=2, reset_s=10.0, clock=_Clock())
        breaker.record_failure("boom 1")
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure("boom 2")
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1
        assert breaker.reason == "boom 2"

    def test_success_clears_the_streak(self):
        breaker = CircuitBreaker(threshold=2, reset_s=10.0, clock=_Clock())
        breaker.record_failure("boom")
        breaker.record_success()
        breaker.record_failure("boom")
        assert breaker.state == "closed"

    def test_half_open_allows_one_probe_per_window(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, reset_s=10.0, clock=clock)
        breaker.record_failure("boom")
        assert not breaker.allow()
        clock.now += 10.0
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # second caller inside the probe window
        clock.now += 10.0
        assert breaker.allow()  # a stalled probe can't wedge the breaker

    def test_probe_success_closes(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, reset_s=10.0, clock=clock)
        breaker.record_failure("boom")
        clock.now += 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() and breaker.reason == ""

    def test_probe_failure_reopens(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, reset_s=10.0, clock=clock)
        breaker.record_failure("boom")
        clock.now += 10.0
        assert breaker.allow()
        breaker.record_failure("still broken")
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.allow()

    def test_as_dict_shape(self):
        breaker = CircuitBreaker(threshold=1, reset_s=10.0, clock=_Clock())
        breaker.record_failure("boom")
        assert breaker.as_dict() == {
            "state": "open",
            "consecutive_failures": 1,
            "trips": 1,
            "reason": "boom",
        }

    @pytest.mark.parametrize(
        "kwargs", [{"threshold": 0}, {"reset_s": 0.0}, {"reset_s": -1.0}]
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


class TestEngineValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"request_timeout": 0.0},
            {"request_timeout": -1.0},
            {"max_pending": 0},
            {"retries": -1},
            {"retry_backoff": -0.1},
            {"breaker_threshold": 0},
            {"breaker_reset_s": 0.0},
        ],
    )
    def test_rejects_bad_resilience_kwargs(self, graph, kwargs):
        with pytest.raises(ValueError):
            NCEngine(graph, context_size=3, **kwargs)

    def test_submit_rejects_nonpositive_timeout(self, graph):
        with NCEngine(graph, context_size=3, seed=5) as engine:
            with pytest.raises(ValueError, match="timeout"):
                engine.submit(QUERY, timeout=0.0)


class TestThreadDeadlines:
    def test_request_timeout_surfaces_within_the_deadline(self, graph):
        with NCEngine(graph, context_size=3, max_workers=1, seed=5) as engine:
            faults.set_injector(
                faults.FaultInjector(
                    [faults.FaultRule("engine.slow", delay_s=0.6, limit=1)]
                )
            )
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError) as exc:
                engine.request(QUERY, timeout=0.15)
            assert time.monotonic() - started < 0.5
            assert exc.value.timeout == 0.15
            assert engine.stats().timeouts == 1
            # The pure computation cannot be interrupted: it finishes in
            # the background and lands in the cache.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if engine.request(QUERY).cached:
                    break
                time.sleep(0.02)
            assert engine.request(QUERY).cached

    def test_engine_default_request_timeout_applies(self, graph):
        with NCEngine(
            graph, context_size=3, max_workers=1, seed=5, request_timeout=0.1
        ) as engine:
            faults.set_injector(
                faults.FaultInjector(
                    [faults.FaultRule("engine.slow", delay_s=0.6, limit=1)]
                )
            )
            with pytest.raises(DeadlineExceededError):
                engine.request(QUERY)

    def test_queued_job_cancelled_at_the_deadline(self, graph):
        with NCEngine(graph, context_size=3, max_workers=1, seed=5) as engine:
            # The only executor thread is held by a slow compute, so the
            # second query expires while still queued — its _compute must
            # refuse to start rather than charge a dead request.
            faults.set_injector(
                faults.FaultInjector(
                    [faults.FaultRule("engine.slow", delay_s=0.6, limit=1)]
                )
            )
            blocker, *_ = engine.submit(QUERY)
            queued, *_ = engine.submit(["Vladimir_Putin"], timeout=0.15)
            with pytest.raises(DeadlineExceededError, match="queued"):
                queued.result(timeout=5.0)
            assert engine.stats().timeouts == 1
            blocker.result(timeout=5.0)


class TestAdmissionControl:
    def test_sheds_beyond_the_pending_budget(self, graph):
        with NCEngine(
            graph, context_size=3, max_workers=1, seed=5, max_pending=1
        ) as engine:
            faults.set_injector(
                faults.FaultInjector(
                    [faults.FaultRule("engine.slow", delay_s=0.6, limit=1)]
                )
            )
            blocker, *_ = engine.submit(QUERY)
            with pytest.raises(EngineSaturatedError) as exc:
                engine.submit(["Vladimir_Putin"])
            assert exc.value.retry_after == 1.0
            assert engine.stats().shed == 1
            blocker.result(timeout=5.0)
            # Budget freed: the shed query is admitted now.
            future, *_ = engine.submit(["Vladimir_Putin"])
            assert future.result(timeout=5.0).results

    def test_coalescing_beats_shedding(self, graph):
        with NCEngine(
            graph, context_size=3, max_workers=1, seed=5, max_pending=1
        ) as engine:
            faults.set_injector(
                faults.FaultInjector(
                    [faults.FaultRule("engine.slow", delay_s=0.4, limit=1)]
                )
            )
            blocker, *_ = engine.submit(QUERY)
            # An identical in-flight query attaches to the existing
            # computation instead of being shed.
            future, cached, coalesced, _ = engine.submit(QUERY)
            assert coalesced and not cached
            assert future is blocker
            assert engine.stats().shed == 0
            blocker.result(timeout=5.0)


def _fast_pool(engine: NCEngine, workers: int, **kwargs) -> ProcessWorkerPool:
    """Pre-build the engine's pool with chaos-grade detection latency.

    Building it here (rather than at first dispatch) also pins *when*
    the workers spawn — i.e. which ``REPRO_FAULTS`` value they inherit.
    ``kwargs`` pass through (e.g. the micro-batching knobs).
    """
    pool = ProcessWorkerPool(
        workers, watchdog_tick=0.05, crash_grace_s=0.2, **kwargs
    )
    engine._pool = pool  # noqa: SLF001 - test harness
    return pool


class TestProcessResilience:
    pytestmark = pytest.mark.chaos

    def test_crash_retried_on_a_healthy_worker(self, graph, monkeypatch):
        with NCEngine(graph, context_size=3, max_workers=1, seed=5) as thread_engine:
            expected = thread_engine.search(QUERY)
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.crash=1")
        with NCEngine(
            graph,
            context_size=3,
            max_workers=1,
            executor="process",
            seed=5,
            retries=2,
            retry_backoff=0.01,
        ) as engine:
            _fast_pool(engine, 1)  # spawns the (armed) worker now
            monkeypatch.delenv(faults.FAULTS_ENV)
            # First dispatch crashes; the watchdog replaces the worker
            # (healthy: the env var is gone) and the retry succeeds.
            result = engine.search(QUERY)
            assert [r.score for r in result.results] == [
                r.score for r in expected.results
            ]
            stats = engine.stats()
            assert stats.retries >= 1
            assert stats.fallbacks == 0
            assert stats.breaker["state"] == "closed"
            assert engine.health() == {"status": "ok"}

    def test_breaker_trips_to_degraded_then_revives(self, graph, monkeypatch):
        with NCEngine(graph, context_size=3, max_workers=1, seed=5) as thread_engine:
            expected = thread_engine.search(QUERY)
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.crash=1")
        with NCEngine(
            graph,
            context_size=3,
            max_workers=1,
            executor="process",
            seed=5,
            retries=0,
            breaker_threshold=1,
            breaker_reset_s=60.0,
        ) as engine:
            pool = _fast_pool(engine, 1)
            # Every dispatch crashes (respawns re-read the env var, so
            # replacements are armed too): the single-attempt budget
            # exhausts, the breaker trips, and the degraded local
            # fallback still answers — identically.
            degraded = engine.search(QUERY)
            assert [r.score for r in degraded.results] == [
                r.score for r in expected.results
            ]
            stats = engine.stats()
            assert stats.fallbacks == 1
            assert stats.breaker["state"] == "open"
            assert stats.breaker["trips"] == 1
            health = engine.health()
            assert health["status"] == "degraded"
            assert "circuit breaker is open" in health["reason"]

            # Open breaker: the pool is bypassed entirely (no new
            # crashes), requests keep completing from the fallback.
            dispatched_before = pool.stats().dispatched
            engine.cache.clear()
            engine.search(QUERY)
            assert pool.stats().dispatched == dispatched_before
            assert engine.stats().fallbacks == 2

            # Operator recovery: disarm the fault, kill the (still armed)
            # idle worker, revive. Traffic flows to the pool again.
            monkeypatch.delenv(faults.FAULTS_ENV)
            victim = pool._processes[0]  # noqa: SLF001
            victim.kill()
            victim.join(timeout=10)
            assert engine.revive_workers() == 1
            assert engine.health() == {"status": "ok"}
            engine.cache.clear()
            recovered = engine.search(QUERY)
            assert [r.score for r in recovered.results] == [
                r.score for r in expected.results
            ]
            assert pool.stats().dispatched == dispatched_before + 1
            assert engine.stats().breaker["state"] == "closed"

    def test_process_deadline_abandons_the_job(self, graph, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.slow=1:1.5:1")
        with NCEngine(
            graph, context_size=3, max_workers=1, executor="process", seed=5
        ) as engine:
            pool = _fast_pool(engine, 1)
            monkeypatch.delenv(faults.FAULTS_ENV)
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError, match="abandoned"):
                engine.request(QUERY, timeout=0.3)
            # Surfaced within the deadline plus one watchdog tick (plus
            # scheduler slack), not after the worker's 1.5s stall.
            assert time.monotonic() - started < 1.0
            stats = engine.stats()
            assert stats.timeouts == 1
            assert stats.workers["deadline_abandons"] == 1
            # The stalled worker finishes its sleep, its late result is
            # dropped, and the next request is served normally.
            outcome = engine.request(QUERY)
            assert outcome.result.results
            assert pool.stats().inflight == 0


def _worker_config() -> WorkerConfig:
    return WorkerConfig(
        damping=0.8,
        iterations=10,
        excluded_labels=None,
        include_inverse_labels=False,
        none_bucket=True,
        discriminator_params=(),
    )


class TestBatchWindowDeadlines:
    """A deadline expiring inside the batch window sheds only that member."""

    def test_expiry_in_the_window_sheds_that_member_only(self, graph):
        shared = publish_graph(graph)
        try:
            with ProcessWorkerPool(
                1, watchdog_tick=0.05, batch_window_ms=600.0, max_batch=8
            ) as pool:
                survivor: dict = {}

                def _survivor() -> None:
                    survivor["result"] = pool.run(
                        header=shared.header,
                        query_ids=(2,),
                        context_size=3,
                        alpha=0.05,
                        config=_worker_config(),
                    )

                thread = threading.Thread(target=_survivor)
                thread.start()
                time.sleep(0.1)  # the survivor is queued, the window is open
                started = time.monotonic()
                with pytest.raises(
                    DeadlineExceededError, match="queued in the batch window"
                ):
                    pool.run(
                        header=shared.header,
                        query_ids=(3,),
                        context_size=3,
                        alpha=0.05,
                        config=_worker_config(),
                        deadline=time.monotonic() + 0.15,
                    )
                # Surfaced at its own deadline, not at window close.
                assert time.monotonic() - started < 0.45
                thread.join(timeout=15)
                stats = pool.stats()
        finally:
            shared.unlink()
        # The batchmate was not shed with it: it dispatched (alone) and
        # completed after the window closed.
        assert survivor["result"].query == (2,)
        assert stats.deadline_abandons == 1
        assert stats.batches == 1
        assert stats.batched_members == 1  # the shed member never dispatched
        assert stats.completed == 1
        assert stats.inflight == 0


class TestBatchChaos:
    """Fault injection against the micro-batched process backend."""

    pytestmark = pytest.mark.chaos

    def test_crash_mid_batch_retries_every_member_correctly(
        self, graph, monkeypatch
    ):
        queries = [["Angela_Merkel"], ["Barack_Obama"], ["Vladimir_Putin"]]
        with NCEngine(graph, context_size=3, max_workers=1, seed=5) as thread_engine:
            expected = [thread_engine.search(q) for q in queries]
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.crash=1")
        with NCEngine(
            graph,
            context_size=3,
            max_workers=1,
            executor="process",
            seed=5,
            retries=3,
            retry_backoff=0.05,
            batch_window_ms=80.0,
            max_batch=4,
        ) as engine:
            pool = _fast_pool(
                engine, 1, batch_window_ms=80.0, max_batch=4
            )  # spawns the (armed) worker now
            monkeypatch.delenv(faults.FAULTS_ENV)
            # The whole first batch dies with its worker; every member is
            # retried on the (healthy) replacement and must answer exactly
            # what a solo thread engine computes — zero wrong answers.
            futures = [engine.submit(q)[0] for q in queries]
            results = [future.result(timeout=30) for future in futures]
            for got, exp in zip(results, expected):
                assert [r.score for r in got.results] == [
                    r.score for r in exp.results
                ]
                assert got.notable_labels() == exp.notable_labels()
            stats = engine.stats()
            assert stats.retries >= 1
            assert stats.fallbacks == 0
            pool_stats = pool.stats()
            assert pool_stats.respawns >= 1
            assert pool_stats.inflight == 0

    def test_slow_batch_timeout_accounted_per_member(self, graph, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.slow=1:1.2:1")
        with NCEngine(
            graph,
            context_size=3,
            max_workers=1,
            executor="process",
            seed=5,
            batch_window_ms=250.0,
            max_batch=4,
        ) as engine:
            pool = _fast_pool(
                engine, 1, batch_window_ms=250.0, max_batch=4
            )
            monkeypatch.delenv(faults.FAULTS_ENV)
            # Both members join one batch; the worker stalls 1.2s on it.
            # The victim's 0.4s deadline expires mid-batch: it must 504
            # (timeouts + deadline_abandons move by exactly one) while its
            # batchmate rides out the stall and completes normally.
            victim, *_ = engine.submit(QUERY, timeout=0.4)
            survivor, *_ = engine.submit(["Vladimir_Putin"])
            with pytest.raises(DeadlineExceededError):
                victim.result(timeout=10)
            assert survivor.result(timeout=10).results
            stats = engine.stats()
            assert stats.timeouts == 1
            assert stats.workers["deadline_abandons"] == 1
            assert stats.workers["batches"] == 1
            assert stats.workers["batched_members"] == 2
            assert stats.workers["completed"] == 1
