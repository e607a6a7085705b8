"""Multiprocess execution backend for :class:`~repro.service.engine.NCEngine`.

The thread backend serves *distinct* queries at ~1x per core: the
pipeline's Python-level work holds the GIL. This module is the scaling
lever for that traffic class — a pool of persistent worker **processes**
that execute FindNC computations against the shared-memory graph
snapshot published by :mod:`repro.parallel.shm`:

* the engine (parent) keeps everything stateful: HTTP serving, name
  resolution, the version-keyed result cache, single-flight coalescing,
  and segment publication;
* workers receive :class:`WorkerBatchTask` messages — job ids, the
  snapshot header, resolved query ids and parameters, a few hundred bytes
  per member — and attach the snapshot **once per graph version** (an
  shm segment for live-graph serving, an mmapped snapshot file for
  ``repro serve --snapshot``), adopting the published frozen PPR
  transition CSR zero-copy (rebuilding it only when the publisher did not
  share one); per-request cost is a small task pickle and a result
  pickle, never the graph;
* dispatch is round-robin over per-worker task queues, results flow back
  over one shared queue drained by a collector thread that resolves the
  parent-side jobs.

Every message is a batch, and a worker answers it with one
:func:`~repro.core.findnc.answer_batch` call — the same function the
thread executor calls with a batch of one, so both executors serve the
same pipeline by construction. Without batching (``max_batch=1``, the
default) each task ships at once as a batch of one. With ``max_batch >
1`` tasks queue in a parent-side pending deque and a dispatcher thread
drains them into bounded micro-batches — up to ``max_batch`` tasks
sharing one snapshot segment and one config, gathered for at most
``batch_window_ms``. The worker then answers every member's context
search with one shared multi-column power iteration and its distribution
counts with one fused sweep, and all member replies return as one list
message, so per-step sparse-matmat cost and result-transport overhead
are amortized across the batch. Answers do not depend on the batch
composition (``tests/test_batch_parity.py`` pins them to a plain
``FindNC.run`` per query), and a member whose deadline expires while
waiting in the batch window is shed alone — its batchmates still
execute.

Segment lifecycle: the pool refcounts in-flight jobs per segment.
:meth:`ProcessWorkerPool.retire` unlinks a segment immediately when idle,
or defers the unlink until its last in-flight job completes. A worker
that loses the race anyway (task dispatched, segment unlinked before
attach) reports the job as *stale* and the engine re-dispatches against
the current version.

Workers start via the ``spawn`` method: a fresh interpreter per worker
(no inherited locks or thread state), imports paid once at pool start,
not per request.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass

from repro.core.findnc import FindNCResult, WorkerConfig, answer_batch
from repro.errors import DeadlineExceededError
from repro.parallel.shm import (
    SharedSnapshot,
    SharedSnapshotHeader,
    SnapshotGraphView,
    StaleSnapshotError,
    attach_snapshot,
)
from repro.service import faults
from repro.service.tracing import WorkerSpanRecorder


def _attach_header(header):
    """Attach whatever transport ``header`` describes.

    Two header species reach a worker: an shm
    :class:`~repro.parallel.shm.SharedSnapshotHeader` (live-graph serving
    — attach the named segment) and a disk
    :class:`~repro.disk.DiskSnapshotHeader` (snapshot-file serving — mmap
    the file; no publish step existed, so there is nothing to attach in
    the shm sense). Both return objects with the same attach surface, so
    the worker loop below does not care which it got. A vanished snapshot
    file maps onto :class:`~repro.parallel.shm.StaleSnapshotError`, the
    same retriable condition as an unlinked segment.
    """
    if isinstance(header, SharedSnapshotHeader):
        return attach_snapshot(header)
    from repro.disk.store import DiskSnapshotHeader, open_snapshot

    if isinstance(header, DiskSnapshotHeader):
        try:
            return open_snapshot(header.path)
        except FileNotFoundError as error:
            raise StaleSnapshotError(
                f"snapshot file {header.path!r} is gone"
            ) from error
    raise TypeError(f"unknown snapshot header type: {type(header).__name__}")


class WorkerCrashError(RuntimeError):
    """A worker process died while one of its jobs was in flight."""


class RemoteQueryError(RuntimeError):
    """A worker-side computation failed; carries the remote traceback."""


@dataclass(frozen=True)
class WorkerTask:
    """One FindNC computation order, as pickled onto a worker queue.

    ``trace`` is the request's trace id when the parent is recording
    spans for it — the worker then times its phases through a
    :class:`~repro.service.tracing.WorkerSpanRecorder` and ships them
    back by wrapping the ``"ok"`` payload as ``(result, spans)``; with
    ``trace=None`` the payload is the bare result.
    """

    job_id: int
    header: SharedSnapshotHeader
    query_ids: "tuple[int, ...]"
    context_size: int
    alpha: float
    config: WorkerConfig
    trace: "str | None" = None


@dataclass(frozen=True)
class WorkerBatchTask:
    """The one worker message: tasks sharing a snapshot segment and config.

    The dispatcher groups by ``(segment, config)`` (an unbatched pool
    sends batches of one), so the worker attaches once and answers every
    member with a single :func:`~repro.core.findnc.answer_batch` call.
    """

    members: "tuple[WorkerTask, ...]"


def _answer(
    view: SnapshotGraphView,
    selector,
    members: "tuple[WorkerTask, ...]",
    recorder: "WorkerSpanRecorder | None" = None,
) -> list:
    """Answer one batch message as ``(job_id, segment, status, payload)`` replies.

    A member whose computation raised gets an ``"error"`` reply carrying
    its own traceback; its batchmates are unaffected. A traced member's
    ``"ok"`` payload is ``(result, spans)``: the message-level spans
    (segment attach) plus its share of the phase spans.
    """
    answers = answer_batch(
        view,
        view._compiled(),  # noqa: SLF001 - pinned per attach
        selector,
        members[0].config,
        [(member.query_ids, member.context_size, member.alpha) for member in members],
        recorder,
    )
    replies = []
    for index, (member, answer) in enumerate(zip(members, answers)):
        if isinstance(answer, BaseException):
            status = "error"
            payload = (repr(answer), "".join(traceback.format_exception(answer)))
        else:
            status = "ok"
            payload = answer
            if recorder is not None and member.trace is not None:
                payload = (answer, recorder.export(index))
        replies.append((member.job_id, member.header.segment, status, payload))
    return replies


def _worker_main(worker_index: int, task_queue, result_queue) -> None:
    """The worker process loop: attach-per-version, compute-per-task.

    Each :class:`WorkerBatchTask` is answered with one list message of
    ``(job_id, segment, status, payload)`` replies, one per member, with
    status ``"ok"`` (payload: the pickled
    :class:`~repro.core.findnc.FindNCResult`), ``"stale"`` (the segment
    was unlinked before this worker could attach) or ``"error"``
    (payload: ``(repr, traceback string)``).
    """
    from repro.core.context import RandomWalkContext  # heavy import, worker-local

    # Chaos-test transport: the env var is the only channel that crosses
    # the spawn boundary, so workers arm their faults from it at startup.
    faults.install_from_env()

    attached = None
    attached_segment: str | None = None
    view: SnapshotGraphView | None = None
    selector = None

    while True:
        message: "WorkerBatchTask | None" = task_queue.get()
        if message is None:
            break
        if faults.fire("worker.crash"):
            # Simulated hard crash mid-job: no result message, no cleanup
            # — exactly what the parent's watchdog must recover from. The
            # whole batch is lost; every member's watchdog surfaces the
            # crash and the engine's per-request retries re-dispatch (and
            # re-batch) them independently.
            os._exit(1)
        faults.fire("worker.slow")  # the rule's delay models a hung worker
        members = message.members
        task = members[0]
        segment = task.header.segment
        # One recorder per received message: its origin (message receipt)
        # is what the parent rebases span offsets against at stitch time.
        recorder = (
            WorkerSpanRecorder()
            if any(member.trace is not None for member in members)
            else None
        )
        try:
            if attached_segment != segment:
                # New graph version: drop the old mapping (views first —
                # a memoryview with live exports cannot be released),
                # attach the new segment, rebuild the frozen transition
                # matrix from the shared arrays. Once per version, not
                # per request. `attached_segment` is only recorded after
                # the WHOLE initialization succeeds — a partial failure
                # (e.g. the transition build raising) must not leave this
                # worker believing the segment is ready, or every later
                # task for the version would skip re-initialization and
                # fail on the half-built state.
                selector = None
                view = None
                attached_segment = None
                if attached is not None:
                    attached.close()
                    attached = None
                attach_start = recorder.now() if recorder is not None else 0
                attached = _attach_header(task.header)
                view = SnapshotGraphView(attached)
                selector = RandomWalkContext(
                    view,
                    damping=task.config.damping,
                    iterations=task.config.iterations,
                    pin=True,
                )
                shared_transition = attached.transition()
                if shared_transition is not None:
                    # The publisher shared the frozen transition's CSR
                    # triple (through the segment or the snapshot file):
                    # adopt it zero-copy instead of rebuilding
                    # weighted_adjacency per worker per version.
                    selector.warm_from(shared_transition)
                else:
                    selector.warm()
                attached_segment = segment
                if recorder is not None:
                    recorder.record(
                        "worker.attach",
                        attach_start,
                        segment=segment,
                        shared_transition=shared_transition is not None,
                    )
            # One list message for the whole batch: result pickling and
            # queue transport are paid once per batch, not per member.
            result_queue.put(_answer(view, selector, members, recorder))
        except StaleSnapshotError:
            attached = None
            attached_segment = None
            view = None
            selector = None
            result_queue.put(
                [(member.job_id, segment, "stale", None) for member in members]
            )
        except BaseException as error:  # noqa: BLE001 - forwarded to the parent
            payload = (repr(error), traceback.format_exc())
            try:
                result_queue.put(
                    [(member.job_id, segment, "error", payload) for member in members]
                )
            except Exception:  # pragma: no cover - unpicklable payload
                result_queue.put(
                    [
                        (member.job_id, segment, "error", (repr(error), ""))
                        for member in members
                    ]
                )

    # Orderly shutdown: release the mapping before the interpreter exits.
    selector = None
    view = None
    if attached is not None:
        attached.close()


def _batch_key(task: WorkerTask) -> tuple:
    """What batchmates share: one snapshot segment and one pipeline config."""
    return (task.header.segment, task.config)


class _Job:
    """Parent-side slot one in-flight task resolves into.

    ``process`` is ``None`` while the task waits in the batch window (the
    dispatcher thread assigns it at batch send time); the waiter's
    liveness watchdog only engages once a process is attached.
    ``dispatched_ns`` is stamped at the same moment — the boundary between
    the trace's ``pool.gather`` span (batch-window wait) and its
    ``pool.worker`` span (dispatch through result).
    """

    __slots__ = ("event", "status", "payload", "process", "dispatched_ns")

    def __init__(self, process=None) -> None:
        self.event = threading.Event()
        self.status: str | None = None
        self.payload: object = None
        self.process = process
        self.dispatched_ns: "int | None" = None


@dataclass(frozen=True)
class WorkerPoolStats:
    """A point-in-time snapshot of the pool counters."""

    workers: int
    alive: int
    dispatched: int
    completed: int
    stale_retries: int
    respawns: int
    inflight: int
    retired_segments: int
    #: Jobs abandoned because their deadline expired mid-flight.
    deadline_abandons: int = 0
    #: Respawns refused by the rate limiter (slot left dead until
    #: :meth:`ProcessWorkerPool.revive` or the window rolls over).
    respawns_suppressed: int = 0
    #: Micro-batches dispatched (0 unless the pool runs with max_batch > 1).
    batches: int = 0
    #: Members across those batches; mean batch size = members / batches.
    batched_members: int = 0

    def as_dict(self) -> dict:
        """The JSON shape embedded in the engine's ``/stats`` payload."""
        return {
            "workers": self.workers,
            "alive": self.alive,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "stale_retries": self.stale_retries,
            "respawns": self.respawns,
            "inflight": self.inflight,
            "retired_segments": self.retired_segments,
            "deadline_abandons": self.deadline_abandons,
            "respawns_suppressed": self.respawns_suppressed,
            "batches": self.batches,
            "batched_members": self.batched_members,
        }


class ProcessWorkerPool:
    """Round-robin pool of persistent FindNC worker processes.

    ``run`` is safe to call from many threads (the engine's thread pool
    is the dispatch layer); each call blocks until its worker answers.
    The pool never sees the graph — only snapshot headers and task
    parameters — which is what keeps the serialization boundary at
    "a few hundred bytes per request".

    ``on_event`` is an optional instrumentation callback ``(event: str,
    count: int)`` invoked outside the pool lock for ``"dispatch"``,
    ``"complete"``, ``"stale"``, ``"crash"``, ``"deadline_abandon"``,
    ``"respawn"``, ``"respawn_suppressed"`` and ``"batch_dispatch"``
    events (the engine wires it to its metrics registry); a raising
    callback is swallowed.

    Micro-batching: with ``max_batch > 1``, ``run`` enqueues tasks onto a
    pending deque and a dispatcher thread groups them by snapshot segment
    and config into batches of up to ``max_batch``, waiting at most
    ``batch_window_ms`` for stragglers once a task is pending. The default
    (``max_batch=1``) dispatches each task directly as a batch of one.
    ``on_batch`` is an optional callback ``(size: int)`` fired per
    dispatched batch (the engine wires it to a batch-size histogram).
    """

    def __init__(
        self,
        workers: int,
        *,
        start_method: str = "spawn",
        watchdog_tick: float = 0.5,
        crash_grace_s: float = 1.0,
        respawn_limit: int = 8,
        respawn_window_s: float = 30.0,
        batch_window_ms: float = 0.0,
        max_batch: int = 1,
        on_event=None,
        on_batch=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if watchdog_tick <= 0:
            raise ValueError(f"watchdog_tick must be > 0, got {watchdog_tick}")
        if crash_grace_s < 0:
            raise ValueError(f"crash_grace_s must be >= 0, got {crash_grace_s}")
        if respawn_limit < 1:
            raise ValueError(f"respawn_limit must be >= 1, got {respawn_limit}")
        if respawn_window_s <= 0:
            raise ValueError(
                f"respawn_window_s must be > 0, got {respawn_window_s}"
            )
        if batch_window_ms < 0:
            raise ValueError(f"batch_window_ms must be >= 0, got {batch_window_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._watchdog_tick = watchdog_tick
        self._crash_grace_s = crash_grace_s
        self._respawn_limit = respawn_limit
        self._respawn_window_s = respawn_window_s
        self._on_event = on_event
        self._ctx = mp.get_context(start_method)
        self._result_queue = self._ctx.SimpleQueue()
        self._processes: list = []
        self._task_queues: list = []
        for index in range(workers):
            process, task_queue = self._spawn(index)
            self._processes.append(process)
            self._task_queues.append(task_queue)
        self.workers = workers
        self._lock = threading.Lock()
        self._jobs: dict[int, _Job] = {}
        self._job_ids = itertools.count(1)
        self._round_robin = 0
        self._inflight_by_segment: dict[str, int] = {}
        self._retired: dict[str, SharedSnapshot] = {}
        self._dispatched = 0
        self._completed = 0
        self._stale_retries = 0
        self._respawns = 0
        self._respawn_times: "deque[float]" = deque()
        self._respawns_suppressed = 0
        self._deadline_abandons = 0
        self._closed = False
        self._max_batch = max_batch
        self._batch_window_s = batch_window_ms / 1000.0
        self._on_batch = on_batch
        self._batches = 0
        self._batched_members = 0
        self._pending: "deque[tuple[int, WorkerTask]]" = deque()
        self._batch_cond = threading.Condition(self._lock)
        self._dispatcher: "threading.Thread | None" = None
        if max_batch > 1:
            self._dispatcher = threading.Thread(
                target=self._dispatch_batches, name="nc-batch-dispatcher", daemon=True
            )
            self._dispatcher.start()
        self._collector = threading.Thread(
            target=self._collect, name="nc-worker-collector", daemon=True
        )
        self._collector.start()

    def _emit(self, event: str, count: int = 1) -> None:
        """Fire the instrumentation callback; never let it break dispatch."""
        if self._on_event is None or count <= 0:
            return
        try:
            self._on_event(event, count)
        except Exception:  # noqa: BLE001 - observability is best-effort
            pass

    def _spawn(self, index: int):
        """Start one worker process with its private task queue."""
        task_queue = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, task_queue, self._result_queue),
            name=f"nc-worker-{index}",
            daemon=True,
        )
        process.start()
        return process, task_queue

    def _respawn(self, dead) -> bool:
        """Replace ``dead`` with a fresh worker so its slot keeps serving.

        Without this, a single worker crash would permanently fail every
        job round-robined onto its slot. Jobs already queued to the dead
        worker are lost (their callers' watchdogs surface
        :class:`WorkerCrashError`); new dispatches get the replacement.
        Idempotent under races: only the caller that still finds ``dead``
        in the slot table respawns.

        Respawn storms are rate-limited: at most ``respawn_limit``
        replacements per rolling ``respawn_window_s`` window. A crash
        loop (bad snapshot, poisoned query, OOM killer) would otherwise
        burn CPU fork-bombing replacements that die immediately; past
        the limit the slot stays dead (``respawns_suppressed`` counts
        it) until the window rolls over or :meth:`revive` is called —
        the engine's circuit breaker observes the repeated
        :class:`WorkerCrashError` and degrades instead. Returns whether
        a replacement was actually started.
        """
        event: "str | None" = None
        try:
            with self._lock:
                if self._closed:
                    return False
                try:
                    slot = self._processes.index(dead)
                except ValueError:  # another caller already replaced it
                    return True
                if self._processes[slot].is_alive():  # pragma: no cover - raced
                    return True
                now = time.monotonic()
                while self._respawn_times and now - self._respawn_times[0] > self._respawn_window_s:
                    self._respawn_times.popleft()
                if len(self._respawn_times) >= self._respawn_limit:
                    self._respawns_suppressed += 1
                    event = "respawn_suppressed"
                    return False
                self._respawn_times.append(now)
                process, task_queue = self._spawn(slot)
                self._processes[slot] = process
                self._task_queues[slot] = task_queue
                self._respawns += 1
                event = "respawn"
                return True
        finally:
            if event is not None:
                self._emit(event)

    def revive(self) -> int:
        """Respawn every dead slot now, resetting the rate-limit window.

        The operator/recovery escape hatch after a crash storm ends
        (and what the engine's circuit breaker calls before a half-open
        probe): suppressed slots come back immediately instead of
        waiting out ``respawn_window_s``. Returns the number of slots
        revived.
        """
        revived = 0
        with self._lock:
            if self._closed:
                return 0
            self._respawn_times.clear()
            for slot, process in enumerate(self._processes):
                if process.is_alive():
                    continue
                replacement, task_queue = self._spawn(slot)
                self._processes[slot] = replacement
                self._task_queues[slot] = task_queue
                self._respawns += 1
                revived += 1
        self._emit("respawn", revived)
        return revived

    # -- dispatch ----------------------------------------------------------

    def run(
        self,
        *,
        header: SharedSnapshotHeader,
        query_ids: "tuple[int, ...]",
        context_size: int,
        alpha: float,
        config: WorkerConfig,
        deadline: "float | None" = None,
        trace=None,
        trace_span=None,
    ) -> FindNCResult:
        """Execute one task on the next worker (round-robin); block for it.

        ``trace`` (a :class:`~repro.service.tracing.Trace`) opts this job
        into span recording: the task ships the trace id across the
        pickle boundary, the worker times its phases locally, and on
        completion this method stitches the result under ``trace_span``
        as ``pool.gather`` (batch-window wait, batching only) and
        ``pool.worker`` (dispatch → result, carrying the worker-recorded
        phase spans rebased onto the dispatch instant).

        ``deadline`` is an absolute :func:`time.monotonic` instant: an
        already-expired deadline cancels the job before dispatch, and an
        in-flight job whose deadline passes is abandoned (segment
        refcount given back; a late worker result is dropped by the
        collector's decrement-once bookkeeping) and surfaces
        :class:`~repro.errors.DeadlineExceededError` within one watchdog
        tick. The worker may still finish the computation — results are
        pure, so the only cost is wasted work.

        Raises :class:`StaleSnapshotError` when the segment was retired
        before the worker attached (callers re-dispatch with the current
        header), :class:`RemoteQueryError` for worker-side failures, and
        :class:`WorkerCrashError` if the worker process died.
        """
        if deadline is not None and time.monotonic() >= deadline:
            # Expired before dispatch: never enqueue work nobody will wait
            # for (this is the "queued-but-unstarted jobs are cancelled"
            # path — the engine's executor queue delay already ate the
            # whole budget).
            with self._lock:
                self._deadline_abandons += 1
            self._emit("deadline_abandon")
            raise DeadlineExceededError(
                "request deadline expired before the job could be dispatched"
            )
        batching = self._max_batch > 1
        slot = -1
        enqueued_ns = time.monotonic_ns()
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            job_id = next(self._job_ids)
            task = WorkerTask(
                job_id=job_id,
                header=header,
                query_ids=tuple(query_ids),
                context_size=context_size,
                alpha=alpha,
                config=config,
                trace=trace.trace_id if trace is not None else None,
            )
            if batching:
                # The dispatcher thread assigns the worker at batch send
                # time; until then the job has no process and the liveness
                # watchdog below stays out of the way.
                job = _Job(None)
                self._jobs[job_id] = job
                self._pending.append((job_id, task))
                self._batch_cond.notify()
            else:
                slot = self._round_robin % self.workers
                self._round_robin += 1
                job = _Job(self._processes[slot])
                job.dispatched_ns = enqueued_ns
                self._jobs[job_id] = job
            self._inflight_by_segment[header.segment] = (
                self._inflight_by_segment.get(header.segment, 0) + 1
            )
            self._dispatched += 1
        self._emit("dispatch")
        if not batching:
            try:
                self._task_queues[slot].put(WorkerBatchTask(members=(task,)))
            except BaseException:
                # put() pickles the task on the calling thread; a failure
                # here (e.g. an unpicklable discriminator param) must give
                # back the job slot and the segment refcount or retired
                # segments could never unlink.
                self._abandon(job_id, header.segment)
                raise
        # Wait with a liveness watchdog: a worker killed mid-job would
        # otherwise leave this job waiting forever. The wait is chunked
        # by the watchdog tick and clipped to the deadline, so both a
        # dead worker and an expired deadline surface within one tick.
        while True:
            wait_for = self._watchdog_tick
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    still_queued = job.process is None
                    self._abandon(job_id, header.segment)
                    with self._lock:
                        self._deadline_abandons += 1
                    self._emit("deadline_abandon")
                    if still_queued:
                        # Shed THIS member only: the pending entry stays in
                        # the deque but the dispatcher drops job ids that
                        # are no longer registered, so batchmates still
                        # dispatch and execute untouched.
                        raise DeadlineExceededError(
                            f"job {job_id} missed its deadline while queued "
                            "in the batch window (the member was shed; its "
                            "batchmates were not)"
                        )
                    raise DeadlineExceededError(
                        f"job {job_id} missed its deadline while executing on "
                        f"{job.process.name} (the job was abandoned)"
                    )
                wait_for = min(wait_for, remaining)
            if job.event.wait(timeout=wait_for):
                break
            process = job.process
            if process is not None and not process.is_alive():
                # The worker may have finished the job (result already on
                # the queue) and died afterwards — give the collector a
                # grace window to drain it before declaring the job lost.
                if job.event.wait(timeout=self._crash_grace_s):
                    break
                self._abandon(job_id, header.segment)
                self._emit("crash")
                replaced = self._respawn(process)
                raise WorkerCrashError(
                    f"worker {process.name} died while computing job "
                    f"{job_id} ("
                    + (
                        "a replacement worker was started"
                        if replaced
                        else "replacement suppressed by the respawn rate limit"
                    )
                    + ")"
                )
        if job.status == "ok":
            payload = job.payload
            if trace is not None:
                # A traced task's ok payload is (result, worker spans).
                result, worker_spans = payload  # type: ignore[misc]
                done_ns = time.monotonic_ns()
                dispatched_ns = (
                    job.dispatched_ns
                    if job.dispatched_ns is not None
                    else enqueued_ns
                )
                if batching and dispatched_ns > enqueued_ns:
                    trace.add_span(
                        "pool.gather",
                        start_ns=enqueued_ns,
                        end_ns=dispatched_ns,
                        parent=trace_span,
                        attributes={
                            "window_ms": self._batch_window_s * 1000.0,
                            "max_batch": self._max_batch,
                        },
                    )
                process = job.process
                worker_span = trace.add_span(
                    "pool.worker",
                    start_ns=dispatched_ns,
                    end_ns=done_ns,
                    parent=trace_span,
                    attributes={
                        "worker_id": (
                            process.name if process is not None else "unknown"
                        ),
                    },
                )
                # Worker offsets count from message receipt, which is
                # after the dispatch instant; rebasing on dispatched_ns
                # keeps every remote span inside pool.worker.
                trace.add_remote_spans(
                    worker_spans, base_ns=dispatched_ns, parent=worker_span
                )
                return result
            return payload  # type: ignore[return-value]
        if job.status == "stale":
            with self._lock:
                self._stale_retries += 1
            self._emit("stale")
            raise StaleSnapshotError(
                f"segment {header.segment!r} was retired before the worker attached"
            )
        error_repr, remote_traceback = job.payload  # type: ignore[misc]
        raise RemoteQueryError(
            f"worker computation failed: {error_repr}\n--- worker traceback ---\n"
            f"{remote_traceback}"
        )

    def _abandon(self, job_id: int, segment: str) -> None:
        """Drop a job whose worker died; fix the segment refcount.

        The refcount is given back only if this call actually removed the
        job — the collector may have resolved it concurrently, and each
        job decrements its segment exactly once.
        """
        unlink_now: SharedSnapshot | None = None
        with self._lock:
            job = self._jobs.pop(job_id, None)
            if job is not None:
                unlink_now = self._decrement_segment_locked(segment)
        if unlink_now is not None:
            unlink_now.unlink()

    # -- micro-batch dispatch ----------------------------------------------

    def _resolve_local_error(self, job_id: int, segment: str, payload) -> None:
        """Fail a job from the parent side (batch pickling broke)."""
        unlink_now: SharedSnapshot | None = None
        with self._lock:
            job = self._jobs.pop(job_id, None)
            if job is not None:
                unlink_now = self._decrement_segment_locked(segment)
        if unlink_now is not None:
            unlink_now.unlink()
        if job is not None:
            job.status = "error"
            job.payload = payload
            job.event.set()

    def _dispatch_batches(self) -> None:
        """Drain pending tasks into ``(segment, config)``-grouped micro-batches.

        Runs on the dedicated dispatcher thread (only started when
        ``max_batch > 1``). Once a task is pending, up to
        ``batch_window_ms`` is spent gathering same-key companions — the
        window caps queueing latency, ``max_batch`` caps batch size.
        Entries whose job id is no longer registered were shed by their
        caller's deadline while queued; they are dropped member-by-member
        without disturbing the rest of the batch. Tasks with a different
        key than the batch head keep their arrival order and form the
        next batch.

        Graceful drain: ``close()`` sets ``_closed`` and joins this
        thread *before* sending worker shutdown sentinels. Observing
        ``_closed`` here cuts the gather window short but still flushes
        every already-gathered member to the worker queues — the thread
        only exits once the pending deque is empty, so a request accepted
        before ``close()`` completes instead of being dropped
        (regression-pinned in ``tests/test_service_workers.py``).
        """
        while True:
            with self._batch_cond:
                while not self._pending and not self._closed:
                    self._batch_cond.wait()
                if self._closed and not self._pending:
                    return
                window_until = time.monotonic() + self._batch_window_s
                while True:
                    live = deque(
                        entry for entry in self._pending if entry[0] in self._jobs
                    )
                    self._pending = live
                    if not live:
                        break
                    head = _batch_key(live[0][1])
                    ready = sum(1 for _, task in live if _batch_key(task) == head)
                    remaining = window_until - time.monotonic()
                    if ready >= self._max_batch or remaining <= 0 or self._closed:
                        break
                    self._batch_cond.wait(timeout=remaining)
                if not self._pending:
                    continue
                picked: list = []
                kept: "deque[tuple[int, WorkerTask]]" = deque()
                head = _batch_key(self._pending[0][1])
                for entry in self._pending:
                    if len(picked) < self._max_batch and _batch_key(entry[1]) == head:
                        picked.append(entry)
                    else:
                        kept.append(entry)
                self._pending = kept
                slot = self._round_robin % self.workers
                self._round_robin += 1
                process = self._processes[slot]
                dispatched_ns = time.monotonic_ns()
                for job_id, _task in picked:
                    job = self._jobs.get(job_id)
                    if job is not None:
                        job.process = process
                        job.dispatched_ns = dispatched_ns
                self._batches += 1
                self._batched_members += len(picked)
            self._emit("batch_dispatch")
            if self._on_batch is not None:
                try:
                    self._on_batch(len(picked))
                except Exception:  # noqa: BLE001 - observability is best-effort
                    pass
            message = WorkerBatchTask(members=tuple(task for _, task in picked))
            try:
                self._task_queues[slot].put(message)
            except BaseException as error:  # noqa: BLE001 - resolve all members
                payload = (repr(error), traceback.format_exc())
                for job_id, task in picked:
                    self._resolve_local_error(job_id, task.header.segment, payload)

    # -- collection --------------------------------------------------------

    def _collect(self) -> None:
        while True:
            message = self._result_queue.get()
            if message is None:
                break
            # Every message is one batch's list of per-member replies.
            for job_id, segment, status, payload in message:
                unlink_now: SharedSnapshot | None = None
                with self._lock:
                    job = self._jobs.pop(job_id, None)
                    if job is not None:
                        # Decrement exactly once per job: an abandoned job
                        # (crash watchdog) already gave its refcount back in
                        # _abandon, and its late message must not decrement
                        # the segment a second time — that could unlink a
                        # retired segment while another job still reads it.
                        unlink_now = self._decrement_segment_locked(segment)
                        self._completed += 1
                if unlink_now is not None:
                    unlink_now.unlink()
                if job is not None:
                    job.status = status
                    job.payload = payload
                    job.event.set()
                    self._emit("complete")

    def _decrement_segment_locked(self, segment: str) -> "SharedSnapshot | None":
        """Drop one in-flight ref; return a retired segment now ready to unlink."""
        count = self._inflight_by_segment.get(segment, 0) - 1
        if count > 0:
            self._inflight_by_segment[segment] = count
            return None
        self._inflight_by_segment.pop(segment, None)
        return self._retired.pop(segment, None)

    # -- segment lifecycle -------------------------------------------------

    def retire(self, shared: SharedSnapshot) -> None:
        """Unlink ``shared`` as soon as no in-flight job references it.

        Called by the engine when a graph version is superseded: idle
        segments unlink immediately; busy ones are parked and unlinked by
        the collector when their last job completes.
        """
        with self._lock:
            if not self._closed and self._inflight_by_segment.get(shared.segment, 0) > 0:
                self._retired[shared.segment] = shared
                return
        shared.unlink()

    # -- lifecycle ---------------------------------------------------------

    def close(self, *, timeout: float = 10.0) -> None:
        """Drain in-flight work, stop workers and the collector, unlink
        parked segments.

        Graceful-drain ordering: setting ``_closed`` rejects *new* ``run``
        calls, then the dispatcher is joined so it flushes every
        already-gathered batch member onto the worker queues (it exits
        only once its pending deque is empty), then the shutdown
        sentinels go out *behind* that flushed work — queues are FIFO, so
        workers answer everything queued before exiting, and the
        collector resolves those jobs before draining its own sentinel.
        Only jobs still unresolved after all of that (e.g. lost to a dead
        worker) are failed as ``worker pool closed``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._dispatcher is not None:
            # Wake the dispatcher so it observes _closed, flushes its
            # pending members, and exits before the worker queues receive
            # their shutdown sentinels.
            with self._batch_cond:
                self._batch_cond.notify_all()
            self._dispatcher.join(timeout=timeout)
        for task_queue in self._task_queues:
            task_queue.put(None)
        for process in self._processes:
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=timeout)
        self._result_queue.put(None)
        self._collector.join(timeout=timeout)
        with self._lock:
            leftover = list(self._jobs.values())
            self._jobs.clear()
            retired = list(self._retired.values())
            self._retired.clear()
        for job in leftover:  # unblock callers whose results never arrived
            job.status = "error"
            job.payload = ("RuntimeError('worker pool closed')", "")
            job.event.set()
        for shared in retired:
            shared.unlink()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def stats(self) -> WorkerPoolStats:
        """Counters for ``/stats`` and the benchmark report."""
        with self._lock:
            return WorkerPoolStats(
                workers=self.workers,
                alive=sum(1 for p in self._processes if p.is_alive()),
                dispatched=self._dispatched,
                completed=self._completed,
                stale_retries=self._stale_retries,
                respawns=self._respawns,
                inflight=len(self._jobs),
                retired_segments=len(self._retired),
                deadline_abandons=self._deadline_abandons,
                respawns_suppressed=self._respawns_suppressed,
                batches=self._batches,
                batched_members=self._batched_members,
            )
