"""Differential parity suite for cross-request micro-batching.

The contract under test: batching NEVER changes bits. A query's FindNC
answer must be byte-identical whether it ran alone or shared a worker's
``power_iteration_batch`` sweep with arbitrary other queries, whatever the
batch composition, the kernel (``REPRO_KERNEL``), or the snapshot version
mix. Every layer of the batching stack is pinned against its solo
counterpart:

* ``power_iteration_batch`` on concatenated columns vs. per-group runs
  (bitwise, both tolerance modes) — hypothesis-driven;
* ``PersonalizedPageRank.top_k_many`` vs. ``top_k``;
* ``RandomWalkContext.select_many`` vs. ``select``;
* a micro-batched ``ProcessWorkerPool`` vs. a solo pool (full result
  payloads), including batches spanning two snapshot versions;
* the kernel seam: ``csr_matmat`` / ``unique_counts`` parity and the
  guarded numpy fallback when numba is missing or the name is unknown.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import RandomWalkContext
from repro.datasets.figure1 import figure1_graph
from repro.graph.matrix import transition_matrix
from repro.parallel.shm import publish_graph
from repro.service.workers import ProcessWorkerPool, WorkerConfig
from repro.walk import kernels
from repro.walk.pagerank import (
    PersonalizedPageRank,
    _personalization_columns,
    power_iteration_batch,
)

# --------------------------------------------------------------------------
# Shared graphs and strategies
# --------------------------------------------------------------------------

_GRAPHS: dict = {}


def _graph(name: str):
    """Build each test graph once per process (hypothesis reruns examples)."""
    if name not in _GRAPHS:
        if name == "figure1":
            _GRAPHS[name] = figure1_graph()
        else:
            from repro.datasets.yago import synthetic_yago

            _GRAPHS[name] = synthetic_yago(scale=0.5, seed=11)
    return _GRAPHS[name]


_RUNNERS: dict = {}


def _runner(name: str, tolerance: "float | None") -> PersonalizedPageRank:
    key = (name, tolerance)
    if key not in _RUNNERS:
        runner = PersonalizedPageRank(_graph(name), tolerance=tolerance)
        runner.transition()  # warm: the matrix build is not under test
        _RUNNERS[key] = runner
    return _RUNNERS[key]


@st.composite
def batch_cases(draw):
    """A graph, a tolerance mode, and 1-5 query groups of width 1-3."""
    name = draw(st.sampled_from(["figure1", "yago"]))
    tolerance = draw(st.sampled_from([None, 1e-6]))
    n = _graph(name).node_count
    groups = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=3,
                unique=True,
            ),
            min_size=1,
            max_size=5,
        )
    )
    ks = draw(
        st.lists(
            st.integers(min_value=0, max_value=8),
            min_size=len(groups),
            max_size=len(groups),
        )
    )
    return name, tolerance, groups, ks


# --------------------------------------------------------------------------
# Layer 1: the numerical core
# --------------------------------------------------------------------------


class TestPowerIterationBatchParity:
    @settings(max_examples=25, deadline=None)
    @given(batch_cases())
    def test_concatenated_batch_is_bitwise_equal_to_solo_runs(self, case):
        name, tolerance, groups, _ = case
        runner = _runner(name, tolerance)
        transition = runner.transition()
        n = transition.shape[0]
        per_group = [_personalization_columns(n, g) for g in groups]
        batched = power_iteration_batch(
            transition,
            np.concatenate(per_group, axis=1),
            tolerance=tolerance,
        )
        offset = 0
        for cols in per_group:
            solo = power_iteration_batch(transition, cols, tolerance=tolerance)
            width = cols.shape[1]
            got = batched[:, offset : offset + width]
            # Bitwise: not allclose. Batchmates must not move a single ulp.
            assert np.array_equal(got, solo), (
                f"batched columns [{offset}:{offset + width}] diverge from a "
                f"solo run (graph={name}, tolerance={tolerance})"
            )
            offset += width

    @settings(max_examples=25, deadline=None)
    @given(batch_cases())
    def test_member_score_reduction_matches_solo(self, case):
        """The per-member row-sum fan-out is bitwise too (not just columns)."""
        name, tolerance, groups, _ = case
        runner = _runner(name, tolerance)
        transition = runner.transition()
        n = transition.shape[0]
        per_group = [_personalization_columns(n, g) for g in groups]
        batched = power_iteration_batch(
            transition,
            np.concatenate(per_group, axis=1),
            tolerance=tolerance,
        )
        offset = 0
        for group, cols in zip(groups, per_group):
            width = cols.shape[1]
            fanned = np.ascontiguousarray(
                batched[:, offset : offset + width]
            ).sum(axis=1)
            solo = power_iteration_batch(
                transition, cols, tolerance=tolerance
            ).sum(axis=1)
            assert np.array_equal(fanned, solo)
            offset += width


class TestTopKManyParity:
    @settings(max_examples=25, deadline=None)
    @given(batch_cases())
    def test_top_k_many_equals_per_group_top_k(self, case):
        name, tolerance, groups, ks = case
        runner = _runner(name, tolerance)
        batched = runner.top_k_many(groups, ks)
        for group, k, got in zip(groups, ks, batched):
            assert got == runner.top_k(group, k)

    def test_empty_batch(self):
        assert _runner("figure1", None).top_k_many([], []) == []

    def test_k_zero_members_cost_no_columns_and_return_empty(self):
        runner = _runner("figure1", None)
        out = runner.top_k_many([[1], [2], [3]], [0, 3, 0])
        assert out[0] == [] and out[2] == []
        assert out[1] == runner.top_k([2], 3)

    def test_mismatched_lengths_rejected(self):
        runner = _runner("figure1", None)
        with pytest.raises(ValueError, match="same length"):
            runner.top_k_many([[1], [2]], [3])
        with pytest.raises(ValueError, match="same length"):
            runner.top_k_many([[1]], [3], excludes=[None, None])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            _runner("figure1", None).top_k_many([[1]], [-1])


class TestSelectManyParity:
    @settings(max_examples=15, deadline=None)
    @given(batch_cases())
    def test_select_many_equals_per_query_select(self, case):
        name, tolerance, groups, _ = case
        selector = RandomWalkContext(_graph(name), tolerance=tolerance)
        batched = selector.select_many(groups, 5)
        for query, got in zip(groups, batched):
            solo = selector.select(query, 5)
            assert got.query == solo.query
            assert got.ranked_nodes == solo.ranked_nodes
            assert got.scores == solo.scores  # exact float equality
            assert got.algorithm == solo.algorithm


# --------------------------------------------------------------------------
# Layer 2: the kernel seam
# --------------------------------------------------------------------------


def _numba_available() -> bool:
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


KERNEL_PARAMS = [
    "numpy",
    pytest.param(
        "numba",
        marks=pytest.mark.skipif(
            not _numba_available(), reason="numba is not installed"
        ),
    ),
]


class TestKernelSeam:
    @pytest.mark.parametrize("kernel", KERNEL_PARAMS)
    def test_csr_matmat_parity(self, kernel, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, kernel)
        assert kernels.active_kernel() == kernel
        transition = transition_matrix(_graph("figure1"))
        rng = np.random.default_rng(3)
        dense = rng.random((transition.shape[0], 4))
        assert np.array_equal(
            kernels.csr_matmat(transition, dense), transition @ dense
        )

    @pytest.mark.parametrize("kernel", KERNEL_PARAMS)
    def test_unique_counts_parity(self, kernel, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, kernel)
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 50, size=500)
        unique, counts = kernels.unique_counts(keys)
        expected_unique, expected_counts = np.unique(keys, return_counts=True)
        assert np.array_equal(unique, expected_unique)
        assert np.array_equal(counts, expected_counts)

    @pytest.mark.parametrize("kernel", KERNEL_PARAMS)
    def test_batch_parity_holds_under_each_kernel(self, kernel, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, kernel)
        transition = transition_matrix(_graph("figure1"))
        n = transition.shape[0]
        groups = [[1], [2, 3], [4]]
        cols = [_personalization_columns(n, g) for g in groups]
        batched = power_iteration_batch(transition, np.concatenate(cols, axis=1))
        offset = 0
        for c in cols:
            solo = power_iteration_batch(transition, c)
            assert np.array_equal(batched[:, offset : offset + c.shape[1]], solo)
            offset += c.shape[1]

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        status = kernels.kernel_status()
        assert status.requested == "numpy"
        assert status.active == "numpy"

    def test_unknown_kernel_degrades_to_numpy_with_reason(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "turbo")
        status = kernels.kernel_status()
        assert status.active == "numpy"
        assert "unknown kernel" in status.reason
        # The query path still works under the fallback.
        transition = transition_matrix(_graph("figure1"))
        dense = np.ones((transition.shape[0], 2))
        assert np.array_equal(
            kernels.csr_matmat(transition, dense), transition @ dense
        )

    def test_missing_numba_degrades_to_numpy_with_reason(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numba")
        status = kernels.kernel_status()
        assert status.requested == "numba"
        if status.active == "numpy":  # the CI image: numba not installed
            assert "numba" in status.reason
        else:  # a dev box with numba: the kernel must self-report active
            assert "active" in status.reason

    def test_status_reresolves_when_env_changes(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "turbo")
        assert kernels.active_kernel() == "numpy"
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert kernels.kernel_status().reason == "pure-numpy kernels (default)"

    def test_kernel_gauge_exported(self):
        from repro.service.metrics import ServiceMetrics

        exposition = ServiceMetrics().render()
        assert 'nc_kernel_active{kernel="numpy"} 1' in exposition


# --------------------------------------------------------------------------
# Layer 3: the micro-batched worker pool (subprocess, end to end)
# --------------------------------------------------------------------------


def _config() -> WorkerConfig:
    return WorkerConfig(
        damping=0.8,
        iterations=10,
        excluded_labels=None,
        include_inverse_labels=False,
        none_bucket=True,
        discriminator_params=(),
    )


def _run_concurrently(pool: ProcessWorkerPool, jobs: "list[tuple]") -> list:
    """Submit every (header, query_ids) job from its own thread at once."""
    results: list = [None] * len(jobs)
    errors: list = []

    def _one(i: int, header, query_ids) -> None:
        try:
            results[i] = pool.run(
                header=header,
                query_ids=query_ids,
                context_size=3,
                alpha=0.05,
                config=_config(),
            )
        except Exception as exc:  # pragma: no cover - fails the assert below
            errors.append((query_ids, exc))

    threads = [
        threading.Thread(target=_one, args=(i, h, q))
        for i, (h, q) in enumerate(jobs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, f"batched jobs failed: {errors}"
    return results


def _payload(result) -> tuple:
    """A comparable, order-preserving projection of a FindNCResult."""
    return (
        result.query,
        tuple(result.context.ranked_nodes),
        tuple(sorted(result.context.scores.items())),
        tuple(
            (r.label, r.score, r.inst_score, r.card_score, r.inst_p_value,
             r.card_p_value)
            for r in result.results
        ),
        tuple((n.label, n.score, n.channel, n.p_value) for n in result.notable),
    )


class TestPoolBatchParity:
    def test_batched_pool_matches_solo_pool(self):
        graph = figure1_graph()
        queries = [(1,), (2,), (3,), (1, 2)]
        shared = publish_graph(graph)
        try:
            with ProcessWorkerPool(1) as solo_pool:
                expected = [
                    solo_pool.run(
                        header=shared.header,
                        query_ids=q,
                        context_size=3,
                        alpha=0.05,
                        config=_config(),
                    )
                    for q in queries
                ]
            with ProcessWorkerPool(
                1, batch_window_ms=80.0, max_batch=4
            ) as batched_pool:
                got = _run_concurrently(
                    batched_pool, [(shared.header, q) for q in queries]
                )
                stats = batched_pool.stats()
        finally:
            shared.unlink()
        for solo, batched in zip(expected, got):
            assert _payload(batched) == _payload(solo)
        # The point of the test: these answers actually shared a sweep.
        assert stats.batches >= 1
        assert stats.batched_members == len(queries)
        assert stats.completed == len(queries)

    def test_mixed_version_batch_never_crosses_snapshots(self):
        """Members pinned to different snapshot versions are grouped apart
        and each still matches its own solo answer."""
        first = publish_graph(figure1_graph())
        second = publish_graph(figure1_graph())
        queries = [(1,), (2,)]
        try:
            with ProcessWorkerPool(1) as solo_pool:
                expected = {
                    (shared.segment, q): solo_pool.run(
                        header=shared.header,
                        query_ids=q,
                        context_size=3,
                        alpha=0.05,
                        config=_config(),
                    )
                    for shared in (first, second)
                    for q in queries
                }
            with ProcessWorkerPool(
                1, batch_window_ms=80.0, max_batch=4
            ) as batched_pool:
                jobs = [
                    (shared.header, q)
                    for shared in (first, second)
                    for q in queries
                ]
                got = _run_concurrently(batched_pool, jobs)
                stats = batched_pool.stats()
        finally:
            first.unlink()
            second.unlink()
        for (shared, q), result in zip(
            ((s, q) for s in (first, second) for q in queries), got
        ):
            assert _payload(result) == _payload(expected[(shared.segment, q)])
        # Two versions cannot share a batch: at least two dispatches.
        assert stats.batches + (stats.dispatched - stats.batched_members) >= 2
        assert stats.completed == len(jobs)

    def test_single_member_window_ships_as_a_plain_task(self):
        """A batch of one takes the unbatched worker path (its parity
        oracle) and still completes."""
        shared = publish_graph(figure1_graph())
        try:
            with ProcessWorkerPool(
                1, batch_window_ms=10.0, max_batch=4
            ) as pool:
                result = pool.run(
                    header=shared.header,
                    query_ids=(1, 2),
                    context_size=3,
                    alpha=0.05,
                    config=_config(),
                )
                stats = pool.stats()
        finally:
            shared.unlink()
        assert result.query == (1, 2)
        assert stats.batches == 1
        assert stats.batched_members == 1

    @pytest.mark.parametrize(
        "kwargs",
        [{"batch_window_ms": -1.0}, {"max_batch": 0}],
    )
    def test_rejects_bad_batching_kwargs(self, kwargs):
        with pytest.raises(ValueError):
            ProcessWorkerPool(1, **kwargs)


# --------------------------------------------------------------------------
# The served runner: answer_batch against a plain FindNC.run oracle
# --------------------------------------------------------------------------

_SERVED: dict = {}


def _served(name: str):
    """A pinned, warmed selector and the compiled snapshot, once per graph."""
    if name not in _SERVED:
        graph = _graph(name)
        selector = RandomWalkContext(graph, pin=True)
        selector.warm()
        _SERVED[name] = (selector, graph.compiled())
    return _SERVED[name]


def _oracle(name: str, query_ids, context_size: int, alpha: float):
    """An independent plain ``FindNC.run``: own selector, nothing injected."""
    from repro.core.discrimination import MultinomialDiscriminator
    from repro.core.findnc import FindNC

    graph = _graph(name)
    finder = FindNC(
        graph,
        context_selector=RandomWalkContext(graph),
        discriminator=MultinomialDiscriminator(alpha=alpha),
        context_size=context_size,
    )
    return finder.run(query_ids)


@st.composite
def served_batches(draw):
    """1-5 members of width 1-3, context sizes 1-8, alpha in {0.05, 0.1}."""
    name = draw(st.sampled_from(["figure1", "yago"]))
    n = _graph(name).node_count
    members = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    max_size=3,
                    unique=True,
                ).map(lambda ids: tuple(sorted(ids))),
                st.integers(min_value=1, max_value=8),
                st.sampled_from([0.05, 0.1]),
            ),
            min_size=1,
            max_size=5,
        )
    )
    poisoned = draw(st.integers(min_value=0, max_value=len(members)))
    return name, members, poisoned


class TestAnswerBatchOracle:
    @settings(max_examples=25, deadline=None)
    @given(served_batches())
    def test_answer_batch_equals_plain_run(self, case):
        """Each member's answer is the plain pipeline's, whatever its
        batchmates; a member with out-of-range ids gets its own error and
        leaves every batchmate's answer unchanged."""
        from repro.core.findnc import answer_batch

        name, members, poisoned = case
        selector, snapshot = _served(name)
        graph = _graph(name)
        expected = [_oracle(name, *member) for member in members]

        answers = answer_batch(graph, snapshot, selector, _config(), members)
        assert len(answers) == len(members)
        for got, want in zip(answers, expected):
            assert _payload(got) == _payload(want)

        bad = ((10**9,), members[0][1], 0.05)
        mixed = members[:poisoned] + [bad] + members[poisoned:]
        answers = answer_batch(graph, snapshot, selector, _config(), mixed)
        assert isinstance(answers[poisoned], Exception)
        rest = answers[:poisoned] + answers[poisoned + 1 :]
        for got, want in zip(rest, expected):
            assert _payload(got) == _payload(want)
