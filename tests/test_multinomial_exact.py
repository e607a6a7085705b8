"""Differential suite for the grouped exact multinomial test.

The exact core never enumerates outcomes: it sums over per-group
partition profiles, either from one cached whole-outcome table or by a
meet-in-the-middle split. These tests pin it to the readable reference
enumerator (``_iter_compositions``) to 1e-12, pin the two internal paths
to each other, and check workload shapes too large to enumerate against
a fixed-seed Monte-Carlo confidence interval.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.errors import StatisticsError
from repro.stats import multinomial
from repro.stats.multinomial import (
    LOG_TIE_TOLERANCE,
    _cached_outcome_table,
    _grouped_p_value,
    _iter_compositions,
    exact_multinomial_test,
    log_multinomial_pmf,
    montecarlo_multinomial_test,
    multinomial_test,
)


def enumerated_p_value(pi, x) -> float:
    """``Pr_s`` by scoring every outcome over the positive cells."""
    pi = np.asarray(pi, dtype=np.float64)
    x = np.asarray(x, dtype=np.int64)
    n = int(x.sum())
    if ((pi == 0) & (x > 0)).any():
        return 0.0
    support = pi > 0
    pi, x = pi[support], x[support]
    outcomes = np.array(list(_iter_compositions(n, pi.size)), dtype=np.int64)
    lgamma_rows = np.vectorize(math.lgamma)(outcomes + 1.0).sum(axis=1)
    log_py = math.lgamma(n + 1) + outcomes @ np.log(pi) - lgamma_rows
    threshold = log_multinomial_pmf(pi, x) + LOG_TIE_TOLERANCE
    return min(float(np.exp(log_py[log_py <= threshold]).sum()), 1.0)


def both_paths(pi, x) -> "tuple[float, float]":
    """The grouped core's p-value with the split forced off and on."""
    pi = np.asarray(pi, dtype=np.float64)
    x = np.asarray(x, dtype=np.int64)
    support = pi > 0
    pi, x = pi[support], x[support]
    n = int(x.sum())
    bound = log_multinomial_pmf(pi, x) - math.lgamma(n + 1) + LOG_TIE_TOLERANCE
    groups = Counter(pi.tolist())
    return (
        _grouped_p_value(groups, n, bound, split=False),
        _grouped_p_value(groups, n, bound, split=True),
    )


@st.composite
def tied_cases(draw):
    """``pi`` from small integer counts plus optional 0.5 pseudocounts, so
    equal cells (ties) and zero cells are common; ``n <= 8``, ``k <= 7``."""
    k = draw(st.integers(1, 7))
    counts = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    smoothed = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    weights = np.array(counts, dtype=np.float64) + 0.5 * np.array(smoothed)
    if weights.sum() == 0:
        weights[draw(st.integers(0, k - 1))] = 0.5
    x = draw(
        st.lists(st.integers(0, 8), min_size=k, max_size=k).filter(
            lambda v: 0 < sum(v) <= 8
        )
    )
    return weights / weights.sum(), x


def check_against_enumeration(case) -> None:
    pi, x = case
    result = exact_multinomial_test(pi, x)
    assert result.method == "exact"
    assert abs(result.p_value - enumerated_p_value(pi, x)) <= 1e-12
    if not ((pi == 0) & (np.asarray(x) > 0)).any():
        no_split, split = both_paths(pi, x)
        assert abs(no_split - split) <= 1e-12
        assert abs(min(no_split, 1.0) - result.p_value) <= 1e-12


@given(tied_cases())
@settings(max_examples=100, deadline=None)
def test_exact_matches_full_enumeration(case):
    check_against_enumeration(case)


@pytest.mark.slow
@given(tied_cases())
@settings(max_examples=500, deadline=None)
def test_exact_matches_full_enumeration_slow(case):
    check_against_enumeration(case)


def _weights_to_pi(groups: "list[tuple[int, int]]") -> np.ndarray:
    """``[(weight, cells), ...]`` -> a normalized ``pi`` vector."""
    weights = np.concatenate([np.full(cells, float(w)) for w, cells in groups])
    return weights / weights.sum()


def _montecarlo_interval(pi, x, *, samples=60_000, rng=2024, level=0.999):
    """Clopper-Pearson interval of a fixed-seed Monte-Carlo estimate."""
    estimate = montecarlo_multinomial_test(pi, x, samples=samples, rng=rng)
    hits = round(estimate.p_value * (samples + 1)) - 1
    tail = (1.0 - level) / 2
    lo = scipy_stats.beta.ppf(tail, hits, samples - hits + 1) if hits else 0.0
    hi = scipy_stats.beta.ppf(1 - tail, hits + 1, samples - hits)
    return lo, hi


class TestWorkloadShapes:
    """Shapes the query service meets, too large to enumerate cheaply."""

    def flip_case(self):
        # n=5 over k=46: 3 cells of weight 1, 42 of weight 2, one of 164.
        pi = _weights_to_pi([(1, 3), (2, 42), (164, 1)])
        x = np.zeros(46, dtype=np.int64)
        x[:3] = 1
        x[-1] = 2
        return pi, x

    def wide_case(self):
        # n=35 over k=218 in 3 groups: one count on each weight-1 cell.
        pi = _weights_to_pi([(1, 35), (2, 182), (154, 1)])
        x = np.zeros(218, dtype=np.int64)
        x[:35] = 1
        return pi, x

    @pytest.mark.parametrize("case", ["flip_case", "wide_case"])
    def test_exact_lies_inside_montecarlo_interval(self, case):
        pi, x = getattr(self, case)()
        exact = multinomial_test(pi, x)
        assert exact.method == "exact"
        lo, hi = _montecarlo_interval(pi, x)
        assert lo <= exact.p_value <= hi

    def test_flip_case_is_not_significant(self):
        # Monte Carlo (20k draws) estimated 0.0492 here; the exact value
        # is just above alpha.
        result = multinomial_test(*self.flip_case())
        assert result.p_value == pytest.approx(0.05237, abs=5e-5)
        assert not result.significant

    @pytest.mark.parametrize("case", ["flip_case", "wide_case"])
    def test_grouped_and_no_split_paths_agree(self, case):
        no_split, split = both_paths(*getattr(self, case)())
        assert abs(no_split - split) <= 1e-12 * max(1.0, no_split)


class TestTablesAndBudget:
    def test_outcome_table_is_cached_and_read_only(self):
        first = _cached_outcome_table(4, (2, 3))
        again = _cached_outcome_table(4, (2, 3))
        assert first is again
        assert not first.masses.flags.writeable  # shared across threads
        # sum over m of p(m, <=2 parts) * p(4 - m, <=3 parts):
        # 1*4 + 1*3 + 2*2 + 2*1 + 3*1 profiles
        assert first.masses.shape == (16, 2)
        assert (first.masses.sum(axis=1) == 4).all()

    @pytest.mark.parametrize("n, parts", [(0, 1), (6, 1), (6, 3), (9, 9), (12, 5)])
    def test_partition_counts_match_the_built_tables(self, n, parts):
        table = multinomial._partitions(n, parts)
        assert (np.diff(table.offsets) == multinomial._partition_counts(n, parts)).all()
        assert (table.length <= parts).all()
        assert (np.diff(table.mass) >= 0).all()

    def test_outcome_table_declines_large_shapes(self, monkeypatch):
        assert _cached_outcome_table(1, (1,) * 17) is None  # too many groups
        monkeypatch.setattr(multinomial, "_NO_SPLIT_PROFILES", 4)
        assert _cached_outcome_table(9, (5, 7)) is None

    def test_table_cache_respects_budget(self):
        cache = multinomial._TableCache(budget_bytes=1_000)
        first = cache.put("a", (np.zeros(50),))  # 400 bytes
        assert cache.get("a") is first
        cache.put("b", (np.zeros(50),))
        cache.put("c", (np.zeros(50),))  # 1200 bytes > budget: "a" evicted
        assert cache.get("a") is None
        assert cache.get("c") is not None

    def test_over_budget_shape_falls_back_to_montecarlo(self, monkeypatch):
        monkeypatch.setattr(multinomial, "_NO_SPLIT_PROFILES", 10)
        monkeypatch.setattr(multinomial, "_PROFILE_BUDGET", 10)
        pi = _weights_to_pi([(1, 20), (3, 20)])
        x = np.zeros(40, dtype=np.int64)
        x[0], x[25] = 4, 3
        result = multinomial_test(pi, x, samples=2_000, rng=5)
        assert result.method == "montecarlo"
        with pytest.raises(StatisticsError):
            exact_multinomial_test(pi, x)

    def test_oversized_partition_table_is_never_built(self):
        # 60 observations over 60 equal cells: 6.6M partitions of masses
        # <= 60, beyond the table cap, so the plan is refused up front
        pi = np.full(60, 1 / 60)
        x = np.zeros(60, dtype=np.int64)
        x[0] = 60
        result = multinomial_test(pi, x, samples=500, rng=1)
        assert result.method == "montecarlo"
        assert ("partitions", 60, 60) not in multinomial._tables._entries


class TestMonteCarloDeterminism:
    def test_fresh_discriminators_agree_on_fallback_p_values(self, monkeypatch):
        """Without an ``rng`` the fallback seeds itself from ``(pi, x)``, so
        its p-values depend on the test alone, not on the instance."""
        from repro.core.context import RandomWalkContext
        from repro.core.discrimination import MultinomialDiscriminator
        from repro.core.findnc import FindNC
        from repro.datasets.figure1 import figure1_graph

        monkeypatch.setattr(multinomial, "_NO_SPLIT_PROFILES", 0)
        monkeypatch.setattr(multinomial, "_PROFILE_BUDGET", 0)
        # An empty table cache: shapes earlier tests cached stay exact.
        monkeypatch.setattr(multinomial, "_tables", multinomial._TableCache())
        methods: "list[str]" = []
        fallback = multinomial.montecarlo_multinomial_test

        def spy(*args, **kwargs):
            result = fallback(*args, **kwargs)
            methods.append(result.method)
            return result

        monkeypatch.setattr(multinomial, "montecarlo_multinomial_test", spy)
        graph = figure1_graph()
        selector = RandomWalkContext(graph)

        def p_values():
            finder = FindNC(
                graph,
                context_selector=selector,
                discriminator=MultinomialDiscriminator(),
                context_size=4,
            )
            result = finder.run(["Angela_Merkel", "Barack_Obama"])
            return [(r.label, r.inst_p_value, r.card_p_value) for r in result.results]

        first = p_values()
        calls = len(methods)
        assert calls > 0 and set(methods) == {"montecarlo"}
        assert p_values() == first
        assert len(methods) == 2 * calls
