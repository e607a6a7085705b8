"""The exact multinomial test (and its Monte-Carlo approximation).

Given a hypothesised multinomial distribution ``pi`` (the normalized
context distribution) and an observed count vector ``x`` (the query
distribution), the significance probability is::

    Pr_s(X ~ Mult(N, pi) = x) = sum over { y : Pr(y) <= Pr(x) } of Pr(y)

i.e. the total probability of outcomes at most as likely as the one
observed (an exact, two-sided-by-construction test). The paper: "In case of
large N, the exact test is impractical, a Montecarlo sampling to
approximate the final result is performed."

The characteristic score is ``MT = 1 - Pr_s`` when ``Pr_s <= alpha`` (the
hypothesis of equality is rejected) and ``0`` otherwise.

Paper cross-reference (Mottin et al., EDBT 2018):

* **Section 3.2, the multinomial test** — :func:`multinomial_test`;
  ``pi`` is the normalized *context* distribution, ``x`` the *query*
  counts. The test is exact at the query service's shapes, so the
  paper's footnote-1 Monte-Carlo sampling runs only for a shape beyond
  the profile budget (``_PROFILE_BUDGET``).
* **The MT score** (``1 - Pr_s`` if significant at ``alpha``, else 0) —
  :attr:`MultinomialTestResult.score`; ``alpha = 0.05`` is the paper's
  Section-4 setting, and Figure 9 plots the significance probabilities
  (:attr:`MultinomialTestResult.p_value`) per candidate label.
* **delta(l, C, Q) = max over both channels** — applied one level up in
  :class:`repro.core.discrimination.MultinomialDiscriminator`, which
  runs this test on the instance and cardinality distribution pairs.

Why the exact test is cheap here: the ``C(N + k - 1, k - 1)`` outcomes
are never enumerated. Cells with bitwise-equal ``pi`` are exchangeable,
so an outcome's probability depends only on how each equal-``pi`` group
*partitions* its share of the mass. The exact core sums over those
partition profiles, each weighted by the number of outcomes it stands
for: small shapes in one vectorized pass over a cached per-shape table,
larger ones by folding the groups into two halves and answering one
half against the other, sorted by log-probability with per-mass prefix
sums, through ``searchsorted`` (a meet in the middle). Both score the
same outcome set, with the same ``LOG_TIE_TOLERANCE`` cut, as full
enumeration (:func:`_iter_compositions`, :func:`compositions_array`);
``tests/test_multinomial_exact.py`` pins them to 1e-12.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from repro.errors import StatisticsError
from repro.util.rng import RandomSource, ensure_numpy_rng

#: Relative tolerance when comparing outcome log-probabilities for the
#: "equally or less likely" cut. Guards against float noise making the
#: observed outcome "more likely than itself".
LOG_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MultinomialTestResult:
    """Outcome of a multinomial test.

    ``p_value`` is the significance probability ``Pr_s``; ``score`` is the
    paper's ``MT`` statistic (0 when not significant, ``1 - Pr_s`` when
    significant at ``alpha``).
    """

    p_value: float
    alpha: float
    n: int
    support: int
    #: "exact" | "montecarlo" | "degenerate", or "uninformative" when
    #: :class:`~repro.core.discrimination.MultinomialDiscriminator` skips an
    #: identity-free channel without testing it
    method: str

    @property
    def significant(self) -> bool:
        return self.p_value <= self.alpha

    @property
    def score(self) -> float:
        return 1.0 - self.p_value if self.significant else 0.0


def _validate(pi: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pi = np.asarray(pi, dtype=np.float64)
    x = np.asarray(x, dtype=np.int64)
    if pi.ndim != 1 or x.ndim != 1:
        raise StatisticsError("pi and x must be 1-D vectors")
    if pi.size != x.size:
        raise StatisticsError(
            f"support mismatch: pi has {pi.size} cells, x has {x.size}"
        )
    if pi.size == 0:
        raise StatisticsError("empty support")
    if (pi < 0).any():
        raise StatisticsError("pi must be non-negative")
    total = float(pi.sum())
    if total <= 0:
        raise StatisticsError("pi must have positive mass")
    if abs(total - 1.0) > 1e-6:
        raise StatisticsError(f"pi must sum to 1 (got {total}); normalize first")
    if (x < 0).any():
        raise StatisticsError("observed counts must be non-negative")
    if total == 1.0:  # x / 1.0 == x bitwise: skip the identity pass
        return pi, x
    return pi / total, x


def log_multinomial_pmf(pi: np.ndarray, x: np.ndarray) -> float:
    """``log Pr(X = x)`` for ``X ~ Mult(sum(x), pi)``; ``-inf`` if impossible."""
    pi = np.asarray(pi, dtype=np.float64)
    x = np.asarray(x, dtype=np.int64)
    if ((pi == 0) & (x > 0)).any():
        return float("-inf")
    n = int(x.sum())
    log_p = math.lgamma(n + 1)
    for count, prob in zip(x.tolist(), pi.tolist()):
        if count:
            log_p += count * math.log(prob) - math.lgamma(count + 1)
    return log_p


def number_of_compositions(n: int, k: int) -> int:
    """Number of ways to write ``n`` as an ordered sum of ``k`` non-negatives.

    ``C(n + k - 1, k - 1)`` — the size of the exact test's outcome space.
    """
    if n < 0 or k < 1:
        raise StatisticsError(f"invalid composition parameters n={n}, k={k}")
    return math.comb(n + k - 1, k - 1)


def _iter_compositions(n: int, k: int):
    """Yield all count vectors of length ``k`` summing to ``n`` (as lists).

    The readable reference enumerator; :func:`compositions_array` is the
    vectorized equivalent the exact test actually runs on (the parity
    test in ``tests/test_stats_multinomial.py`` pins them to each other).
    """
    if k == 1:
        yield [n]
        return
    for first in range(n + 1):
        for rest in _iter_compositions(n - first, k - 1):
            yield [first] + rest


def compositions_array(n: int, k: int) -> np.ndarray:
    """All compositions of ``n`` into ``k`` cells as one ``(C, k)`` matrix.

    Built bottom-up over the cell count: level ``j``'s table for mass
    ``m`` is the stack of ``[first, *rest]`` blocks with ``rest`` drawn
    from level ``j - 1``'s table for ``m - first``. Each block lands with
    one numpy slice copy, so the interpreter executes O(n * k) statements
    total instead of touching every one of the ``C(n + k - 1, k - 1) * k``
    output elements (the cost profile of the tuple-based enumerators
    above). Row order matches :func:`_iter_compositions` exactly.
    """
    if n < 0 or k < 1:
        raise StatisticsError(f"invalid composition parameters n={n}, k={k}")
    tables = [np.array([[m]], dtype=np.int64) for m in range(n + 1)]
    for j in range(2, k + 1):
        masses = range(n + 1) if j < k else (n,)
        level = []
        for m in masses:
            out = np.empty((number_of_compositions(m, j), j), dtype=np.int64)
            pos = 0
            for first in range(m + 1):
                sub = tables[m - first]
                end = pos + sub.shape[0]
                out[pos:end, 0] = first
                out[pos:end, 1:] = sub
                pos = end
            level.append(out)
        tables = level
    return tables[-1]


#: Work cap of one exact test: a split plan whose two halves together
#: count more profiles than this, or that needs a partition table of more
#: than 1/32 of it (1M rows, ~32 MB), is not run, and
#: :func:`multinomial_test` falls back to Monte Carlo. Resident memory is
#: far smaller than the work (see :func:`_meet_in_the_middle`).
_PROFILE_BUDGET = 32_000_000

#: Shapes with at most this many whole-outcome profiles, over at most
#: 16 groups (so a cached table stays under ~600 KB), are answered from
#: one cached table in a single vectorized pass; larger ones are split
#: into two halves.
_NO_SPLIT_PROFILES = 4_096

#: Streamed-half rows answered per ``searchsorted`` round.
_STREAM_CHUNK = 1 << 16

_log_factorial_table = np.zeros(1)


def _log_factorials(upto: int) -> np.ndarray:
    """``log(i!)`` for ``i = 0 .. upto`` (at least), grown on demand."""
    global _log_factorial_table
    table = _log_factorial_table
    if table.size <= upto:
        size = max(upto + 1, 2 * table.size)
        table = np.array([math.lgamma(i + 1) for i in range(size)])
        table.setflags(write=False)
        _log_factorial_table = table
    return table


class _PartitionTable(NamedTuple):
    """The partitions of every mass ``m <= n`` into at most ``parts`` parts.

    One row per partition, ascending by mass; rows of mass ``m`` are
    ``offsets[m]:offsets[m + 1]``. ``lg`` is ``sum(log(part!))`` over the
    parts, ``lg_mult`` adds ``sum(log(mult!))`` over the multiplicities
    of the distinct part values, ``length`` counts the parts. A group of
    ``s >= length`` exchangeable cells realizes a partition in
    ``s! / ((s - length)! * prod(mult!))`` ways.
    """

    mass: np.ndarray
    lg: np.ndarray
    lg_mult: np.ndarray
    length: np.ndarray
    offsets: np.ndarray

    def weights(self, size: int) -> np.ndarray:
        """Per row: log(arrangements in a group of ``size`` cells) - ``lg``."""
        log_fact = _log_factorials(size)
        return log_fact[size] - log_fact[size - self.length] - self.lg_mult


class _ProfileTable(NamedTuple):
    """Every way ``n`` observations split over equal-``pi`` groups of the
    given sizes, each group's share refined into a partition.

    ``masses[r, g]`` is group ``g``'s mass in profile ``r``, so with
    ``log_p`` the groups' log-probabilities the profile's log-pmf minus
    ``log(n!)`` is ``masses @ log_p - lg``, and the log of its total
    probability (all the outcomes it stands for) is
    ``masses @ log_p + weight``.
    """

    masses: np.ndarray
    lg: np.ndarray
    weight: np.ndarray


def _partition_table(n: int, parts: int) -> _PartitionTable:
    """Build the table one part value at a time (``1..n``, any multiplicity)."""
    log_fact = _log_factorials(n)
    mass = np.zeros(1, dtype=np.int64)
    length = np.zeros(1, dtype=np.int64)
    lg = np.zeros(1)
    lg_mult = np.zeros(1)
    for value in range(1, n + 1):
        blocks = [(mass, length, lg, lg_mult)]
        for copies in range(1, n // value + 1):
            keep = (mass <= n - copies * value) & (length <= parts - copies)
            if not keep.any():
                break
            lg_part = copies * log_fact[value]
            blocks.append((
                mass[keep] + copies * value,
                length[keep] + copies,
                lg[keep] + lg_part,
                lg_mult[keep] + (lg_part + log_fact[copies]),
            ))
        mass, length, lg, lg_mult = (np.concatenate(column) for column in zip(*blocks))
    order = np.argsort(mass, kind="stable")
    mass, lg, lg_mult, length = (a[order] for a in (mass, lg, lg_mult, length))
    return _PartitionTable(mass, lg, lg_mult, length, np.searchsorted(mass, np.arange(n + 2)))


def _pairs(mass: np.ndarray, offsets: np.ndarray, n: int, *, exact: bool):
    """``(rows, cols)`` joining each profile to every table row whose mass
    brings the total to ``<= n`` (``== n`` when ``exact``)."""
    room = n - mass
    hi = offsets[room + 1]
    lo = offsets[room] if exact else np.zeros_like(hi)
    counts = hi - lo
    rows = np.repeat(np.arange(counts.size), counts)
    cols = np.arange(rows.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return rows, cols


@functools.lru_cache(maxsize=1024)
def _partition_counts(n: int, parts: int) -> np.ndarray:
    """Partitions of each mass ``m <= n`` into at most ``parts`` parts.

    The standard recurrence over part sizes (a partition into at most
    ``parts`` parts is the conjugate of one with parts at most
    ``parts``), in floats: plans are priced before any table is built.
    """
    counts = [1.0] + [0.0] * n
    for size in range(1, parts + 1):
        for m in range(size, n + 1):
            counts[m] += counts[m - size]
    out = np.array(counts)
    out.setflags(write=False)
    return out


def _profile_counts(sizes, n: int) -> np.ndarray:
    """Per-mass profile counts of groups of ``sizes`` cells, masses ``<= n``."""
    counts = np.eye(1, n + 1)[0]
    for size in sizes:
        counts = np.convolve(counts, _partition_counts(n, min(size, n)))[: n + 1]
    return counts


def _profile_table(n: int, sizes: "tuple[int, ...]") -> _ProfileTable:
    """Fold the groups' partition tables into whole-outcome profiles."""
    columns: "list[np.ndarray]" = []
    total = np.zeros(1, dtype=np.int64)
    lg = np.zeros(1)
    weight = np.zeros(1)
    for index, size in enumerate(sizes):
        table = _partitions(n, min(size, n))
        rows, cols = _pairs(total, table.offsets, n, exact=index == len(sizes) - 1)
        columns = [column[rows] for column in columns] + [table.mass[cols]]
        total = total[rows] + table.mass[cols]
        lg = lg[rows] + table.lg[cols]
        weight = weight[rows] + table.weights(size)[cols]
    masses = np.stack(columns, axis=1).astype(np.float64)
    return _ProfileTable(masses, lg, weight + math.lgamma(n + 1))


class _TableCache:
    """Byte-budgeted LRU of read-only tables shared across threads."""

    def __init__(self, budget_bytes: int = 32 << 20) -> None:
        self.budget_bytes = budget_bytes
        self._entries: dict = {}
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._entries[key] = entry  # re-insert = LRU refresh
            return entry

    def put(self, key, entry):
        """Insert ``entry`` (unless a racing builder won) and return the cached one."""
        for array in entry:
            array.setflags(write=False)
        with self._lock:
            if key not in self._entries:
                self._entries[key] = entry
                self._bytes += sum(array.nbytes for array in entry)
                while self._bytes > self.budget_bytes and len(self._entries) > 1:
                    evicted = self._entries.pop(next(iter(self._entries)))
                    self._bytes -= sum(array.nbytes for array in evicted)
            return self._entries[key]


_tables = _TableCache()


def _partitions(n: int, parts: int) -> _PartitionTable:
    key = ("partitions", n, parts)
    return _tables.get(key) or _tables.put(key, _partition_table(n, parts))


def _cached_outcome_table(n: int, sizes: "tuple[int, ...]") -> "_ProfileTable | None":
    """The shared profile table of ``n`` observations over groups of
    ``sizes`` cells; ``None`` for a shape too large for one table (see
    ``_NO_SPLIT_PROFILES``).

    Keyed by the shape alone (not by ``pi``), and the partition tables it
    is folded from by ``(n, min(s, n))``, so a long-running service
    builds each once.
    """
    key = ("profiles", n, sizes)
    table = _tables.get(key)
    if table is None:
        if len(sizes) > 16 or _profile_counts(sizes, n)[n] > _NO_SPLIT_PROFILES:
            return None
        table = _tables.put(key, _profile_table(n, sizes))
    return table


def _group_profiles(n: int, log_p: float, size: int):
    """One group's ``(mass, term, weighted, offsets)`` partition rows.

    ``term`` is the group's share of an outcome's log-pmf minus
    ``log(n!)``; ``weighted`` adds the log of its arrangement count.
    """
    table = _partitions(n, min(size, n))
    scaled = table.mass * log_p
    return table.mass, scaled - table.lg, scaled + table.weights(size), table.offsets


def _empty_group(n: int):
    """The one-row group of mass 0 that stands in for an empty half."""
    offsets = np.ones(n + 2, dtype=np.int64)
    offsets[0] = 0
    return np.zeros(1, dtype=np.int64), np.zeros(1), np.zeros(1), offsets


def _fold_all(groups, n: int):
    """``(mass, term, weighted, offsets)`` of every combination of the
    groups' rows with total mass ``<= n``, sorted by mass."""
    mass, term, weighted = np.zeros(1, dtype=np.int64), np.zeros(1), np.zeros(1)
    for g_mass, g_term, g_weighted, offsets in groups:
        rows, cols = _pairs(mass, offsets, n, exact=False)
        mass = mass[rows] + g_mass[cols]
        term = term[rows] + g_term[cols]
        weighted = weighted[rows] + g_weighted[cols]
    order = np.argsort(mass, kind="stable")
    mass = mass[order]
    return mass, term[order], weighted[order], np.searchsorted(mass, np.arange(n + 2))


def _rows_of_mass(stem, group, target: int, chunk: "int | None" = None):
    """Yield ``(term, weighted)`` of every ``stem`` x ``group`` combination
    of total mass ``target``, in pieces of about ``chunk`` rows."""
    mass, term, weighted, edges = stem
    _, g_term, g_weighted, offsets = group
    stop = int(edges[target + 1])  # stem rows light enough to reach target
    room = target - mass[:stop]
    ends = np.cumsum(offsets[room + 1] - offsets[room])
    start = 0
    while start < stop:
        end = stop
        if chunk is not None:
            base = int(ends[start - 1]) if start else 0
            end = max(start + 1, int(np.searchsorted(ends, base + chunk, side="right")))
        rows, cols = _pairs(mass[start:end], offsets, target, exact=True)
        rows += start
        yield term[rows] + g_term[cols], weighted[rows] + g_weighted[cols]
        start = end


def _plan(sizes, n: int):
    """Split the groups into two halves for :func:`_meet_in_the_middle`.

    Greedy on the partition-count polynomials truncated at ``n``: each
    group, largest first, joins the half whose profile count it leaves
    smaller. Returns the halves as group indices, each with its largest
    group last (the one joined mass by mass), and their per-mass profile
    counts.
    """
    halves: "tuple[list, list]" = ([], [])
    counts = [np.eye(1, n + 1)[0], np.eye(1, n + 1)[0]]
    for index in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        rows = _partition_counts(n, min(sizes[index], n))
        grown = [np.convolve(count, rows)[: n + 1] for count in counts]
        side = int(grown[1].sum() < grown[0].sum())
        halves[side].insert(0, index)
        counts[side] = grown[side]
    return halves, counts


def _meet_in_the_middle(groups, halves, counts, n: int, bound: float) -> float:
    """Answer one half against the other, one mass split at a time.

    For each split ``(m, n - m)`` the side with fewer profiles of its
    mass is built whole and sorted by term, with a prefix sum of its
    probabilities shifted by the segment's largest weight (one global
    cumsum minus offsets would lose ~1e-5 relative accuracy). The other
    side is streamed in chunks; each of its profiles needs one
    ``searchsorted`` for ``bound - term``. Only the halves' stems (all
    groups but the last), one sorted segment and one chunk are ever
    resident.
    """
    log_n_fact = math.lgamma(n + 1)
    sides = []
    for half in halves:
        *head, last = [groups[index] for index in half] or [_empty_group(n)]
        sides.append((_fold_all(head, n), last))
    total = 0.0
    for m in range(n + 1):
        targets = (m, n - m)
        if not counts[0][m] or not counts[1][n - m]:
            continue
        small = int(counts[1][n - m] < counts[0][m])
        s_term, s_weighted = next(_rows_of_mass(*sides[small], targets[small]))
        order = np.argsort(s_term)
        s_term = s_term[order]
        s_weighted = s_weighted[order]
        shift = float(s_weighted.max())
        prefix = np.zeros(s_term.size + 1)
        np.cumsum(np.exp(s_weighted - shift), out=prefix[1:])
        large = 1 - small
        for term, weighted in _rows_of_mass(*sides[large], targets[large], _STREAM_CHUNK):
            index = np.searchsorted(s_term, bound - term, side="right")
            total += float(np.exp(weighted + (shift + log_n_fact)) @ prefix[index])
    return total


def _grouped_p_value(
    groups: "dict[float, int]", n: int, bound: float, *, split: "bool | None" = None
) -> "float | None":
    """Probability that ``n`` draws over ``groups`` (positive ``pi`` value
    -> number of cells carrying it) land on an outcome whose log-pmf
    minus ``log(n!)`` is ``<= bound``.

    Cells with bitwise-equal ``pi`` are exchangeable, so an outcome's
    probability depends only on how each equal-``pi`` group partitions
    its mass: the sum runs over partition profiles weighted by their
    arrangement counts, never over the ``C(n + k - 1, k - 1)`` outcomes.
    Small shapes take one pass over a cached whole-outcome table, larger
    ones the meet-in-the-middle split; ``split`` forces one (for tests).
    ``None`` means the split plan exceeds :data:`_PROFILE_BUDGET`.
    """
    # Groups ordered by size: equal-size groups are interchangeable, so
    # the shape key ignores which pi value each one carries.
    ordered = sorted(groups.items(), key=itemgetter(1))
    sizes = tuple(size for _, size in ordered)
    log_p = np.log([value for value, _ in ordered])
    table = None
    if split is None:
        table = _cached_outcome_table(n, sizes)
    elif not split:
        table = _profile_table(n, sizes)
    if table is not None:
        scaled = table.masses @ log_p
        return float(np.exp(scaled + table.weight) @ (scaled - table.lg <= bound))
    halves, counts = _plan(sizes, n)
    widest = _partition_counts(n, min(sizes[-1], n)).sum()
    if counts[0].sum() + counts[1].sum() > _PROFILE_BUDGET or widest > _PROFILE_BUDGET / 32:
        return None
    profiles = [
        _group_profiles(n, log, size) for log, size in zip(log_p.tolist(), sizes)
    ]
    return _meet_in_the_middle(profiles, halves, counts, n, bound)


def exact_multinomial_test(
    pi: "np.ndarray | list[float]",
    x: "np.ndarray | list[int]",
    *,
    alpha: float = 0.05,
) -> MultinomialTestResult:
    """Sum the probabilities of every outcome at most as likely as ``x``.

    Cells with ``pi == 0`` are left out of the sum: any outcome placing
    counts there has probability zero and cannot contribute to ``Pr_s``.
    If the *observed* vector places counts on a zero cell,
    ``Pr(x) = 0`` and ``Pr_s = 0`` (maximal significance) — the "query
    exhibits a value the context never shows" case.

    Raises :class:`~repro.errors.StatisticsError` for a shape whose
    profile plan exceeds ``_PROFILE_BUDGET`` (:func:`multinomial_test`
    answers those by Monte Carlo).
    """
    pi_arr, x_arr = _validate(np.asarray(pi), np.asarray(x))
    n = int(x_arr.sum())
    if n == 0:
        # No observations: the test is vacuous, never significant.
        return MultinomialTestResult(1.0, alpha, 0, pi_arr.size, "degenerate")
    if ((pi_arr == 0) & (x_arr > 0)).any():
        return MultinomialTestResult(0.0, alpha, n, pi_arr.size, "exact")
    result = _exact_validated(pi_arr, x_arr, n, alpha)
    if result is None:
        raise StatisticsError(
            f"exact test over n={n}, k={int(np.count_nonzero(pi_arr))} exceeds "
            f"the {_PROFILE_BUDGET}-profile budget; use multinomial_test"
        )
    return result


def _exact_validated(
    pi_arr: np.ndarray, x_arr: np.ndarray, n: int, alpha: float
) -> "MultinomialTestResult | None":
    """Exact-test core on pre-validated inputs; ``None`` beyond the budget."""
    pis = pi_arr.tolist()
    # log Pr(x) - log(n!), the cut every outcome is compared against; the
    # caller has ruled out counts on zero cells
    log_px = sum(
        count * math.log(p) - math.lgamma(count + 1)
        for p, count in zip(pis, x_arr.tolist())
        if count
    )
    groups = Counter(pis)
    groups.pop(0.0, None)
    total = _grouped_p_value(groups, n, log_px + LOG_TIE_TOLERANCE)
    if total is None:
        return None
    return MultinomialTestResult(min(total, 1.0), alpha, n, pi_arr.size, "exact")


def montecarlo_multinomial_test(
    pi: "np.ndarray | list[float]",
    x: "np.ndarray | list[int]",
    *,
    alpha: float = 0.05,
    samples: int = 20_000,
    rng: RandomSource = None,
) -> MultinomialTestResult:
    """Estimate ``Pr_s`` from ``samples`` multinomial draws.

    Uses the add-one estimator ``(hits + 1) / (samples + 1)`` which is never
    zero — the exact ``Pr_s`` cannot be zero either when ``Pr(x) > 0``
    (the observed outcome itself is always counted).
    """
    if samples < 1:
        raise StatisticsError(f"samples must be >= 1, got {samples}")
    pi_arr, x_arr = _validate(np.asarray(pi), np.asarray(x))
    n = int(x_arr.sum())
    if n == 0:
        return MultinomialTestResult(1.0, alpha, 0, pi_arr.size, "degenerate")
    if ((pi_arr == 0) & (x_arr > 0)).any():
        return MultinomialTestResult(0.0, alpha, n, pi_arr.size, "montecarlo")
    generator = ensure_numpy_rng(rng)
    log_px = log_multinomial_pmf(pi_arr, x_arr)
    threshold = log_px + LOG_TIE_TOLERANCE
    draws = generator.multinomial(n, pi_arr, size=samples)
    # Vectorized log-pmf over all draws.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pi = np.where(pi_arr > 0, np.log(np.maximum(pi_arr, 1e-300)), 0.0)
    log_probs = (
        math.lgamma(n + 1)
        + draws @ log_pi
        - _lgamma_rows(draws)
    )
    hits = int(np.count_nonzero(log_probs <= threshold))
    p_value = (hits + 1) / (samples + 1)
    return MultinomialTestResult(min(p_value, 1.0), alpha, n, pi_arr.size, "montecarlo")


def _lgamma_rows(draws: np.ndarray) -> np.ndarray:
    """Row-wise ``sum(lgamma(count + 1))`` for integer draw matrices."""
    max_count = int(draws.max(initial=0))
    table = np.array([math.lgamma(i + 1) for i in range(max_count + 1)])
    return table[draws].sum(axis=1)


def multinomial_test(
    pi: "np.ndarray | list[float]",
    x: "np.ndarray | list[int]",
    *,
    alpha: float = 0.05,
    samples: int = 20_000,
    rng: RandomSource = None,
) -> MultinomialTestResult:
    """The exact test, or Monte Carlo for a shape beyond the profile budget.

    The fallback (``samples`` draws from ``rng``) is the paper's
    footnote 1; with equal-``pi`` grouping it no longer triggers at the
    query service's shapes.
    """
    pi_arr, x_arr = _validate(np.asarray(pi), np.asarray(x))
    n = int(x_arr.sum())
    if n == 0:
        return MultinomialTestResult(1.0, alpha, 0, pi_arr.size, "degenerate")
    if ((pi_arr == 0) & (x_arr > 0)).any():
        return MultinomialTestResult(0.0, alpha, n, pi_arr.size, "exact")
    result = _exact_validated(pi_arr, x_arr, n, alpha)
    if result is not None:
        return result
    return montecarlo_multinomial_test(
        pi_arr, x_arr, alpha=alpha, samples=samples, rng=rng
    )
