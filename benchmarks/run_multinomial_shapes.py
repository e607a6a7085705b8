"""Replay service-shaped query streams and time the exact multinomial core.

Captures every multinomial test that ``NCEngine`` (thread executor, in
process) runs for a seeded stream of distinct queries, then times the
exact core (``_exact_validated``) on each captured input next to full
outcome enumeration over a warm ``compositions_array`` table (the cached
enumeration the core replaced), per outcome-space bucket:

* ``<1k``, ``<10k``, ``<100k``: ``C(n + k - 1, k - 1)`` outcomes;
* ``>=100k``: up to the 200,000 outcomes the enumeration used to allow;
* ``former-MC``: beyond that, where the service used to draw 20,000
  Monte-Carlo samples instead.

Enumeration runs only where its table fits 4M elements; there it also
checks the core's p-value to 1e-12. Two streams, both drawn with the
benchmark's own query generator (``perfbench/ncbench/generators.py``)
over synthetic YAGO:

* ``paper``: scale 2, ``context_size=100``, 2-5 entities of one type;
* ``saturated``: scale 32, ``context_size=5``, 2 entities of one type.

Usage (from the repo root)::

    python benchmarks/run_multinomial_shapes.py [--stream paper|saturated|both]
        [--seeds 1 2] [--queries 200] [--repeat 3]

Exits non-zero if any test fell back to Monte Carlo or any enumerated
p-value differs by more than 1e-12.
"""

from __future__ import annotations

import argparse
import math
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT / "src", REPO_ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import numpy as np  # noqa: E402

import repro.core.discrimination as discrimination  # noqa: E402
from repro.datasets.loader import load_dataset  # noqa: E402
from repro.service.engine import EngineConfig, NCEngine  # noqa: E402
from repro.stats import multinomial  # noqa: E402

from perfbench.ncbench import generators  # noqa: E402

STREAMS = {
    # name: (scale, context_size, widths, default query count)
    "paper": (2.0, 100, (2, 3, 4, 5), 200),
    "saturated": (32.0, 5, (2,), 300),
}
BUCKETS = ("<1k", "<10k", "<100k", ">=100k", "former-MC")
#: The enumeration's outcome limit before Monte Carlo took over.
FORMER_MC_OUTCOMES = 200_000
#: Largest ``outcomes * k`` table the reference enumerates.
ENUMERATION_ELEMENTS = 4_000_000


def bucket_of(outcomes: int) -> str:
    if outcomes > FORMER_MC_OUTCOMES:
        return "former-MC"
    for limit, name in ((1_000, "<1k"), (10_000, "<10k"), (100_000, "<100k")):
        if outcomes < limit:
            return name
    return ">=100k"


def capture(stream: str, seed: int, queries: int) -> "tuple[list, int]":
    """``(pi, x)`` of every test the engine ran, and its fallback count."""
    scale, context_size, widths, _ = STREAMS[stream]
    graph = load_dataset("yago", scale=scale)
    types = generators.type_members(graph, min_members=10)
    picks = generators.query_stream(types, seed, widths=widths)
    cases = []
    fallbacks = 0
    original = discrimination.multinomial_test

    def recording(pi, x, **kwargs):
        nonlocal fallbacks
        result = original(pi, x, **kwargs)
        cases.append((np.array(pi, dtype=np.float64), np.array(x, dtype=np.int64)))
        fallbacks += result.method == "montecarlo"
        return result

    config = EngineConfig(context_size=context_size, alpha=0.05, seed=11, max_workers=1)
    discrimination.multinomial_test = recording
    engine = NCEngine(graph, config=config)
    try:
        for _ in range(queries):
            engine.search([graph.node_id(name) for name in next(picks)])
    finally:
        engine.close()
        discrimination.multinomial_test = original
    return cases, fallbacks


class Enumeration:
    """Full outcome enumeration over a warm per-``(n, k)`` table: the
    cached path the grouped core replaced, call for call (support filter,
    log-pmf of ``x``, locked LRU lookup, one matmul, the same cut)."""

    def __init__(self) -> None:
        self.tables: dict = {}
        self.lock = threading.Lock()

    def feasible(self, n: int, k: int) -> bool:
        return multinomial.number_of_compositions(n, k) * k <= ENUMERATION_ELEMENTS

    def table(self, n: int, k: int):
        with self.lock:
            entry = self.tables.pop((n, k), None)
            if entry is None:
                outcomes = multinomial.compositions_array(n, k)
                entry = (outcomes, multinomial._lgamma_rows(outcomes))
            self.tables[n, k] = entry
            return entry

    def p_value(self, pi: np.ndarray, x: np.ndarray, n: int) -> float:
        support = np.flatnonzero(pi > 0)
        pi_pos, x_pos = pi[support], x[support]
        threshold = (
            multinomial.log_multinomial_pmf(pi_pos, x_pos) + multinomial.LOG_TIE_TOLERANCE
        )
        outcomes, lgamma_rows = self.table(n, int(pi_pos.size))
        log_py = math.lgamma(n + 1) + outcomes @ np.log(pi_pos) - lgamma_rows
        total = float(np.exp(log_py[log_py <= threshold]).sum())
        return multinomial.MultinomialTestResult(
            min(total, 1.0), 0.05, n, pi.size, "exact"
        ).p_value


def timed(functions, cases, repeat: int) -> "list[list[float]]":
    """Per-function, per-case seconds: the minimum over ``repeat`` passes,
    the functions interleaved case by case so drift hits them alike.
    A function that is ``None`` for a case is skipped there."""
    best = [[math.inf] * len(cases) for _ in functions[0]]
    for _ in range(repeat):
        for index, case in enumerate(cases):
            for slot, function in enumerate(functions[index]):
                if function is None:
                    continue
                start = time.perf_counter()
                function(*case)
                best[slot][index] = min(best[slot][index], time.perf_counter() - start)
    return best


def report(stream: str, seed: int, queries: int, repeat: int) -> bool:
    started = time.perf_counter()
    captured, fallbacks = capture(stream, seed, queries)
    cases = [(pi, x, int(x.sum())) for pi, x in captured]
    cases = [case for case in cases if case[2] and not ((case[0] == 0) & (case[1] > 0)).any()]
    print(f"\n== {stream} stream, seed {seed}: {queries} queries, {len(captured)} tests "
          f"captured in {time.perf_counter() - started:.1f} s, "
          f"{fallbacks} Monte-Carlo fallbacks")
    enumeration = Enumeration()
    exact_core = multinomial._exact_validated

    def core(pi, x, n):
        return exact_core(pi, x, n, 0.05)

    enumerable = set()
    for index, (pi, _, n) in enumerate(cases):
        k = int(np.count_nonzero(pi))
        if enumeration.feasible(n, k):
            enumeration.table(n, k)  # build every table outside the timing
            enumerable.add(index)
    core_s, enum_s = timed(
        [(core, enumeration.p_value if i in enumerable else None) for i in range(len(cases))],
        cases, repeat,
    )
    worst = 0.0
    for index in enumerable:
        pi, x, n = cases[index]
        result = exact_core(pi, x, n, 0.05)
        worst = max(worst, abs(result.p_value - enumeration.p_value(pi, x, n)))
    print(f"{'bucket':>10} {'tests':>6} {'core s':>9} {'core us/test':>13} "
          f"{'enumerated':>10} {'enum s':>9} {'enum us/test':>13}")
    for name in BUCKETS:
        members = [
            i for i, (pi, _, n) in enumerate(cases)
            if bucket_of(multinomial.number_of_compositions(n, int(np.count_nonzero(pi)))) == name
        ]
        if not members:
            continue
        core_total = sum(core_s[i] for i in members)
        both = [i for i in members if i in enumerable]
        line = (f"{name:>10} {len(members):>6} {core_total:>9.3f} "
                f"{core_total / len(members) * 1e6:>13.1f}")
        if both:
            enum = sum(enum_s[i] for i in both)
            core_both = sum(core_s[i] for i in both)
            line += f" {len(both):>10} {enum:>9.3f} {enum / len(both) * 1e6:>13.1f}"
            line += f"   (core on the same tests: {core_both / len(both) * 1e6:.1f} us/test)"
        else:
            line += f" {0:>10} {'-':>9} {'-':>13}"
        print(line)
    print(f"max |p_core - p_enumerated| over {len(enumerable)} enumerated tests: {worst:.2e}")
    return fallbacks == 0 and worst <= 1e-12


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stream", choices=(*STREAMS, "both"), default="both")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--queries", type=int, default=None,
                        help="queries per seed (default: 200 paper, 300 saturated)")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    streams = list(STREAMS) if args.stream == "both" else [args.stream]
    ok = True
    for stream in streams:
        for seed in args.seeds:
            ok &= report(stream, seed, args.queries or STREAMS[stream][3], args.repeat)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
