"""Self-tests of the benchmark: generators, metric names, spans, smoke run."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from ncbench import generators, layers, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TYPES = {
    "actor": [f"actor_{i}" for i in range(12)],
    "city": [f"city_{i}" for i in range(10)],
    "book": [f"book_{i}" for i in range(15)],
}
EDGES = sorted(
    [(f"actor_{i}", "bornIn", f"city_{i % 10}") for i in range(12)]
    + [(f"book_{i}", "writtenBy", f"actor_{i % 12}") for i in range(15)]
)


def test_query_stream_is_deterministic_distinct_and_stratified():
    first = generators.take(generators.query_stream(TYPES, 7), 60)
    again = generators.take(generators.query_stream(TYPES, 7), 60)
    other = generators.take(generators.query_stream(TYPES, 8), 60)
    assert first == again
    assert first != other
    assert len({frozenset(q) for q in first}) == len(first)
    owners = []
    for query in first:
        owner = [name for name, members in TYPES.items() if set(query) <= set(members)]
        assert len(owner) == 1, query
        owners.append(owner[0])
    # every block of len(TYPES) queries holds each type once, and every
    # four blocks hold each (type, width) pair once
    blocks = [owners[i:i + 3] for i in range(0, 12, 3)]
    assert all(sorted(block) == sorted(TYPES) for block in blocks)
    pairs = {(owner, len(query)) for owner, query in zip(owners[:12], first[:12])}
    assert pairs == {(name, width) for name in TYPES for width in (2, 3, 4, 5)}


def test_ingest_batches_are_deterministic_and_always_change_the_graph():
    batches_a = generators.take(generators.ingest_batches(EDGES, TYPES, 5), 4)
    batches_b = generators.take(generators.ingest_batches(EDGES, TYPES, 5), 4)
    assert batches_a == batches_b
    present = set(EDGES)
    for body in batches_a:
        for line in body.splitlines():
            op, *statement = line.split("\t")
            statement = tuple(statement)
            assert statement[1] != generators.TYPE_LABEL
            # every statement changes the graph it is applied to
            if op == "+":
                assert statement not in present
                present.add(statement)
            else:
                assert op == "-" and statement in present
                present.remove(statement)


def test_metric_names_match_the_contract_and_carry_units():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert per_layer == workloads.LAYER_UNITS
    for name, unit in {**end_to_end, **per_layer}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    segment = workloads.Segment(
        setups=[1.0, 2.0, 3.0], launched_at=0.0, window=_window(10.0),
        records=[(("a",), 200, {}, 0.1 * i) for i in range(1, 31)], ops=30,
        failed=0, rss_mb=100.0, stats_before={}, stats_after={},
    )
    produced = {name: unit for name, (_, unit) in workloads.end_to_end(segment).items()}
    assert produced == end_to_end


def _window(seconds: float):
    window = workloads._Window(0)
    window.start, window.end, window.cpu_s = 0.0, seconds, 5.0
    return window


def test_layer_self_times_never_exceed_their_parent():
    module = types.ModuleType("perfbench_fake_layers")

    def leaf(delay):
        total = 0
        for i in range(delay):
            total += i
        return total

    def middle():
        return module.leaf(20_000) + module.leaf(5_000)

    def outer():
        return module.middle() + module.leaf(10_000)

    module.leaf, module.middle, module.outer = leaf, middle, outer
    sys.modules[module.__name__] = module
    try:
        log = layers.SpanLog()
        for name in ("leaf", "middle", "outer"):
            assert log.wrap(module.__name__, name, name)
        module.outer()
        assert not log.wrap(module.__name__, "absent", "absent")
    finally:
        del sys.modules[module.__name__]
    spans = log.export()["spans"]
    assert [s["name"] for s in spans] == ["outer", "middle", "leaf", "leaf", "leaf"]
    selfs = layers.self_times(spans)
    for index, span in enumerate(spans):
        duration = (span["end_ns"] - span["start_ns"]) / 1e9
        assert 0.0 <= selfs[index] <= duration
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert duration <= (parent["end_ns"] - parent["start_ns"]) / 1e9
    sums = layers.totals(spans, list(range(len(spans))))
    assert sums["leaf"]["calls"] == 3
    assert abs(sum(selfs) - (spans[0]["end_ns"] - spans[0]["start_ns"]) / 1e9) < 1e-6


@pytest.mark.parametrize("workload", ["paper_default", "saturated_batch"])
def test_smoke_run_prints_a_correct_traced_result(workload):
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=BENCH.parent,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(workloads.LAYER_UNITS)
    for name, metric in result["metrics"].items():
        assert NAME.match(name) and UNIT.match(metric["unit"])
    details = json.loads(
        next(line for line in lines if line.startswith("# details "))[len("# details "):]
    )
    assert details["missing_hooks"] == []
    assert details["violations"] == []
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["engine.cache_hit_ratio"] == 0
    if workload == "paper_default":
        assert metrics["multinomial.exact_calls"] > 0
    else:
        assert details["ingest"]["ingest_adopted"] is True
        assert metrics["registry.chain_depth"] == 1
        assert metrics["workers.batches"] > 0 and metrics["context.ppr_s"] > 0
        assert metrics["ingest.merge_s"] > 0 and metrics["delta.append_s"] > 0
