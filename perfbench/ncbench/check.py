"""Correctness check, run outside the timed window.

A served answer is reduced to its notable characteristics — label,
score, channel and p-value, in order — and compared *exactly* (float
equality) with :func:`findnc_reference`: the library's ``FindNC.run``
with the RWMult selector the service uses, run in the harness process
on the snapshot version that served the answer.
"""

from __future__ import annotations


def notable_of_json(payload: dict) -> "list[tuple]":
    """The notable list of one ``/v1/search`` response body."""
    return [
        (item["label"], item["score"], item["channel"], item["p_value"])
        for item in payload["notable"]
    ]


def notable_of_result(result) -> "list[tuple]":
    """The notable list of one ``FindNCResult``."""
    return [(item.label, item.score, item.channel, item.p_value) for item in result.notable]


def _discriminator_seed(engine, key: tuple) -> "int | None":
    """The per-request RNG seed the engine derives for ``key``, if any.

    Monte-Carlo p-values depend on it; an engine that no longer derives
    one has no randomness left in its answers, so ``None`` is right then.
    """
    derive = getattr(engine, "_rng_seed", None)
    if derive is None:
        return None
    try:
        return derive(key)
    except (TypeError, IndexError):
        return None


def findnc_reference(
    graph,
    queries: "list[tuple[str, ...]]",
    *,
    context_size: int,
    alpha: float,
    seed: int,
) -> "list[list[tuple]]":
    """``FindNC.run`` answers for ``queries`` (entity names) on ``graph``.

    Runs against the graph's compiled snapshot, as the service does.
    """
    from repro.core.context import RandomWalkContext
    from repro.core.discrimination import MultinomialDiscriminator
    from repro.core.findnc import FindNC
    from repro.service.engine import EngineConfig, NCEngine

    selector = RandomWalkContext(graph, pin=True)
    snapshot = graph.compiled()
    seeds = NCEngine(
        graph, config=EngineConfig(context_size=context_size, alpha=alpha, seed=seed)
    )
    try:
        answers = []
        for query in queries:
            ids = tuple(sorted({graph.node_id(name) for name in query}))
            key = (graph.version, frozenset(ids), context_size, alpha, ())
            finder = FindNC(
                graph,
                context_selector=selector,
                discriminator=MultinomialDiscriminator(
                    alpha=alpha, rng=_discriminator_seed(seeds, key)
                ),
                context_size=context_size,
            )
            answers.append(notable_of_result(finder.run(ids, snapshot=snapshot)))
        return answers
    finally:
        seeds.close()


def mismatches(
    served: "list[list[tuple]]", expected: "list[list[tuple]]"
) -> "list[int]":
    """Indices where a served answer differs from its reference."""
    return [
        index
        for index, (got, want) in enumerate(zip(served, expected))
        if got != want
    ]
