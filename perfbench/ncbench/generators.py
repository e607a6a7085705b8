"""The benchmark's own seeded input generators.

Every input the program receives is produced here from the workload
seed: search queries (entity-name tuples) and ingest batches. The generators only read the graph once, through
its public ``edges`` iterator, to learn which entities share a type;
after that they are pure functions of ``(tables, seed)``, so a program
change cannot alter the instrument.
"""

from __future__ import annotations

import itertools
import random

#: The edge label that links an entity to its type node.
TYPE_LABEL = "type"


def type_members(graph, *, min_members: int = 10) -> "dict[str, list[str]]":
    """Entity names per type name, for types with at least ``min_members``.

    Read through ``graph.edges(TYPE_LABEL)``; names are sorted so the
    table (and everything drawn from it) is independent of edge order.
    """
    members: "dict[int, set[int]]" = {}
    for edge in graph.edges(TYPE_LABEL):
        members.setdefault(edge.target, set()).add(edge.source)
    return {
        graph.node_name(type_id): sorted(graph.node_name(node) for node in nodes)
        for type_id, nodes in sorted(members.items())
        if len(nodes) >= min_members
    }


def entity_edges(graph) -> "list[tuple[str, str, str]]":
    """Every non-type edge as a sorted ``(subject, label, object)`` name list.

    Inverse labels (the graph materializes them) are skipped: an ingest
    batch states forward edges and the program derives the inverses.
    """
    from repro.graph.labels import is_inverse_label

    out = []
    for label in sorted(graph.edge_labels):
        if label == TYPE_LABEL or is_inverse_label(label):
            continue
        for edge in graph.edges(label):
            out.append(
                (graph.node_name(edge.source), label, graph.node_name(edge.target))
            )
    out.sort()
    return out


def query_stream(
    types: "dict[str, list[str]]",
    seed: int,
    widths: "tuple[int, ...]" = (2, 3, 4, 5),
):
    """Yield distinct queries of entities sharing one type, forever.

    Stratified by type and width, because the cost of a query depends
    mostly on both: the stream is a sequence of blocks, each holding
    one query per type (in a seeded order), and each type steps through
    the widths from one block to the next (from a seeded starting
    width). Any window of the stream therefore holds every type equally
    often, to within one query, and every ``len(widths)`` blocks hold
    every (type, width) pair once. Within a pair the entities are a
    seeded sample. A query never repeats (as a set), so a result cache
    can never answer one; a type that runs out of distinct queries is
    left out of later blocks.
    """
    rng = random.Random(seed)
    names = sorted(types)
    start = dict(zip(names, rng.sample(range(len(names)), len(names))))
    exhausted: "set[str]" = set()
    seen: "set[frozenset[str]]" = set()
    for block in itertools.count():
        active = [name for name in names if name not in exhausted]
        if not active:
            raise ValueError("every type ran out of distinct queries")
        for name in rng.sample(active, len(active)):
            members = types[name]
            width = widths[(block + start[name]) % len(widths)]
            if width > len(members):
                continue
            for _ in range(64):
                query = tuple(sorted(rng.sample(members, width)))
                key = frozenset(query)
                if key not in seen:
                    seen.add(key)
                    yield query
                    break
            else:  # (nearly) every query of this type is used: retire it
                exhausted.add(name)


def take(stream, count: int) -> list:
    """The next ``count`` items of ``stream``."""
    return list(itertools.islice(stream, count))


def ingest_batches(
    edges: "list[tuple[str, str, str]]",
    types: "dict[str, list[str]]",
    seed: int,
    *,
    adds: int = 6,
    removes: int = 2,
):
    """Yield TSV delta bodies (``op<TAB>s<TAB>label<TAB>o`` lines), forever.

    Each batch removes ``removes`` existing edges and adds ``adds``
    rewired ones: an existing edge ``(s, label, o)`` re-pointed at
    another entity of one of ``o``'s types. Every statement is new
    within the run (no edge is removed twice or added twice, and no
    add duplicates an edge already present), so every batch changes the
    graph and every ingest produces a new version. Type edges are never
    touched, so the type tables behind the queries stay valid.
    """
    rng = random.Random(seed)
    present = set(edges)
    type_of: "dict[str, list[str]]" = {}
    for type_name, members in sorted(types.items()):
        for member in members:
            type_of.setdefault(member, []).append(type_name)
    rewirable = [edge for edge in edges if edge[2] in type_of]
    removable = list(edges)
    rng.shuffle(removable)
    added: "set[tuple[str, str, str]]" = set()
    while True:
        lines = []
        for _ in range(removes):
            if not removable:
                break
            edge = removable.pop()
            present.discard(edge)
            lines.append("-\t" + "\t".join(edge))
        made = 0
        for _ in range(adds * 50):
            if made == adds:
                break
            subject, label, obj = rng.choice(rewirable)
            candidates = types[rng.choice(type_of[obj])]
            statement = (subject, label, rng.choice(candidates))
            if statement[0] == statement[2] or statement in present or statement in added:
                continue
            added.add(statement)
            lines.append("+\t" + "\t".join(statement))
            made += 1
        if not lines:
            raise ValueError("ran out of edges to ingest")
        yield "\n".join(lines) + "\n"
