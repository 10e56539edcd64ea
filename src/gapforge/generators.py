"""Seeded random and exhaustive instance generators for verification suites."""

from __future__ import annotations

import random
from itertools import combinations, product

from .frontends import Cnf3, PartitionedGraph
from .maxcover import MaxCoverInstance
from .setcover import SetCoverInstance


def random_pseudo_projection_instance(rng: random.Random, *, max_k: int = 3,
                                      max_t: int = 3, max_part: int = 3,
                                      plant_cover: bool | None = None) -> MaxCoverInstance:
    """Random instance where every (i, j) entry is a projection or full.

    With plant_cover (default: a coin flip) a labeling is wired to cover
    every right super-node, forcing value 1; otherwise the instance is
    all-projection with k >= 2 and right parts >= 2, where uncovered
    super-nodes are common.
    """
    if plant_cover is None:
        plant_cover = rng.random() < 0.5
    t = rng.randint(1, max_t)
    targets = {}
    if plant_cover:
        k = rng.randint(1, max_k)
        v_parts = tuple(rng.randint(1, max_part) for _ in range(k))
        w_parts = tuple(rng.randint(1, max_part) for _ in range(t))
        kinds = [[rng.random() < 0.5 for _ in range(t)] for _ in range(k)]
        labeling = tuple(rng.randrange(s) for s in v_parts)
        targets = {j: rng.randrange(w_parts[j]) for j in range(t)}
    else:
        k = rng.randint(2, max_k)
        v_parts = tuple(rng.randint(1, max_part) for _ in range(k))
        w_parts = tuple(rng.randint(2, max_part) for _ in range(t))
        kinds = [[True] * t for _ in range(k)]

    masks = []
    for i in range(k):
        for r in range(v_parts[i]):
            row = []
            for j in range(t):
                if not kinds[i][j]:
                    row.append((1 << w_parts[j]) - 1)
                elif plant_cover and r == labeling[i]:
                    row.append(1 << targets[j])
                else:
                    row.append(1 << rng.randrange(w_parts[j]))
            masks.append(row)
    return MaxCoverInstance.from_masks(v_parts, w_parts, masks,
                                       provenance="random_pseudo_projection")


def random_bounded_degree_instance(rng: random.Random, d: int, *, max_t: int = 3,
                                   max_part: int = 3,
                                   plant_cover: bool | None = None) -> MaxCoverInstance:
    """Random k=2 instance with every |N(v) cut W_j| <= d."""
    t = rng.randint(1, max_t)
    v_parts = (rng.randint(1, max_part), rng.randint(1, max_part))
    w_parts = tuple(rng.randint(1, max_part) for _ in range(t))
    if plant_cover is None:
        plant_cover = rng.random() < 0.5
    labeling = (rng.randrange(v_parts[0]), rng.randrange(v_parts[1]))
    targets = {j: rng.randrange(w_parts[j]) for j in range(t)}

    masks = []
    for i in range(2):
        for r in range(v_parts[i]):
            row = []
            for j in range(t):
                degree = rng.randint(0, d)
                nbrs = rng.sample(range(w_parts[j]), min(degree, w_parts[j]))
                if plant_cover and r == labeling[i]:
                    nbrs = set(nbrs[:d - 1]) | {targets[j]}
                row.append(sum(1 << wr for wr in nbrs))
            masks.append(row)
    return MaxCoverInstance.from_masks(v_parts, w_parts, masks,
                                       provenance=f"random_bounded_degree(d={d})")


def random_setcover_instance(rng: random.Random, *, max_universe: int = 3,
                             k: int = 2, max_sets: int = 3,
                             plant_cover: bool | None = None) -> SetCoverInstance:
    """Random partitioned SetCover; optionally plants a partitioned cover."""
    universe = rng.randint(2, max_universe)
    if plant_cover is None:
        plant_cover = rng.random() < 0.5
    collections = []
    for _ in range(k):
        count = rng.randint(1, max_sets)
        sets = []
        for _ in range(count):
            size = rng.randint(1, universe)
            sets.append(frozenset(rng.sample(range(universe), size)))
        collections.append(sets)
    if plant_cover:
        elements = list(range(universe))
        rng.shuffle(elements)
        cut = rng.randint(1, universe)
        halves = [frozenset(elements[:cut]), frozenset(elements[cut:] or elements[:1])]
        for j in range(k):
            pos = rng.randrange(len(collections[j]))
            collections[j][pos] = halves[j % 2]
    return SetCoverInstance(universe, collections, provenance="random_setcover")


def random_cnf3(rng: random.Random, *, max_vars: int = 8,
                max_clauses: int | None = None) -> Cnf3:
    """Random 3-CNF respecting the <=3 occurrences bound, no unused variables."""
    n = rng.randint(3, max_vars)
    m = rng.randint(2, max_clauses if max_clauses is not None else n)
    budget = {v: 3 for v in range(1, n + 1)}
    clauses = []
    for _ in range(m):
        available = [v for v, b in budget.items() if b > 0]
        if len(available) < 1:
            break
        width = rng.randint(1, min(3, len(available)))
        chosen = rng.sample(available, width)
        clause = tuple(v if rng.random() < 0.5 else -v for v in chosen)
        for v in chosen:
            budget[v] -= 1
        clauses.append(clause)
    used = sorted({abs(lit) for cl in clauses for lit in cl})
    renumber = {v: i + 1 for i, v in enumerate(used)}
    clauses = tuple(tuple((1 if lit > 0 else -1) * renumber[abs(lit)] for lit in cl)
                    for cl in clauses)
    return Cnf3(len(used), clauses)


def compositions_sorted(total: int, parts: int):
    """Weakly decreasing positive compositions of total into parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range((total + parts - 1) // parts, total - parts + 2):
        for rest in compositions_sorted(total - first, parts - 1):
            if rest[0] <= first:
                yield (first,) + rest


def enumerate_partitioned_graphs(max_vertices: int, t: int):
    """Every partitioned graph on <= max_vertices vertices with t parts.

    Part sizes run over weakly decreasing compositions (part order never
    affects clique existence or MaxCover values) and the cross-edge set
    runs over all subsets; parts are independent by construction.
    """
    for m in range(t, max_vertices + 1):
        for sizes in compositions_sorted(m, t):
            parts = []
            start = 0
            for s in sizes:
                parts.append(tuple(range(start, start + s)))
                start += s
            parts = tuple(parts)
            pairs = [(u, v) for a, b in combinations(range(t), 2)
                     for u in parts[a] for v in parts[b]]
            for mask in range(1 << len(pairs)):
                edges = frozenset(pairs[p] for p in range(len(pairs)) if mask >> p & 1)
                yield PartitionedGraph(parts, edges)
