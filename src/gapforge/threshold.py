"""Threshold graphs built from codes, with exhaustive property verification.

The graph for a code C and integer t is bipartite: ell parts A_i, each a
copy of [q]**t, and t parts B_j, each a copy of the codewords of C.  A
vertex b = (j, m) is adjacent to a = (i, v) iff C(m)_i = v_j.  The graph is
never materialized; adjacency is a pure O(1) rule over the memoized
codeword table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .codes import Code, _rank_of_symbols, _symbols_of_rank, relative_distance
from .errors import (
    DEFAULT_EDGE_CAP,
    DEFAULT_SUBSET_BUDGET,
    BudgetExceededError,
    CapExceededError,
    IndexRangeError,
)


@dataclass(frozen=True)
class ThresholdGraph:
    """Implicit threshold graph: (code, t) plus the adjacency rule."""

    code: Code
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise IndexRangeError(f"t must be >= 1, got {self.t}")

    @property
    def ell(self) -> int:
        return self.code.ell

    @property
    def a_part_size(self) -> int:
        return self.code.q ** self.t

    @property
    def b_part_size(self) -> int:
        return self.code.size

    @property
    def num_a(self) -> int:
        return self.ell * self.a_part_size

    @property
    def num_b(self) -> int:
        return self.t * self.b_part_size

    def a_rank(self, v) -> int:
        return _rank_of_symbols(v, self.code.q)

    def a_tuple(self, rank: int) -> tuple[int, ...]:
        return _symbols_of_rank(rank, self.code.q, self.t)


def build_threshold(code: Code, t: int) -> ThresholdGraph:
    """O(1) construction; nothing is materialized."""
    return ThresholdGraph(code, t)


def adjacent(graph: ThresholdGraph, b_ref, a_ref) -> bool:
    """Adjacency rule: b=(j, message rank), a=(i, symbol tuple)."""
    j, m = b_ref
    i, v = a_ref
    v = tuple(v)
    if not 0 <= j < graph.t:
        raise IndexRangeError(f"B-part index {j} outside [0, {graph.t})")
    if not 0 <= m < graph.b_part_size:
        raise IndexRangeError(f"message rank {m} outside [0, {graph.b_part_size})")
    if not 0 <= i < graph.ell:
        raise IndexRangeError(f"A-part index {i} outside [0, {graph.ell})")
    if len(v) != graph.t or any(not 0 <= s < graph.code.q for s in v):
        raise IndexRangeError(f"A-vertex tuple {v} not in [q]^{graph.t}")
    return graph.code.codeword(m)[i] == v[j]


def common_neighbor(graph: ThresholdGraph, message_ranks, i: int):
    """The unique common neighbor in A_i of one vertex per B-part."""
    ranks = tuple(message_ranks)
    if len(ranks) != graph.t:
        raise IndexRangeError(f"expected {graph.t} message ranks, got {len(ranks)}")
    if not 0 <= i < graph.ell:
        raise IndexRangeError(f"A-part index {i} outside [0, {graph.ell})")
    return (i, tuple(graph.code.codeword(m)[i] for m in ranks))


@dataclass(frozen=True)
class ThresholdVerdict:
    """Outcome of exhaustively checking the three threshold properties.

    completeness_mode records whether every tuple was scanned or a seeded
    sample was used.  soundness_max_shared is the worst-case number of
    A-parts in which two distinct same-part B-vertices share a neighbor
    (found by scanning A_i), and must not exceed (1-delta)*ell; it must also
    equal the worst-case coordinate agreement count of codeword pairs.
    collision_min_x is the smallest |X| satisfying the collision-property
    hypothesis, or None if nothing was found below collision_cap.
    """

    completeness_ok: bool
    completeness_counterexample: tuple | None
    completeness_mode: str
    completeness_checked: int
    soundness_max_shared: int
    soundness_bound: Fraction
    soundness_ok: bool
    soundness_matches_agreements: bool
    collision_min_x: int | None
    collision_cap: int
    collision_subsets_examined: int


def _pattern_hits(column, q: int):
    """All v in [q]**t with v[j] == column[j] for every j, by full scan."""
    t = len(column)
    return [v for v in product(range(q), repeat=t)
            if all(v[j] == column[j] for j in range(t))]


def verify_threshold(graph: ThresholdGraph, collision_cap: int, *,
                     exhaustive_limit: int = 100_000,
                     sample_count: int = 1000,
                     seed: int = 0,
                     budget: int = DEFAULT_SUBSET_BUDGET) -> ThresholdVerdict:
    """Check completeness, soundness, and the collision property.

    Completeness checks all tuples times all A-parts when size**t * ell is
    within exhaustive_limit, otherwise a seeded sample, with the mode
    recorded.  Every case is compared with common_neighbor; the A_i scan it
    is compared against depends only on the case's column pattern (the
    symbols its codewords carry at coordinate i, read from the codeword
    table), so each distinct pattern is scanned once per call.  Soundness
    likewise scans A_i once per distinct (j, symbol, symbol) pair.  The
    collision search enumerates X across B with |X| < collision_cap in
    increasing size and reports the smallest X for which every A_i has a
    vertex with >= t+1 neighbors in X.
    """
    code, t, ell = graph.code, graph.t, graph.ell
    size = graph.b_part_size

    total_tuples = size ** t * ell
    if total_tuples <= exhaustive_limit:
        mode = "exhaustive"
        cases = ((ranks, i) for ranks in product(range(size), repeat=t)
                 for i in range(ell))
    else:
        mode = "sampled"
        rng = random.Random(seed)
        cases = (
            (tuple(rng.randrange(size) for _ in range(t)), rng.randrange(ell))
            for _ in range(sample_count))

    q = code.q
    words = [code.codeword(m) for m in range(size)]
    completeness_ok = True
    counterexample = None
    checked = 0
    pattern_hits: dict[tuple[int, ...], list] = {}
    for ranks, i in cases:
        checked += 1
        _, v = common_neighbor(graph, ranks, i)
        column = tuple(words[m][i] for m in ranks)
        hits = pattern_hits.get(column)
        if hits is None:
            hits = pattern_hits[column] = _pattern_hits(column, q)
        if hits != [v]:
            completeness_ok = False
            counterexample = (ranks, i, tuple(hits))
            break

    delta = relative_distance(code).delta
    bound = (1 - delta) * ell
    max_shared = 0
    matches = True
    pair_shares: dict[tuple[int, int, int], bool] = {}
    for w1, w2 in combinations(words, 2):
        agreements = sum(1 for a, b in zip(w1, w2) if a == b)
        for j in range(t):
            shared = 0
            for a, b in zip(w1, w2):
                key = (j, a, b)
                if key not in pair_shares:
                    pair_shares[key] = any(a == v[j] and b == v[j]
                                           for v in product(range(q), repeat=t))
                shared += pair_shares[key]
            if shared != agreements:
                matches = False
            max_shared = max(max_shared, shared)

    min_x = None
    examined = 0
    b_vertices = [(j, m) for j in range(t) for m in range(size)]
    for s in range(t + 1, collision_cap):
        if min_x is not None:
            break
        for x in combinations(b_vertices, s):
            examined += 1
            if examined > budget:
                raise BudgetExceededError(
                    f"collision-property search exceeded budget {budget}")
            if _x_satisfies_collision_hypothesis(x, words, ell, t):
                min_x = s
                break

    return ThresholdVerdict(
        completeness_ok=completeness_ok,
        completeness_counterexample=counterexample,
        completeness_mode=mode,
        completeness_checked=checked,
        soundness_max_shared=max_shared,
        soundness_bound=bound,
        soundness_ok=Fraction(max_shared) <= bound,
        soundness_matches_agreements=matches,
        collision_min_x=min_x,
        collision_cap=collision_cap,
        collision_subsets_examined=examined,
    )


def _x_satisfies_collision_hypothesis(x, words, ell: int, t: int) -> bool:
    """Does every A_i contain a vertex with >= t+1 neighbors in X?

    The best A_i vertex chooses each coordinate independently, so its
    neighbor count is the sum over j of the largest same-symbol multiplicity
    among X's part-j members at coordinate i.
    """
    for i in range(ell):
        counts: dict[tuple[int, int], int] = {}
        for j, m in x:
            key = (j, words[m][i])
            counts[key] = counts.get(key, 0) + 1
        best_per_part: dict[int, int] = {}
        for (j, _), n in counts.items():
            if n > best_per_part.get(j, 0):
                best_per_part[j] = n
        if sum(best_per_part.values()) < t + 1:
            return False
    return True


def export_edges(graph: ThresholdGraph, *, cap: int = DEFAULT_EDGE_CAP):
    """Materialize the edge list with global vertex ids.

    A-vertex id = i * q**t + rank(v); B-vertex id = ell * q**t + j * size +
    rank(m); ranks lexicographic.  Edges are constructed per B-vertex by
    enumerating the free A-coordinates, independently of the adjacency rule.
    """
    code, t, ell = graph.code, graph.t, graph.ell
    q = code.q
    a_size = graph.a_part_size
    offset = ell * a_size
    total = graph.num_b * ell * q ** (t - 1)
    if total > cap:
        raise CapExceededError(f"edge export of {total} edges exceeds cap {cap}")
    edges = []
    for j in range(t):
        for m in range(code.size):
            word = code.codeword(m)
            b_id = offset + j * code.size + m
            for i in range(ell):
                fixed = word[i]
                for rest in product(range(q), repeat=t - 1):
                    v = rest[:j] + (fixed,) + rest[j:]
                    edges.append((i * a_size + graph.a_rank(v), b_id))
    edges.sort()
    return edges
