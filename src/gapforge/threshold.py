"""Threshold graphs built from codes, with exhaustive property verification.

The graph for a code C and integer t is bipartite: ell parts A_i, each a
copy of [q]**t, and t parts B_j, each a copy of the codewords of C.  A
vertex b = (j, m) is adjacent to a = (i, v) iff C(m)_i = v_j.  The graph is
never materialized.  Its edges are one mask rule, _neighbors: the A_i
neighbours of (j, m) are the intent of C(m)_i in B_j, the ranks of the v
with v[j] == C(m)_i, built in closed form by _intent_mask.  The public
adjacent() checks its arguments and answers with one bit of that mask.
verify_threshold reads one mask per (A-part, B-part, representative) and
decides completeness exactly, at every size; only a coordinate where some
mask differs from its intent has its column patterns and share rows
walked.  It reads the code's packed words (Code.packed) and takes the
soundness bound (1 - delta) * ell as the largest number of coordinates on
which two distinct codewords agree, counted in its own pair loop, not by
the distance measurement.  The collision property is decided by the
collision number's search in codes, from the codewords, not through the
mask rule; oracles.collision_min_x_by_adjacency reads it through
adjacent().
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .codes import Code, _collision_search, _rank_of_symbols, _symbols_of_rank
from .errors import (
    DEFAULT_EDGE_CAP,
    DEFAULT_SUBSET_BUDGET,
    BudgetExceededError,
    CapExceededError,
    GapforgeError,
    IndexRangeError,
    checked_size_cap,
    count_text,
)


@dataclass(frozen=True)
class ThresholdGraph:
    """Implicit threshold graph: (code, t) plus the mask rule."""

    code: Code
    t: int

    def __post_init__(self):
        try:
            t = operator.index(self.t)
        except TypeError:
            raise IndexRangeError(f"t must be an integer, got {self.t!r}") from None
        if t < 1:
            raise IndexRangeError(f"t must be >= 1, got {t}")
        object.__setattr__(self, "t", t)

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
        """Rank of the A-vertex v; anything but a tuple in [q]**t raises IndexRangeError."""
        return _a_rank(v, self.code.q, self.t)

    def a_tuple(self, rank: int) -> tuple[int, ...]:
        """The A-vertex of a rank; a rank outside [0, q**t) raises IndexRangeError."""
        rank = _checked_index(rank, self.a_part_size, "A-vertex rank")
        return _symbols_of_rank(rank, self.code.q, self.t)


def _checked_index(value, stop: int, what: str) -> int:
    """value as an int in [0, stop); anything else raises IndexRangeError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise IndexRangeError(f"{what} must be an integer, got {value!r}") from None
    if not 0 <= value < stop:
        raise IndexRangeError(f"{what} {value} outside [0, {stop})")
    return value


def _a_rank(v, q: int, t: int) -> int:
    """Rank of v in [q]**t; anything but a tuple of t symbols in [q] raises IndexRangeError."""
    try:
        v = tuple(map(operator.index, v))
    except TypeError:
        raise IndexRangeError(f"A-vertex {v!r} is not a tuple of integers") from None
    if len(v) != t or not all(0 <= s < q for s in v):
        raise IndexRangeError(f"A-vertex tuple {v} not in [q]^{t}")
    return _rank_of_symbols(v, q)


def build_threshold(code: Code, t: int) -> ThresholdGraph:
    """O(1) construction; nothing is materialized."""
    return ThresholdGraph(code, t)


def adjacent(graph: ThresholdGraph, b_ref, a_ref) -> bool:
    """Whether b = (j, message rank) meets a = (i, symbol tuple).

    Checks every argument, then answers with bit a_rank(v) of _neighbors,
    the one definition of the graph's edges.  A ref that is not a pair, or
    an index, rank or symbol that is not an integer in range, raises
    IndexRangeError.  verify_threshold reads the mask rule directly.
    """
    try:
        (j, m), (i, v) = b_ref, a_ref
    except (TypeError, ValueError):
        raise IndexRangeError(f"malformed vertex refs {b_ref!r}, {a_ref!r}") from None
    code, t = graph.code, graph.t
    j = _checked_index(j, t, "B-part index")
    m = _checked_index(m, code.size, "message rank")
    i = _checked_index(i, code.ell, "A-part index")
    return bool(_neighbors(graph, (j, m), i) >> _a_rank(v, code.q, t) & 1)


def _neighbors(graph: ThresholdGraph, b_ref, i: int) -> int:
    """The graph's edges: the mask of A_i ranks adjacent to b_ref = (j, m).

    That is the intent of C(m)_i in B_j, the v with v[j] == C(m)_i.  Callers
    pass refs in range.  Reads code.codeword, so a Reed-Solomon code
    stored without a table works.
    """
    j, m = b_ref
    return _intent_mask(graph.code.q, graph.t, j, graph.code.codeword(m)[i])


def _intent_mask(q: int, t: int, j: int, symbol: int) -> int:
    """The ranks of the v in [q]**t with v[j] == symbol, as a mask.

    v[j] is the rank digit of weight w = q**(t-1-j), so the ranks run
    through q**j periods of q * w, and in each the block of w ranks from
    symbol * w carries symbol at j.  The mask is that block times the
    repunit that repeats it once per period.
    """
    w = q ** (t - 1 - j)
    period = q * w
    block = ((1 << w) - 1) << (symbol * w)
    return block * (((1 << period * q ** j) - 1) // ((1 << period) - 1))


def common_neighbor(graph: ThresholdGraph, message_ranks, i: int):
    """The unique common neighbor in A_i of one vertex per B-part.

    Read from the codewords, not from the graph; verify_threshold does not
    use it, and oracles.threshold_verdict_bruteforce checks it on every case.
    A rank or index that is not an integer in range raises IndexRangeError.
    """
    try:
        ranks = [_checked_index(m, graph.b_part_size, "message rank") for m in message_ranks]
    except TypeError:
        raise IndexRangeError(f"message ranks {message_ranks!r} are not a sequence") from None
    if len(ranks) != graph.t:
        raise IndexRangeError(f"expected {graph.t} message ranks, got {len(ranks)}")
    i = _checked_index(i, graph.ell, "A-part index")
    return (i, tuple(graph.code.codeword(m)[i] for m in ranks))


@dataclass(frozen=True)
class ThresholdVerdict:
    """Outcome of exhaustively checking the three threshold properties.

    Completeness is decided for every case (a tuple of message ranks, one
    per B-part, and a part A_i), so completeness_mode is always
    "exhaustive".  completeness_checked is the 1-based index of the first
    failing case in (ranks, i) order, which is completeness_counterexample
    as (ranks, i, hits), or all size**t * ell cases when none fails.
    completeness_patterns counts the (i, column pattern) decisions behind
    them, (symbols realized at i)**t for each i, settled together by a
    lemma where every mask at i equals its intent, else one by one.
    soundness_max_shared is the worst-case number of A-parts in which two
    distinct same-part B-vertices share a neighbor, and must not exceed
    soundness_bound, the largest number of coordinates on which two
    distinct codewords agree, which is (1-delta)*ell by the definition of
    delta; soundness_matches_agreements says whether every shared count
    equals the pair's coordinate agreements.  collision_min_x is the
    smallest |X| satisfying the collision-property hypothesis, or None if
    nothing was found below collision_cap; collision_subsets_examined
    counts the X the pruned search visits, each complete X taking a vertex
    from every B-part (and, on Reed-Solomon codes, the zero word in B_0),
    and the prefixes leading to them.  adjacency_reads counts the
    (B-vertex, A-vertex) pairs decided, the mask bits read: q**t per (i, j,
    representative), so sum over i of (symbols realized at i) * t * q**t.
    """

    completeness_ok: bool
    completeness_counterexample: tuple | None
    completeness_mode: str
    completeness_checked: int
    completeness_patterns: int
    soundness_max_shared: int
    soundness_bound: Fraction
    soundness_ok: bool
    soundness_matches_agreements: bool
    collision_min_x: int | None
    collision_cap: int
    collision_subsets_examined: int
    adjacency_reads: int


def verify_threshold(graph: ThresholdGraph, collision_cap: int, *,
                     budget: int = DEFAULT_SUBSET_BUDGET) -> ThresholdVerdict:
    """Check completeness, soundness, and the collision property.

    A case (ranks, i) asks whether the B-vertices (j, ranks[j]) have exactly
    one common neighbor in A_i, namely their column pattern: the symbols
    their codewords carry at coordinate i.  The graph is read through
    _neighbors, the mask rule adjacent() answers through, once per (i, j,
    representative), the representative being B_j's first codeword
    carrying a symbol realized at i; each mask decides q**t pairs, which
    adjacency_reads counts.  The refs are built in range, so no read
    repeats adjacent()'s checks.  CapExceededError for a negative or
    non-integer collision_cap or budget, or from code.table() for a
    Reed-Solomon code stored without a table, and BudgetExceededError for
    more pairs than DEFAULT_SUBSET_BUDGET, are raised before any read.
    Each mask is compared with its intent H_j[s] (_intent_mask); (i, j) is
    bent when some B_j mask at i differs.  A realized (i, pattern) passes
    when the AND of its masks is exactly the pattern's own bit.  Where no
    (i, j) is bent, a lemma passes every pattern at i unwalked, since the
    intersection over j of H_j[s_j] is the vertex (s_0, .., s_{t-1});
    completeness_patterns still counts them.  A case fails iff its (i,
    pattern) does, so the cases are never walked: the first failing case
    is the least (ranks, i) over the failing patterns, ranks[j] being the
    representative of the pattern's j-th symbol, and its 1-based index
    rank(ranks in base size) * ell + i + 1 is the count checked (size**t *
    ell when none fails).  common_neighbor is not read here;
    oracles.threshold_verdict_bruteforce checks it on every case.

    Soundness counts a pair's agreements as the popcount of the AND of its
    packed words (Code.packed); the largest count is the bound (1 - delta)
    * ell, so relative_distance is not called, and a code with a single
    codeword has no pair and raises GapforgeError before any read.  A
    pair's shared count in B_j is the popcount of the AND of one word's
    B_j row (in field i, every symbol whose representative shares an A_i
    neighbor with that of the word's own symbol) with the other packed
    word.  Intents of distinct symbols in one B-part are disjoint, so at
    an unbent (i, j) that field is the packed bit, and a B_j row differs
    from the packed words only at its bent (i, j), decided once per
    symbol pair (a, b).  On an honest graph every row is the packed words,
    whose shared counts are the agreements: that row is not counted pair
    by pair, and the largest agreements count stands for it.  Every other
    row, as on a corrupted graph, is counted on every pair.

    The collision property asks for the smallest X across the B-parts,
    t + 1 <= |X| < collision_cap, for which every A_i has a vertex with
    >= t+1 neighbors in X.  The best A_i vertex picks each symbol on its
    own, so its count is the sum over j of best_j(i), the most of X's B_j
    members sharing a symbol at coordinate i.  codes' collision search
    decides it over t copies of the packed words, copy j standing for B_j,
    by two facts:
    - Exchange: the smallest X uses every B-part.  If X leaves some B_j'
      empty, some part holds two members (|X| >= t+1); moving one of them
      to B_j' lowers that part's best_j(i) by at most 1 and raises
      best_j'(i) from 0 to 1, at every i, and keeps |X|.
    - Collision test: when every part is used each best_j(i) >= 1, so
      the sum reaches t+1 iff some part repeats a symbol at coordinate i,
      iff field i of the OR of same-part pairwise ANDs is nonzero.
    The search prunes with max_agreements from the soundness pair loop, as
    collision_number does; same-part pairs are a subset of all pairs, so
    the bound holds.  On Reed-Solomon codes it keeps only X holding the
    zero word in B_0: translating every member by a B_0 member's codeword
    keeps the agreements inside each part, so no size is lost.  budget
    bounds collision_subsets_examined, prefixes included.  The search
    reads codewords, never the mask rule, so a corrupted graph does not
    move collision_min_x; oracles.collision_min_x_by_adjacency decides the
    hypothesis through adjacent() alone, and its mutation test in
    tests/test_threshold.py shows the difference.
    """
    code, t, ell, q = graph.code, graph.t, graph.ell, graph.code.q
    collision_cap = checked_size_cap(collision_cap, "collision cap")
    budget = checked_size_cap(budget, "budget")
    size = graph.b_part_size
    if size < 2:
        raise GapforgeError("soundness bound undefined for codes with a single codeword")
    words = code.table()
    # reps[i][s]: the first codeword carrying symbol s at coordinate i; read
    # backwards, each symbol's first codeword is written last
    reps = [dict(zip(reversed(column), range(size - 1, -1, -1))) for column in zip(*words)]
    reads = sum(map(len, reps)) * t * q ** t
    if reads > DEFAULT_SUBSET_BUDGET:
        raise BudgetExceededError(f"{count_text(reads)} adjacency reads exceed budget "
                                  f"{DEFAULT_SUBSET_BUDGET}")

    # masks[i][j][s]: the A_i neighbors, by rank, of B_j's representative of
    # symbol s, for each symbol s realized at coordinate i
    masks = [[{s: _neighbors(graph, (j, m), i) for s, m in sorted(reps[i].items())}
              for j in range(t)] for i in range(ell)]

    # intent[j][s]: the honest A_i neighbors of a B_j vertex carrying s at i;
    # bent[i][j]: whether some B_j mask at coordinate i differs from its intent
    intent = [[_intent_mask(q, t, j, s) for s in range(q)] for j in range(t)]
    bent = [[any(mask != intent[j][s] for s, mask in part[j].items()) for j in range(t)]
            for part in masks]

    failing: dict[tuple[int, tuple[int, ...]], int] = {}
    patterns = 0
    for i, part in enumerate(masks):
        if not any(bent[i]):
            # the intents of a pattern's symbols meet in its own vertex alone
            patterns += len(reps[i]) ** t
            continue
        for pattern in product(*part):
            patterns += 1
            common = -1
            for j, s in enumerate(pattern):
                common &= part[j][s]
            if common != 1 << graph.a_rank(pattern):
                failing[i, pattern] = common

    counterexample, checked = None, size ** t * ell
    if failing:
        # a case fails iff its (i, pattern) does, and a pattern's least case
        # takes for each B_j the first codeword carrying its symbol at i
        ranks, i = min((tuple(reps[i][s] for s in pattern), i) for i, pattern in failing)
        common = failing[i, tuple(words[m][i] for m in ranks)]
        vertices = enumerate(product(range(q), repeat=t))
        counterexample = (ranks, i, tuple(v for rank, v in vertices if common >> rank & 1))
        checked = _rank_of_symbols(ranks, size) * ell + i + 1

    # B_j's row of word m sets bit i * q + b for each symbol b whose mask
    # meets that of word m's symbol at i: its packed bit at an unbent (i, j),
    # changed by share - bit at a bent one.  Equal rows have equal counts
    packed = [code.packed(m) for m in range(size)]
    rows = set()
    for j in range(t):
        change = {i: {a: sum(1 << (i * q + b) for b in part[j] if part[j][a] & part[j][b])
                      - (1 << (i * q + a)) for a in part[j]}
                  for i, part in enumerate(masks) if bent[i][j]}
        rows.add(tuple(p + sum(shift[word[i]] for i, shift in change.items())
                       for p, word in zip(packed, words)))
    # the honest row gives every pair its agreements, so only the rows
    # that differ from it are counted pair by pair
    honest = tuple(packed)
    has_honest = honest in rows
    rows.discard(honest)
    max_agreements = 0
    max_shared = 0
    matches = True
    for m1 in range(size - 1):
        p1, later = packed[m1], packed[m1 + 1:]
        agreements = [(p1 & p2).bit_count() for p2 in later]
        max_agreements = max(max_agreements, *agreements)
        for row in rows:
            r1 = row[m1]
            for p2, agreed in zip(later, agreements):
                shared = (r1 & p2).bit_count()
                matches = matches and shared == agreed
                if shared > max_shared:
                    max_shared = shared
    if has_honest:
        max_shared = max(max_shared, max_agreements)

    min_x, _, examined = _collision_search(code, range(t + 1, collision_cap), t,
                                           max_agreements, budget)

    return ThresholdVerdict(
        completeness_ok=counterexample is None,
        completeness_counterexample=counterexample,
        completeness_mode="exhaustive",
        completeness_checked=checked,
        completeness_patterns=patterns,
        soundness_max_shared=max_shared,
        soundness_bound=Fraction(max_agreements),
        soundness_ok=max_shared <= max_agreements,
        soundness_matches_agreements=matches,
        collision_min_x=min_x,
        collision_cap=collision_cap,
        collision_subsets_examined=examined,
        adjacency_reads=reads,
    )


def export_edges(graph: ThresholdGraph, *, cap: int = DEFAULT_EDGE_CAP):
    """Materialize the edge list with global vertex ids.

    A-vertex id = i * q**t + rank(v); B-vertex id = ell * q**t + j * size +
    rank(m); ranks lexicographic.  Edges are constructed per B-vertex by
    enumerating the free A-coordinates, independently of the mask rule.  A
    negative or non-integer cap raises CapExceededError.
    """
    cap = checked_size_cap(cap, "edge cap")
    code, t, ell = graph.code, graph.t, graph.ell
    q = code.q
    a_size = graph.a_part_size
    offset = ell * a_size
    total = graph.num_b * ell * q ** (t - 1)
    if total > cap:
        raise CapExceededError(f"edge export of {count_text(total)} edges exceeds cap {cap}")
    edges = []
    for j in range(t):
        for m in range(code.size):
            word = code.codeword(m)
            b_id = offset + j * code.size + m
            for i in range(ell):
                a_base = i * a_size
                edges.extend((a_base + a, b_id) for a in _ranks_with_symbol(q, t, j, word[i]))
    edges.sort()
    return edges


def _ranks_with_symbol(q: int, t: int, j: int, symbol: int) -> tuple[int, ...]:
    """Ranks of the v in [q]**t with v[j] == symbol.

    These are the A_i vertices adjacent to a B_j vertex whose codeword has
    symbol at coordinate i, the set bits of _intent_mask.  The t - 1 free
    coordinates run lexicographically, so the ranks ascend.
    """
    return tuple(_rank_of_symbols(rest[:j] + (symbol,) + rest[j:], q)
                 for rest in product(range(q), repeat=t - 1))
