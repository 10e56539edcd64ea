"""Threshold graphs built from codes, with exhaustive property verification.

The graph for a code C and integer t is bipartite: ell parts A_i, each a
copy of [q]**t, and t parts B_j, each a copy of the codewords of C.  A
vertex b = (j, m) is adjacent to a = (i, v) iff C(m)_i = v_j.  The graph is
never materialized; adjacency is a pure O(1) rule over the code's
codewords, defined once, in _adjacent_rule.  The public adjacent() checks
its arguments once per call and then answers through the rule;
verify_threshold builds every ref in range and reads the rule directly.
Verification compares each mask of reads with its intent, the A_i
vertices whose j-th symbol is the B_j vertex's symbol at i.  A coordinate
whose masks all equal their intents passes every pattern and adds only
its codewords' own symbols to the shared counts, so only a coordinate
that breaks the rule has its column patterns and share rows walked.
Completeness is decided exactly, at every size.  Verification reads the
code's packed words (Code.packed) and takes the soundness bound
(1 - delta) * ell as what it is by definition, the largest number of
coordinates on which two distinct codewords agree, counted in its own
pair loop; it does not call the distance measurement.  The collision
property is decided by the collision number's search in codes, over one
copy of the packed words per B-part, so it is read from the codewords,
not through the adjacency rule; oracles.collision_min_x_by_adjacency
reads it through adjacent().
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
    """Implicit threshold graph: (code, t) plus the adjacency rule."""

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
        return _rank_of_symbols(v, self.code.q)

    def a_tuple(self, rank: int) -> tuple[int, ...]:
        return _symbols_of_rank(rank, self.code.q, self.t)


def build_threshold(code: Code, t: int) -> ThresholdGraph:
    """O(1) construction; nothing is materialized."""
    return ThresholdGraph(code, t)


def adjacent(graph: ThresholdGraph, b_ref, a_ref) -> bool:
    """Whether b = (j, message rank) meets a = (i, symbol tuple).

    Checks every argument, then answers through _adjacent_rule, the one
    definition of the graph's edges.  A ref that is not a pair, or an index,
    rank or symbol that is not an integer, raises IndexRangeError, as does
    one out of range.  verify_threshold reads the rule directly, with refs
    it builds in range, so these checks run once per public call.
    """
    try:
        j, m = map(operator.index, b_ref)
        i, v = a_ref
        i = operator.index(i)
        v = tuple(map(operator.index, v))
    except (TypeError, ValueError):
        raise IndexRangeError(f"malformed vertex refs {b_ref!r}, {a_ref!r}") from None
    code, t = graph.code, graph.t
    if not 0 <= j < t:
        raise IndexRangeError(f"B-part index {j} outside [0, {t})")
    if not 0 <= m < code.size:
        raise IndexRangeError(f"message rank {m} outside [0, {code.size})")
    if not 0 <= i < code.ell:
        raise IndexRangeError(f"A-part index {i} outside [0, {code.ell})")
    if len(v) != t:
        raise IndexRangeError(f"A-vertex tuple {v} not in [q]^{t}")
    q = code.q
    for s in v:
        if not 0 <= s < q:
            raise IndexRangeError(f"A-vertex tuple {v} not in [q]^{t}")
    return _adjacent_rule(graph, (j, m), (i, v))


def _adjacent_rule(graph: ThresholdGraph, b_ref, a_ref) -> bool:
    """The graph's edges: (j, m) meets (i, v) iff C(m)_i == v[j].

    Checks nothing; callers pass refs in range.  Reads through
    code.codeword, so a Reed-Solomon code stored without a table works.
    """
    j, m = b_ref
    i, v = a_ref
    return graph.code.codeword(m)[i] == v[j]


def common_neighbor(graph: ThresholdGraph, message_ranks, i: int):
    """The unique common neighbor in A_i of one vertex per B-part.

    Read from the codewords, not from the graph; verify_threshold does not
    use it, and oracles.threshold_verdict_bruteforce checks it on every case.
    """
    ranks = tuple(message_ranks)
    if len(ranks) != graph.t:
        raise IndexRangeError(f"expected {graph.t} message ranks, got {len(ranks)}")
    if not 0 <= i < graph.ell:
        raise IndexRangeError(f"A-part index {i} outside [0, {graph.ell})")
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
    them, prod over B-parts of the symbols realized at i for each i:
    those of a coordinate whose masks all equal their intents are settled
    together by a lemma, and the others one by one.
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
    and the prefixes leading to them.  adjacency_reads counts the reads of
    the adjacency rule made, each without the public adjacent()'s argument
    checks: sum over i of (symbols realized at i) * t * q**t.
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
    _adjacent_rule, the rule adjacent() answers through, once per (i, j,
    representative, v), where the representative is B_j's first codeword
    carrying a symbol realized at i and v runs over A_i; so adjacency_reads
    is sum over i of (symbols realized at i) * t * q**t.  Every ref is built
    in range (j < t, a stored rank, i < ell, v in [q]**t), so no read
    repeats adjacent()'s argument checks.  The codewords come from
    code.table(), which raises CapExceededError for a Reed-Solomon code
    stored without one, and more reads than DEFAULT_SUBSET_BUDGET raise
    BudgetExceededError, both before any read; so does CapExceededError
    for a negative or non-integer collision_cap.
    The reads of one representative form the mask of its A_i neighbors,
    and each mask is compared with its intent H_j[s], the v with v[j] == s
    (_ranks_with_symbol); (i, j) is bent when some B_j mask at i differs.
    Each realized (i, pattern) is decided by AND-ing the pattern's masks,
    which must leave exactly the pattern's own bit.  Where no (i, j) is
    bent, a lemma decides every pattern at i without the walk: the
    intersection over j of H_j[s_j] is exactly the vertex (s_0, ..,
    s_{t-1}), so each passes, and completeness_patterns still counts all
    of them.  Only a coordinate with a bent part walks its patterns.  A
    case fails iff its (i, pattern) does, so the cases are never walked:
    the first failing case is the least (ranks, i) over the failing
    patterns, with ranks[j] the representative of the pattern's j-th
    symbol, and its 1-based index rank(ranks in base size) * ell + i + 1 is
    the count checked (size**t * ell when no pattern fails).  The helper
    common_neighbor is not read here; oracles.threshold_verdict_bruteforce
    checks it on every case.

    Soundness counts a pair's agreements as the popcount of the AND of its
    packed words (Code.packed), and the largest count over all pairs is
    the bound (1 - delta) * ell, so relative_distance is not called; a
    code with a single codeword has no pair and raises GapforgeError
    before any read.  Two B_j representatives of symbols a and b realized
    at i must share an A_i neighbor exactly when a == b.  An unbent (i, j)
    keeps that rule, since H_j[a] and H_j[b] are disjoint for a != b; the
    masks decide it once per (a, b) at each bent (i, j).  A pair's shared
    count in B_j is the popcount of the AND of one word's B_j row (in
    field i, every symbol whose representative shares an A_i neighbor
    with that of the word's own symbol) with the other packed word: its
    agreements, plus or minus one for each (i, j, a, b) it carries that
    breaks the rule.  So a B_j row is the packed words, changed only in
    the fields of its bent (i, j), and on an honest graph every row is the
    packed words, whose shared count is the pair's agreements on every
    pair.  So that row is not walked pair by pair: when some B_j has it,
    the largest agreements count stands for its shared counts.  Every
    other row, as on a corrupted graph, is counted on every pair.

    The collision property asks for the smallest X across the B-parts,
    t + 1 <= |X| < collision_cap, for which every A_i has a vertex with
    >= t+1 neighbors in X.  The best A_i vertex picks each symbol on its
    own, so its count is the sum over j of best_j(i), the largest number
    of X's B_j members sharing a symbol at coordinate i.  Two facts let
    codes' collision search decide it, over t copies of the packed words,
    copy j standing for B_j:
    - Exchange: the smallest X uses every B-part.  If X meets the
      hypothesis and leaves some B_j' empty, then since |X| >= t+1 some
      part holds two members; moving one of them to B_j' lowers that
      part's best_j(i) by at most 1 and raises best_j'(i) from 0 to 1, at
      every i, and keeps |X|.
    - Collision test: when every part is used each best_j(i) >= 1, so
      the sum reaches t+1 iff some part repeats a symbol at coordinate i,
      iff field i of the OR of same-part pairwise ANDs is nonzero.
    The search takes max_agreements, counted in the soundness pair loop,
    as the most coordinates two distinct codewords agree on, and drops a
    prefix whose remaining pairs cannot cover the coordinates it lacks, as
    in collision_number: only same-part pairs count here, which are a
    subset of all pairs, so the bound holds.  On Reed-Solomon codes the
    search keeps only X holding the zero word in B_0: translating every
    member by a B_0 member's codeword keeps the agreements inside each
    part, so no size is lost.  budget bounds collision_subsets_examined,
    prefixes included.  The search reads codewords, never the adjacency
    rule, so a corrupted graph does not move collision_min_x;
    oracles.collision_min_x_by_adjacency decides the hypothesis through
    adjacent() alone, and its mutation test in tests/test_threshold.py
    shows the difference.
    """
    code, t, ell = graph.code, graph.t, graph.ell
    collision_cap = checked_size_cap(collision_cap, "collision cap")
    size = graph.b_part_size
    if size < 2:
        raise GapforgeError("soundness bound undefined for codes with a single codeword")
    words = code.table()
    # reps[i][s]: the first codeword carrying symbol s at coordinate i; read
    # backwards, each symbol's first codeword is written last
    reps = [dict(zip(reversed(column), range(size - 1, -1, -1))) for column in zip(*words)]
    reads = sum(map(len, reps)) * t * code.q ** t
    if reads > DEFAULT_SUBSET_BUDGET:
        raise BudgetExceededError(f"{count_text(reads)} adjacency reads exceed budget "
                                  f"{DEFAULT_SUBSET_BUDGET}")
    vertices = list(product(range(code.q), repeat=t))
    bits = [1 << rank for rank in range(len(vertices))]

    # masks[i][j][s]: the A_i neighbors, by rank, of B_j's representative of
    # symbol s, for each symbol s realized at coordinate i
    masks = []
    for i in range(ell):
        a_refs = [(i, v) for v in vertices]
        masks.append([{s: _neighbor_mask(graph, (j, m), a_refs, bits)
                       for s, m in sorted(reps[i].items())}
                      for j in range(t)])

    # intent[j][s]: the honest A_i neighbors of a B_j vertex carrying s at i;
    # bent[i][j]: whether some B_j mask at coordinate i differs from its intent
    q = code.q
    intent = [[sum(bits[rank] for rank in _ranks_with_symbol(q, t, j, s)) for s in range(q)]
              for j in range(t)]
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
        counterexample = (ranks, i, tuple(v for rank, v in enumerate(vertices)
                                          if common >> rank & 1))
        checked = _rank_of_symbols(ranks, size) * ell + i + 1

    # B_j's row of word m sets bit i * q + b, the packed layout, for each
    # symbol b whose mask meets that of word m's symbol at i.  Distinct
    # intents of one B-part are disjoint, so at an unbent (i, j) that is the
    # word's own symbol, its packed bit; a bent (i, j) changes the row by
    # share - bit.  B-parts with equal rows have equal counts
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


def _neighbor_mask(graph: ThresholdGraph, b_ref, a_refs, bits) -> int:
    """The bits of the a_refs adjacent to b_ref, each read through the rule once."""
    return sum(bit for bit, a_ref in zip(bits, a_refs) if _adjacent_rule(graph, b_ref, a_ref))


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
    symbol at coordinate i.  The t - 1 free coordinates run
    lexicographically, so the ranks ascend.
    """
    return tuple(_rank_of_symbols(rest[:j] + (symbol,) + rest[j:], q)
                 for rest in product(range(q), repeat=t - 1))
