"""Front-end reductions into pseudo-projection MaxCover, plus input parsers.

The clique front-end turns a partitioned graph with independent parts into
a MaxCover instance with one left super-node per part pair (the cross
edges) and one right super-node per part (the vertices).  The 3-SAT
front-end splits the clauses into k near-equal groups and uses satisfying
partial assignments as labels; a group's labels are the set bits of the
AND of its clauses' truth tables over its 2**n assignments, each clause
the OR of its literals' tables, so a group costs O(clauses * 2**n / 64)
word operations plus O(labels * patterns).  Both outputs have
the pseudo-projection property and value 1 exactly on YES inputs.  Both
hand over each label's packed row, the instance's one layout, as one int:
the all-ones row of the right super-nodes the label does not touch, with
one bit set in each field it does touch.  The instance checks only that
every row fits; neither front-end computes a global W id.  The clique
front-end needs t >= 2 parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .errors import (
    DEFAULT_UNIVERSE_CAP,
    CapExceededError,
    ClauseWidthError,
    EmptyPartError,
    IndexRangeError,
    OccurrenceBoundError,
    ParseError,
    PartNotIndependentError,
    UnusedVariableError,
    checked_int,
    count_text,
)
from .maxcover import MaxCoverInstance


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1; edges are sorted pairs."""

    num_vertices: int
    edges: frozenset

    def __post_init__(self):
        n = checked_int(self.num_vertices, 0, None, "vertex count", IndexRangeError)
        for u, v in self.edges:
            for w in (u, v):
                checked_int(w, 0, n, "edge vertex out of range; a vertex", IndexRangeError)
            if u == v:
                raise IndexRangeError(f"self-loop at vertex {u}")
            if u > v:
                raise IndexRangeError("edges must be stored as (min, max) pairs")

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def make_graph(num_vertices: int, edges) -> Graph:
    return Graph(num_vertices, frozenset((min(u, v), max(u, v)) for u, v in edges))


@dataclass(frozen=True)
class PartitionedGraph:
    """Graph whose vertex set is partitioned into non-empty independent parts."""

    parts: tuple[tuple[int, ...], ...]
    edges: frozenset
    # part index of each vertex; derived from parts, so kept out of eq and hash
    _owner: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        seen = [v for part in self.parts for v in part]
        table = [0] * len(seen)
        try:
            for i, part in enumerate(self.parts):
                for v in part:
                    table[v] = i  # a float vertex raises TypeError here
        except (TypeError, IndexError):
            for v in seen:
                checked_int(v, 0, len(seen), "vertex", IndexRangeError)
        if sorted(seen) != list(range(len(seen))):
            raise IndexRangeError("parts must partition 0..m-1")
        if any(not part for part in self.parts):
            raise EmptyPartError("parts must be non-empty")
        object.__setattr__(self, "_owner", tuple(table))
        for u, v in self.edges:
            try:
                if 0 <= u < v and table[u] != table[v]:  # a float end raises TypeError
                    continue
            except (TypeError, IndexError):
                pass
            part_u, _ = self.part_of(u), self.part_of(v)  # an end that is no vertex raises
            if u >= v:
                raise IndexRangeError(f"bad edge ({u},{v})")
            raise PartNotIndependentError(f"edge ({u},{v}) lies inside part {part_u}")

    @property
    def num_vertices(self) -> int:
        return sum(len(p) for p in self.parts)

    @property
    def t(self) -> int:
        return len(self.parts)

    def part_of(self, v: int) -> int:
        """The part of vertex v; anything but an int in [0, m) raises IndexRangeError."""
        return self._owner[checked_int(v, 0, len(self._owner), "vertex", IndexRangeError)]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def make_partitioned_graph(parts, edges) -> PartitionedGraph:
    return PartitionedGraph(tuple(tuple(p) for p in parts),
                            frozenset((min(u, v), max(u, v)) for u, v in edges))


@dataclass(frozen=True)
class DecidedNo:
    """A reduction precondition already decides the answer is NO."""

    reason: str
    empty_classes: tuple[tuple[int, int], ...] = ()


def colorful_lift(graph: Graph, t: int) -> PartitionedGraph:
    """t-partite lift: copy i of u meets copy j of v iff i != j and (u,v) in E.

    The lift has one-vertex-per-part cliques exactly when the original graph
    has a t-clique.  t must be an int >= 1 (IndexRangeError).
    """
    t = checked_int(t, 1, None, "number of copies t", IndexRangeError)
    n = graph.num_vertices
    parts = tuple(tuple(range(i * n, (i + 1) * n)) for i in range(t))
    edges = set()
    for u, v in graph.edges:
        for i in range(t):
            for j in range(i + 1, t):
                edges.add((i * n + u, j * n + v))
                edges.add((i * n + v, j * n + u))
    return PartitionedGraph(parts, frozenset(edges))


def _check_clique_parts(t) -> int:
    """t as an int >= 2, the clique front-end's part count, else IndexRangeError."""
    return checked_int(t, 2, None, "t (the clique front-end needs t >= 2 parts)",
                       IndexRangeError)


def _clique_graph(graph, t: int) -> PartitionedGraph:
    """graph on the clique front-end's t >= 2 parts; a plain graph is lifted to them."""
    t = _check_clique_parts(t)
    if isinstance(graph, Graph):
        return colorful_lift(graph, t)
    if graph.t != t:
        raise IndexRangeError(f"graph has {graph.t} parts, expected t={t}")
    return graph


# Layouts are keyed on the vertex partition, not on the edges, and a job
# meets few partitions.
_CLIQUE_LAYOUT_CACHE_SIZE = 64


@lru_cache(maxsize=_CLIQUE_LAYOUT_CACHE_SIZE)
def _clique_layout(parts: tuple[tuple[int, ...], ...]):
    """(bit, pair_class, others, w_parts, provenance) of the clique front-end on parts.

    bit[w] is vertex w's bit in a row: its rank in its part, in that part's
    field.  Class c is the c-th pair of combinations(range(t), 2);
    pair_class[i][j] is the class of parts i and j in either order, and
    others[c] is the all-ones row of every part outside class c.  All of
    it depends on the partition alone, so graphs on one partition share
    one layout, and at most _CLIQUE_LAYOUT_CACHE_SIZE are kept.
    """
    t = len(parts)
    _check_clique_parts(t)
    w_parts = tuple(len(part) for part in parts)
    bit, fields, num_w = [0] * sum(w_parts), [], 0
    for part in parts:
        for p, w in enumerate(part):
            bit[w] = 1 << (num_w + p)
        fields.append(((1 << len(part)) - 1) << num_w)
        num_w += len(part)
    pairs = list(combinations(range(t), 2))
    pair_class = [[None] * t for _ in range(t)]
    for c, (i, j) in enumerate(pairs):
        pair_class[i][j] = pair_class[j][i] = c
    others = tuple((1 << num_w) - 1 ^ fields[i] ^ fields[j] for i, j in pairs)
    return (tuple(bit), tuple(map(tuple, pair_class)), others, w_parts,
            f"clique_frontend(m={num_w}, t={t})")


def clique_to_maxcover(graph: PartitionedGraph):
    """Colorful-clique to MaxCover: left super-nodes are cross-edge classes.

    Left super-node (i,j) holds the edges between parts i and j, in sorted
    edge order; right super-node i holds part i's vertices; an edge label
    meets exactly its two endpoints in their parts and everything elsewhere.
    Its row is the all-ones row of the other parts with the endpoints'
    bits in fields i and j.  An empty edge class means no colorful clique
    can exist, returned as a DecidedNo.  A graph needs t >= 2 parts.

    What depends on the partition alone (each vertex's bit, each class's
    all-other-parts row, the part sizes and the provenance) is read from
    _clique_layout, built once per partition and kept for at most
    _CLIQUE_LAYOUT_CACHE_SIZE partitions; per graph, only the sorted edges
    are walked.
    """
    bit, pair_class, others, w_parts, provenance = _clique_layout(graph.parts)
    owner = graph._owner
    # ends[c] holds the endpoint bits of class c's labels, in sorted edge order
    ends = [[] for _ in others]
    for u, v in sorted(graph.edges):
        ends[pair_class[owner[u]][owner[v]]].append(bit[u] | bit[v])
    if not all(ends):
        empty = tuple(pair for pair, class_ends in
                      zip(combinations(range(len(w_parts)), 2), ends) if not class_ends)
        return DecidedNo("empty cross-edge class rules out a colorful clique", empty)
    return MaxCoverInstance._from_rows(
        tuple(map(len, ends)), w_parts,
        [row | label for row, class_ends in zip(others, ends) for label in class_ends],
        provenance=provenance)


# ---------------------------------------------------------------------------
# 3-SAT


@dataclass(frozen=True)
class Cnf3:
    """CNF with clauses of at most 3 literals, each variable in <= 3 clauses.

    Variables are 1..n; literals are signed ints.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = checked_int(self.num_vars, 0, None, "variable count", IndexRangeError)
        for c, clause in enumerate(self.clauses):
            if len(clause) > 3:
                raise ClauseWidthError(f"clause {c} has {len(clause)} literals")
            if not clause:
                raise ClauseWidthError(f"clause {c} is empty")
            what = f"literal in clause {c}"
            for lit in clause:
                if not checked_int(lit, -n, n + 1, what, IndexRangeError):
                    raise IndexRangeError(f"literal 0 in clause {c}")
        for var, count in enumerate(self.occurrences, start=1):
            if count > 3:
                raise OccurrenceBoundError(f"variable {var} occurs in {count} clauses")

    @property
    def occurrences(self) -> tuple[int, ...]:
        counts = [0] * self.num_vars
        for clause in self.clauses:
            for var in {abs(lit) for lit in clause}:
                counts[var - 1] += 1
        return tuple(counts)


def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """table[b] lists the set bits of byte b, lowest first."""
    table = [()]
    for p in range(8):
        table += [bits + (p,) for bits in table]
    return tuple(table)


_SET_BITS = _byte_bits()
# a group wider than this runs in blocks of 2**_BLOCK_BITS assignments
_BLOCK_BITS = 16


@lru_cache(maxsize=_BLOCK_BITS + 1)
def _bit_tables(width: int) -> tuple[int, ...]:
    """Truth table of each bit b over [0, 2**width): bit a is set iff a has bit b.

    Bit b's table is one period, 2**b zeros then 2**b ones, doubled by
    shift-OR.  Built once per width.
    """
    size, tables = 1 << width, []
    for b in range(width):
        half = 1 << b
        table, period = (1 << half) - 1 << half, half << 1
        while period < size:
            table |= table << period
            period <<= 1
        tables.append(table)
    return tuple(tables)


def _satisfying(clauses, bit, n: int, room: int) -> tuple[list[int], int]:
    """(labels, count): every a in [0, 2**n) satisfying all clauses, in increasing a.

    Variable var is bit bit[var] of a.  A block fixes the high bits
    h = a >> w, w = min(n, _BLOCK_BITS), and holds one truth table over the
    2**w low bits: a clause is everything when one of its high literals is
    true under h and otherwise the OR of its low literals' tables, and the
    block's satisfying set is the AND of its clauses.  Set bits are read a
    byte at a time through _SET_BITS.  count is the number of satisfying
    a; once it passes room, later blocks are counted and not listed, so at
    most room plus one block's 2**w labels are ever listed.
    """
    w = min(n, _BLOCK_BITS)
    size = 1 << w
    full = (1 << size) - 1
    tables = _bit_tables(w)
    # clauses with no high literal are ANDed once; the others per block,
    # with (pos, neg) masks of their positive and negated high literals
    always, split = full, []
    for clause in clauses:
        table = pos = neg = 0
        for lit in clause:
            b = bit[abs(lit)]
            if b >= w:
                if lit > 0:
                    pos |= 1 << b - w
                else:
                    neg |= 1 << b - w
            else:
                table |= tables[b] if lit > 0 else tables[b] ^ full
        if pos or neg:
            split.append((pos, neg, table))
        else:
            always &= table
    num_bytes = size + 7 >> 3
    labels, count = [], 0
    for high in range(1 << n - w):
        sat = always
        for pos, neg, table in split:
            if not (high & pos or ~high & neg):
                sat &= table
        if count > room:
            count += sat.bit_count()
        elif sat:
            block = high << w
            for index, byte in enumerate(sat.to_bytes(num_bytes, "little")):
                if byte:
                    first = block | index << 3
                    labels += [first | p for p in _SET_BITS[byte]]
            count = len(labels)
    return labels, count


def _rank_table(bits, start: int) -> list[int]:
    """table[x] is start plus bits[b] for each set bit b of x."""
    table = [start]
    for bit in bits:
        table += [rank + bit for rank in table] if bit else table
    return table


def sat_to_maxcover(cnf: Cnf3, k: int) -> MaxCoverInstance:
    """3-SAT to MaxCover: labels are group-satisfying partial assignments.

    Clauses are split into k contiguous near-equal groups.  Left super-node
    i holds every assignment to the variables of group i satisfying all its
    clauses.  For each non-empty occurrence pattern J (the exact set of
    groups a variable appears in, 1 <= |J| <= 3), right super-node W_J holds
    all assignments to those variables; group labels meet their consistent
    restriction (i in J) or everything (i not in J).  Patterns with no
    variables are omitted and recorded in the provenance.

    An assignment to variables (x_1, ..., x_n) is the integer a whose bit
    n - 1 - p holds x_{p+1}, so labels come in increasing a, and a member's
    rank in W_J is its assignment's integer over the variables of J.  The
    group's labels are the set bits of the AND of its clauses' truth tables
    over the 2**n assignments (_satisfying), and a label's W_J ranks come
    from two lookup tables per pattern, one over each half of a.  A group
    costs O(clauses * 2**n / 64) word operations plus O(labels * patterns).
    Each row holds |W| bits, so once a group's labels are counted, more
    than DEFAULT_UNIVERSE_CAP bits over the rows so far and the group's
    raise CapExceededError before any of the group's rows is built; a
    group lists no more labels than fit, plus one block of _satisfying.
    """
    k = checked_int(k, 1, len(cnf.clauses) + 1, "k (at most one group per clause)",
                    IndexRangeError)
    base, extra = divmod(len(cnf.clauses), k)
    cuts = [i * base + min(i, extra) for i in range(k + 1)]
    group_clauses = [cnf.clauses[a:b] for a, b in zip(cuts, cuts[1:])]
    group_vars = [sorted({abs(lit) for cl in clauses for lit in cl})
                  for clauses in group_clauses]
    # pattern[var] is the tuple of groups var occurs in
    pattern = [()] * (cnf.num_vars + 1)
    for i, vars_i in enumerate(group_vars):
        for var in vars_i:
            pattern[var] += (i,)
    s_vars = {}
    for var in range(1, cnf.num_vars + 1):
        if not pattern[var]:
            raise UnusedVariableError(f"variable {var} occurs in no clause")
        s_vars.setdefault(pattern[var], []).append(var)
    patterns_in_use = sorted(s_vars, key=lambda p: (len(p), p))
    omitted = sum(math.comb(k, size) for size in (1, 2, 3)) - len(patterns_in_use)

    w_parts = tuple(1 << len(s_vars[p]) for p in patterns_in_use)
    starts = [sum(w_parts[:j]) for j in range(len(w_parts))]
    len_w = sum(w_parts)
    if len_w > DEFAULT_UNIVERSE_CAP:  # before the all-ones row of |W| bits exists
        raise CapExceededError(f"{count_text(len_w)} W vertices exceed the cap of "
                               f"{DEFAULT_UNIVERSE_CAP}")
    all_ones = (1 << len_w) - 1
    v_parts, rows = [], []
    for i, (vars_i, clauses) in enumerate(zip(group_vars, group_clauses)):
        n = len(vars_i)
        bit = {var: n - 1 - p for p, var in enumerate(vars_i)}
        # a row holds |W| bits: check the rows so far and this group's
        # before any of its rows, or the tables that build them, exist, and
        # list no more of the group's labels than fit
        labels, count = _satisfying(clauses, bit, n, DEFAULT_UNIVERSE_CAP // len_w - len(rows))
        count += len(rows)
        if count * len_w > DEFAULT_UNIVERSE_CAP:
            raise CapExceededError(f"{count} labels of {len_w} row bits each exceed cap "
                                   f"{DEFAULT_UNIVERSE_CAP}")
        # a label's row is full on every W_J with i not in J; on the others
        # it holds bit start + rank, which is lows[a & mask] + highs[a >> half]
        half = n >> 1
        mask = (1 << half) - 1
        others, projections = all_ones, []
        for j, p in enumerate(patterns_in_use):
            if i in p:
                others ^= (1 << w_parts[j]) - 1 << starts[j]
                # rank_bits[b] is the rank bit of the variable in bit b of a
                rank_bits = [0] * n
                for r, var in enumerate(reversed(s_vars[p])):
                    rank_bits[bit[var]] = 1 << r
                projections.append((_rank_table(rank_bits[:half], starts[j]),
                                    _rank_table(rank_bits[half:], 0)))
        for a in labels:
            row = others
            for lows, highs in projections:
                row |= 1 << lows[a & mask] + highs[a >> half]
            rows.append(row)
        v_parts.append(len(labels))
    provenance = (f"sat_frontend(n={cnf.num_vars}, m={len(cnf.clauses)}, k={k}, "
                  f"omitted_patterns={omitted})")
    return MaxCoverInstance._from_rows(v_parts, w_parts, rows, provenance=provenance)


# ---------------------------------------------------------------------------
# Parsers


def parse_dimacs_cnf(text: str) -> Cnf3:
    """DIMACS CNF: 'p cnf n m' header, 0-terminated clauses, 'c' comments."""
    num_vars = None
    num_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if num_vars is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(f"malformed header {line!r}", lineno)
            try:
                num_vars, num_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", lineno) from None
            continue
        if num_vars is None:
            raise ParseError("clause before header", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal {tok!r}", lineno) from None
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if num_vars is None:
        raise ParseError("missing 'p cnf' header", 1)
    if current:
        raise ParseError("unterminated clause at end of file", lineno)
    if num_clauses is not None and num_clauses != len(clauses):
        raise ParseError(
            f"header declares {num_clauses} clauses, found {len(clauses)}", 1)
    return Cnf3(num_vars, tuple(clauses))


def parse_edge_list(text: str):
    """Edge list 'u v' per line; optional 'part u i' lines make it partitioned.

    Vertex names are arbitrary tokens, numbered in order of first
    appearance.  Returns a Graph, or a PartitionedGraph when part lines are
    present (every vertex must then be assigned to a part).
    """
    names: dict[str, int] = {}

    def vertex(tok: str) -> int:
        if tok not in names:
            names[tok] = len(names)
        return names[tok]

    edges = []
    assignment: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "part":
            if len(fields) != 3:
                raise ParseError("part lines are 'part <vertex> <index>'", lineno)
            try:
                part = int(fields[2])
            except ValueError:
                raise ParseError(f"bad part index {fields[2]!r}", lineno) from None
            assignment[vertex(fields[1])] = part
        elif len(fields) == 2:
            u, v = vertex(fields[0]), vertex(fields[1])
            if u == v:
                raise ParseError(f"self-loop at {fields[0]!r}", lineno)
            edges.append((u, v))
        else:
            raise ParseError(f"expected 'u v' or 'part u i', got {line!r}", lineno)

    n = len(names)
    if not assignment:
        return make_graph(n, edges)
    missing = [v for v in range(n) if v not in assignment]
    if missing:
        raise ParseError(f"vertices without a part assignment: {missing}")
    indices = sorted(set(assignment.values()))
    parts = tuple(tuple(v for v in range(n) if assignment[v] == i) for i in indices)
    return make_partitioned_graph(parts, edges)
