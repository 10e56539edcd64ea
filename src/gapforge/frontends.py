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
    ClauseWidthError,
    EmptyPartError,
    IndexRangeError,
    OccurrenceBoundError,
    ParseError,
    PartNotIndependentError,
    UnusedVariableError,
)
from .maxcover import MaxCoverInstance


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1; edges are sorted pairs."""

    num_vertices: int
    edges: frozenset

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise IndexRangeError(f"self-loop at vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise IndexRangeError(f"edge ({u},{v}) out of range")
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
        if sorted(seen) != list(range(len(seen))):
            raise IndexRangeError("parts must partition 0..m-1")
        if any(not part for part in self.parts):
            raise EmptyPartError("parts must be non-empty")
        table = [0] * len(seen)
        for i, part in enumerate(self.parts):
            for v in part:
                table[v] = i
        object.__setattr__(self, "_owner", tuple(table))
        owner = self.part_of
        for u, v in self.edges:
            if u == v or u > v:
                raise IndexRangeError(f"bad edge ({u},{v})")
            if owner(u) == owner(v):
                raise PartNotIndependentError(
                    f"edge ({u},{v}) lies inside part {owner(u)}")

    @property
    def num_vertices(self) -> int:
        return sum(len(p) for p in self.parts)

    @property
    def t(self) -> int:
        return len(self.parts)

    def part_of(self, v: int) -> int:
        if not 0 <= v < len(self._owner):
            raise IndexRangeError(f"vertex {v} not in any part")
        return self._owner[v]

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
    has a t-clique.
    """
    n = graph.num_vertices
    parts = tuple(tuple(range(i * n, (i + 1) * n)) for i in range(t))
    edges = set()
    for u, v in graph.edges:
        for i in range(t):
            for j in range(i + 1, t):
                edges.add((i * n + u, j * n + v))
                edges.add((i * n + v, j * n + u))
    return PartitionedGraph(parts, frozenset(edges))


def _check_clique_parts(t: int) -> None:
    """The clique front-end needs t >= 2 parts: a left super-node per part pair."""
    if t < 2:
        raise IndexRangeError(f"the clique front-end needs t >= 2 parts, got t={t}")


def clique_to_maxcover(graph: PartitionedGraph):
    """Colorful-clique to MaxCover: left super-nodes are cross-edge classes.

    Left super-node (i,j) holds the edges between parts i and j, in sorted
    edge order; right super-node i holds part i's vertices; an edge label
    meets exactly its two endpoints in their parts and everything elsewhere.
    Its row is the all-ones row of the other parts with the endpoints'
    bits in fields i and j.  An empty edge class means no colorful clique
    can exist, returned as a DecidedNo.  A graph needs t >= 2 parts.
    """
    t = graph.t
    _check_clique_parts(t)
    # bit[w] is w's bit in a row: its rank in its part, in that part's field
    owner = graph._owner
    bit, fields, num_w = [0] * len(owner), [], 0
    for part in graph.parts:
        for p, w in enumerate(part):
            bit[w] = 1 << (num_w + p)
        fields.append(((1 << len(part)) - 1) << num_w)
        num_w += len(part)
    pair_list = list(combinations(range(t), 2))
    # class (i, j): the row of every other part, and the labels' rows
    classes = {(i, j): ((1 << num_w) - 1 ^ fields[i] ^ fields[j], [])
               for i, j in pair_list}
    for u, v in sorted(graph.edges):
        i, j = owner[u], owner[v]
        others, rows = classes[(i, j) if i < j else (j, i)]
        rows.append(others | bit[u] | bit[v])
    empty = tuple(pair for pair in pair_list if not classes[pair][1])
    if empty:
        return DecidedNo("empty cross-edge class rules out a colorful clique", empty)
    return MaxCoverInstance._from_rows(
        tuple(len(classes[pair][1]) for pair in pair_list),
        tuple(len(part) for part in graph.parts),
        [row for pair in pair_list for row in classes[pair][1]],
        provenance=f"clique_frontend(m={graph.num_vertices}, t={t})")


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
        for c, clause in enumerate(self.clauses):
            if len(clause) > 3:
                raise ClauseWidthError(f"clause {c} has {len(clause)} literals")
            if not clause:
                raise ClauseWidthError(f"clause {c} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise IndexRangeError(f"literal {lit} out of range in clause {c}")
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


def _satisfying(clauses, bit, n: int) -> list[int]:
    """Every a in [0, 2**n) satisfying all clauses, in increasing a.

    Variable var is bit bit[var] of a.  A block fixes the high bits
    h = a >> w, w = min(n, _BLOCK_BITS), and holds one truth table over the
    2**w low bits: a clause is everything when one of its high literals is
    true under h and otherwise the OR of its low literals' tables, and the
    block's satisfying set is the AND of its clauses.  Set bits are read a
    byte at a time through _SET_BITS.
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
    labels = []
    for high in range(1 << n - w):
        sat = always
        for pos, neg, table in split:
            if not (high & pos or ~high & neg):
                sat &= table
        if sat:
            block = high << w
            for index, byte in enumerate(sat.to_bytes(num_bytes, "little")):
                if byte:
                    first = block | index << 3
                    labels += [first | p for p in _SET_BITS[byte]]
    return labels


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
    """
    if k < 1 or k > len(cnf.clauses):
        raise IndexRangeError(f"need 1 <= k <= number of clauses, got k={k}")
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
    all_ones = (1 << sum(w_parts)) - 1
    v_parts, rows = [], []
    for i, (vars_i, clauses) in enumerate(zip(group_vars, group_clauses)):
        n = len(vars_i)
        bit = {var: n - 1 - p for p, var in enumerate(vars_i)}
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
        labels = _satisfying(clauses, bit, n)
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
                if len(current) > 3:
                    raise ClauseWidthError(
                        f"clause {len(clauses)} has {len(current)} literals")
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
