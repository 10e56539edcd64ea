"""Front-end reductions into pseudo-projection MaxCover, plus input parsers.

The clique front-end turns a partitioned graph with independent parts into
a MaxCover instance with one left super-node per part pair (the cross
edges) and one right super-node per part (the vertices).  The 3-SAT
front-end splits the clauses into k near-equal groups and uses satisfying
partial assignments as labels; it enumerates a group's assignments as
integers and tests each clause as a pair of bit masks.  Both outputs have
the pseudo-projection property and value 1 exactly on YES inputs.  Both
build their instance from each label's part-local neighbor masks
(MaxCoverInstance.from_masks), the instance's one layout; neither
computes a global W id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def clique_to_maxcover(graph: PartitionedGraph):
    """Colorful-clique to MaxCover: left super-nodes are cross-edge classes.

    Left super-node (i,j) holds the edges between parts i and j, in sorted
    edge order; right super-node i holds part i's vertices; an edge label
    meets exactly its two endpoints in their parts and everything elsewhere.
    An empty edge class means no colorful clique can exist, returned as a
    DecidedNo.
    """
    t = graph.t
    pair_list = list(combinations(range(t), 2))
    owner = graph._owner
    classes = {pair: [] for pair in pair_list}
    for u, v in sorted(graph.edges):
        if owner[u] > owner[v]:
            u, v = v, u
        classes[owner[u], owner[v]].append((u, v))
    empty = tuple(pair for pair in pair_list if not classes[pair])
    if empty:
        return DecidedNo("empty cross-edge class rules out a colorful clique", empty)

    pos = {w: p for part in graph.parts for p, w in enumerate(part)}
    full = [(1 << len(part)) - 1 for part in graph.parts]
    masks = []
    for i, j in pair_list:
        for u, v in classes[i, j]:
            row = full.copy()
            row[i], row[j] = 1 << pos[u], 1 << pos[v]
            masks.append(row)
    return MaxCoverInstance.from_masks(
        tuple(len(classes[pair]) for pair in pair_list),
        tuple(len(part) for part in graph.parts), masks,
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
    rank in W_J is its assignment's integer over the variables of J.  A
    clause is a pair of masks (pos, neg) of its positive and negated
    variables, and a satisfies it iff a & pos or ~a & neg.
    """
    if k < 1 or k > len(cnf.clauses):
        raise IndexRangeError(f"need 1 <= k <= number of clauses, got k={k}")
    occurrences = cnf.occurrences
    for var in range(1, cnf.num_vars + 1):
        if occurrences[var - 1] == 0:
            raise UnusedVariableError(f"variable {var} occurs in no clause")

    base, extra = divmod(len(cnf.clauses), k)
    cuts = [i * base + min(i, extra) for i in range(k + 1)]
    group_clauses = [cnf.clauses[a:b] for a, b in zip(cuts, cuts[1:])]
    group_vars = [tuple(sorted({abs(lit) for cl in clauses for lit in cl}))
                  for clauses in group_clauses]
    pattern = {var: tuple(i for i, gv in enumerate(group_vars) if var in gv)
               for var in range(1, cnf.num_vars + 1)}
    patterns_in_use = sorted(set(pattern.values()), key=lambda p: (len(p), p))
    omitted = sum(math.comb(k, size) for size in (1, 2, 3)) - len(patterns_in_use)
    s_vars = {p: tuple(sorted(v for v in pattern if pattern[v] == p))
              for p in patterns_in_use}

    w_parts = tuple(1 << len(s_vars[p]) for p in patterns_in_use)
    full = [(1 << size) - 1 for size in w_parts]
    v_parts, masks = [], []
    for i, (vars_i, clauses) in enumerate(zip(group_vars, group_clauses)):
        n = len(vars_i)
        bit = {var: 1 << (n - 1 - p) for p, var in enumerate(vars_i)}
        tests = []
        for clause in clauses:
            pos = neg = 0
            for lit in clause:
                if lit > 0:
                    pos |= bit[lit]
                else:
                    neg |= bit[-lit]
            tests.append((pos, neg))
        # a label is full on every W_J with i not in J; for the other
        # patterns, (j, bits) pairs each variable's bit in a with its bit
        # in the W_J rank
        projections = [(j, [(bit[var], 1 << (len(s_vars[p]) - 1 - b))
                            for b, var in enumerate(s_vars[p])])
                       for j, p in enumerate(patterns_in_use) if i in p]
        labels_before = len(masks)
        for a in range(1 << n):
            if all(a & pos or ~a & neg for pos, neg in tests):
                row = full.copy()
                for j, bits in projections:
                    row[j] = 1 << sum(out for src, out in bits if a & src)
                masks.append(row)
        v_parts.append(len(masks) - labels_before)
    provenance = (f"sat_frontend(n={cnf.num_vars}, m={len(cnf.clauses)}, k={k}, "
                  f"omitted_patterns={omitted})")
    return MaxCoverInstance.from_masks(v_parts, w_parts, masks, provenance=provenance)


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
