"""Front-end reductions into pseudo-projection MaxCover, plus input parsers.

The clique front-end turns a partitioned graph with independent parts into
a MaxCover instance with one left super-node per part pair (the cross
edges) and one right super-node per part (the vertices).  The 3-SAT
front-end splits the clauses into k near-equal groups and uses satisfying
partial assignments as labels.  Both outputs have the pseudo-projection
property and value 1 exactly on YES inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .errors import (
    ClauseWidthError,
    EmptyPartError,
    IndexRangeError,
    OccurrenceBoundError,
    ParseError,
    PartNotIndependentError,
    UnusedVariableError,
)
from .maxcover import MaxCoverInstance, _offsets


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

    def cross_edges(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Edges between parts i and j, ordered (part-i vertex, part-j vertex)."""
        pi, pj = set(self.parts[i]), set(self.parts[j])
        out = []
        for u, v in sorted(self.edges):
            if u in pi and v in pj:
                out.append((u, v))
            elif v in pi and u in pj:
                out.append((v, u))
        return tuple(out)


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

    Left super-node (i,j) holds the edges between parts i and j; right
    super-node i holds part i's vertices; an edge label meets exactly its
    two endpoints in their parts and everything elsewhere.  An empty edge
    class means no colorful clique can exist, returned as a DecidedNo.
    """
    t = graph.t
    pair_list = list(combinations(range(t), 2))
    classes = {pair: graph.cross_edges(*pair) for pair in pair_list}
    empty = tuple(pair for pair in pair_list if not classes[pair])
    if empty:
        return DecidedNo("empty cross-edge class rules out a colorful clique", empty)

    v_parts = tuple(len(classes[pair]) for pair in pair_list)
    w_parts = tuple(len(part) for part in graph.parts)
    num_v = sum(v_parts)
    w_offsets = _offsets(w_parts)

    def w_global(part: int, vertex: int) -> int:
        return num_v + w_offsets[part] + graph.parts[part].index(vertex)

    edges = []
    vg = 0
    for (i, j), cls in ((pair, classes[pair]) for pair in pair_list):
        for u, v in cls:
            for part in range(t):
                if part == i:
                    edges.append((vg, w_global(i, u)))
                elif part == j:
                    edges.append((vg, w_global(j, v)))
                else:
                    for w in graph.parts[part]:
                        edges.append((vg, w_global(part, w)))
            vg += 1
    provenance = f"clique_frontend(m={graph.num_vertices}, t={t})"
    return MaxCoverInstance(v_parts, w_parts, edges, provenance=provenance)


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


def _clause_blocks(num_clauses: int, k: int) -> list[tuple[int, int]]:
    """Contiguous blocks of sizes ceil(m/k) then floor(m/k)."""
    base, extra = divmod(num_clauses, k)
    blocks = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        blocks.append((start, start + size))
        start += size
    return blocks


def _satisfies(clause, assignment: dict[int, int]) -> bool:
    return any(assignment[abs(lit)] == (1 if lit > 0 else 0) for lit in clause)


def sat_to_maxcover(cnf: Cnf3, k: int) -> MaxCoverInstance:
    """3-SAT to MaxCover: labels are group-satisfying partial assignments.

    Clauses are split into k contiguous near-equal groups.  Left super-node
    i holds every assignment to the variables of group i satisfying all its
    clauses.  For each non-empty occurrence pattern J (the exact set of
    groups a variable appears in, 1 <= |J| <= 3), right super-node W_J holds
    all assignments to those variables; group labels meet their consistent
    restriction (i in J) or everything (i not in J).  Patterns with no
    variables are omitted and recorded in the provenance.
    """
    if k < 1 or k > len(cnf.clauses):
        raise IndexRangeError(f"need 1 <= k <= number of clauses, got k={k}")
    occurrences = cnf.occurrences
    for var in range(1, cnf.num_vars + 1):
        if occurrences[var - 1] == 0:
            raise UnusedVariableError(f"variable {var} occurs in no clause")

    blocks = _clause_blocks(len(cnf.clauses), k)
    group_clauses = [cnf.clauses[a:b] for a, b in blocks]
    group_vars = [tuple(sorted({abs(lit) for cl in clauses for lit in cl}))
                  for clauses in group_clauses]

    pattern: dict[int, tuple[int, ...]] = {}
    for var in range(1, cnf.num_vars + 1):
        groups = tuple(i for i, gv in enumerate(group_vars) if var in gv)
        pattern[var] = groups

    patterns_in_use = sorted({p for p in pattern.values()}, key=lambda p: (len(p), p))
    omitted = [p for p in _all_patterns(k) if p not in patterns_in_use]
    s_vars = {p: tuple(sorted(v for v in pattern if pattern[v] == p))
              for p in patterns_in_use}

    v_vertices = []
    for i in range(k):
        vars_i = group_vars[i]
        sat = []
        for bits in product((0, 1), repeat=len(vars_i)):
            assignment = dict(zip(vars_i, bits))
            if all(_satisfies(cl, assignment) for cl in group_clauses[i]):
                sat.append(bits)
        v_vertices.append(sat)

    w_vertices = [list(product((0, 1), repeat=len(s_vars[p]))) for p in patterns_in_use]

    v_parts = tuple(len(vs) for vs in v_vertices)
    w_parts = tuple(len(ws) for ws in w_vertices)
    num_v = sum(v_parts)
    v_offsets = _offsets(v_parts)
    w_offsets = _offsets(w_parts)

    edges = []
    for i in range(k):
        vars_i = group_vars[i]
        index_of = {v: pos for pos, v in enumerate(vars_i)}
        for vr, bits in enumerate(v_vertices[i]):
            vg = v_offsets[i] + vr
            for jp, p in enumerate(patterns_in_use):
                if i in p:
                    restriction = tuple(bits[index_of[v]] for v in s_vars[p])
                    wr = w_vertices[jp].index(restriction)
                    edges.append((vg, num_v + w_offsets[jp] + wr))
                else:
                    for wr in range(w_parts[jp]):
                        edges.append((vg, num_v + w_offsets[jp] + wr))
    provenance = (f"sat_frontend(n={cnf.num_vars}, m={len(cnf.clauses)}, k={k}, "
                  f"omitted_patterns={len(omitted)})")
    return MaxCoverInstance(v_parts, w_parts, edges, provenance=provenance)


def _all_patterns(k: int):
    out = []
    for size in (1, 2, 3):
        if size <= k:
            out.extend(combinations(range(k), size))
    return out


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
