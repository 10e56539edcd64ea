"""Independent brute-force oracles used to cross-check every reduction.

Each oracle recomputes an answer from first principles along a different
code path than the solver or composition it checks, so a bug in one side
cannot hide in the other.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from . import threshold
from .codes import Code
from .frontends import Cnf3, DecidedNo, PartitionedGraph
from .maxcover import FULL, PROJECTION, VIOLATION, MaxCoverInstance
from .setcover import SetCoverInstance


def has_colorful_clique(graph: PartitionedGraph) -> bool:
    """One vertex per part, pairwise adjacent, by full product enumeration."""
    for choice in product(*graph.parts):
        if all(graph.has_edge(u, v)
               for i, u in enumerate(choice) for v in choice[i + 1:]):
            return True
    return False


def cnf_satisfiable(cnf: Cnf3) -> bool:
    """2**n assignment enumeration."""
    for bits in product((0, 1), repeat=cnf.num_vars):
        assignment = {v: bits[v - 1] for v in range(1, cnf.num_vars + 1)}
        if all(any(assignment[abs(lit)] == (lit > 0) for lit in clause)
               for clause in cnf.clauses):
            return True
    return False


def clique_to_maxcover_reference(graph: PartitionedGraph):
    """The clique front-end from its definition, built as a plain edge list.

    Label (u, v) of class (i, j), taken in sorted edge order, meets u in
    W_i, v in W_j and every vertex of the other parts.  Global ids follow
    the part order and each part's vertex order.  Goes through the public
    edge-list constructor only.
    """
    t = graph.t
    classes = []
    for i, j in combinations(range(t), 2):
        cls = []
        for u, v in sorted(graph.edges):
            if u in graph.parts[j] and v in graph.parts[i]:
                u, v = v, u
            if u in graph.parts[i] and v in graph.parts[j]:
                cls.append((u, v))
        classes.append(((i, j), cls))
    empty = tuple(pair for pair, cls in classes if not cls)
    if empty:
        return DecidedNo("reference: empty cross-edge class", empty)
    num_v = sum(len(cls) for _, cls in classes)
    w_ids = {}
    for p, part in enumerate(graph.parts):
        for w in part:
            w_ids[p, w] = num_v + len(w_ids)
    edges = []
    labels = [(pair, label) for pair, cls in classes for label in cls]
    for vg, ((i, j), (u, v)) in enumerate(labels):
        for (p, w), wg in w_ids.items():
            if (p == i and w == u) or (p == j and w == v) or p not in (i, j):
                edges.append((vg, wg))
    return MaxCoverInstance([len(cls) for _, cls in classes],
                            [len(part) for part in graph.parts], edges,
                            provenance=f"clique_frontend(m={graph.num_vertices}, t={t})")


def sat_to_maxcover_reference(cnf: Cnf3, k: int) -> MaxCoverInstance:
    """The 3-SAT front-end from its definition, built as a plain edge list.

    Group i takes the next ceil or floor of m/k clauses (the larger groups
    first); its labels are the satisfying assignments to its variables in
    product order.  W_J lists every assignment to the variables whose set of
    groups is exactly J, with patterns ordered by size and then
    lexicographically.  A label meets the W_J members that agree with it,
    or all of them when its group is not in J.  Goes through the public
    edge-list constructor only.
    """
    m = len(cnf.clauses)
    groups, start = [], 0
    for i in range(k):
        size = m // k + (i < m % k)
        groups.append(cnf.clauses[start:start + size])
        start += size
    group_vars = [sorted({abs(lit) for clause in g for lit in clause}) for g in groups]
    pattern = {var: tuple(i for i in range(k) if var in group_vars[i])
               for var in range(1, cnf.num_vars + 1)}
    patterns = sorted(set(pattern.values()), key=lambda p: (len(p), p))
    omitted = sum(1 for size in (1, 2, 3) for p in combinations(range(k), size)
                  if p not in patterns)
    pattern_vars = [[var for var in sorted(pattern) if pattern[var] == p] for p in patterns]
    labels = []
    for i, g in enumerate(groups):
        literals = [[(abs(lit), lit > 0) for lit in clause] for clause in g]
        for bits in product((0, 1), repeat=len(group_vars[i])):
            value = dict(zip(group_vars[i], bits))
            if all(any(value[var] == positive for var, positive in clause)
                   for clause in literals):
                labels.append((i, value))
    w_members = [list(product((0, 1), repeat=len(vs))) for vs in pattern_vars]
    # each label agrees with one member of W_J when its group is in J
    positions = [{member: n for n, member in enumerate(members)} for members in w_members]
    num_v = len(labels)
    edges = []
    for vg, (i, value) in enumerate(labels):
        wg = num_v
        for p, vs, members, position in zip(patterns, pattern_vars, w_members, positions):
            if i in p:
                edges.append((vg, wg + position[tuple(value[var] for var in vs)]))
            else:
                edges.extend((vg, wg + n) for n in range(len(members)))
            wg += len(members)
    return MaxCoverInstance([sum(1 for i, _ in labels if i == g) for g in range(k)],
                            [len(members) for members in w_members], edges,
                            provenance=f"sat_frontend(n={cnf.num_vars}, m={m}, k={k}, "
                                       f"omitted_patterns={omitted})")


def maxcover_value_recount(instance: MaxCoverInstance) -> Fraction:
    """Recompute the MaxCover value from the raw edge list.

    Builds neighbor sets per (vertex, right part) from scratch and counts
    coverage by set intersection, independently of the bitmask solver.
    """
    num_v = instance.num_v
    neighbor_sets: dict[tuple[int, int], set[int]] = {}
    for vg, wg in instance.edges:
        j, _ = instance.w_part_of(wg)
        neighbor_sets.setdefault((vg, j), set()).add(wg)
    sizes = instance.v_parts
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    best = 0
    if any(s == 0 for s in sizes):
        return Fraction(0)
    for labeling in product(*(range(s) for s in sizes)):
        covered = 0
        for j in range(instance.t):
            common = None
            for i, rank in enumerate(labeling):
                nbrs = neighbor_sets.get((offsets[i] + rank, j), set())
                common = set(nbrs) if common is None else common & nbrs
                if not common:
                    break
            if common:
                covered += 1
        best = max(best, covered)
    return Fraction(best, instance.t)


def projection_profile_by_adjacency(instance):
    """The projection profile's entries from their definition, by adjacent().

    Counts the W_j neighbours of every V_i vertex one adjacent() call at a
    time: PROJECTION when every count is 1, FULL when every count is |W_j|
    or V_i is empty, VIOLATION otherwise.  Reads the part sizes and
    adjacent() only, so it serves explicit and composed instances alike.
    """
    entries = []
    v_off = 0
    for vi in instance.v_parts:
        row = []
        w_off = instance.num_v
        for wj in instance.w_parts:
            degrees = {sum(instance.adjacent(vg, w_off + p) for p in range(wj))
                       for vg in range(v_off, v_off + vi)}
            if degrees == {1}:
                row.append(PROJECTION)
            elif degrees <= {wj}:
                row.append(FULL)
            else:
                row.append(VIOLATION)
            w_off += wj
        entries.append(tuple(row))
        v_off += vi
    return tuple(entries)


def composed_adjacent_bruteforce(base: MaxCoverInstance, code: Code, matching,
                                 vg: int, l: int, tup) -> bool:
    """The composed edge rule straight from its existential definition.

    v is adjacent to (l, tup) iff some tuple (w_1..w_t) in W_1 x..x W_t has
    v adjacent to every w_j in the base instance and the threshold-graph
    vertex (l, tup) adjacent to every matched codeword.
    """
    ranges = [range(s) for s in base.w_parts]
    for choice in product(*ranges):
        ok = True
        for j, wr in enumerate(choice):
            if not base.adjacent(vg, base.w_global(j, wr)):
                ok = False
                break
            word = code.codeword(matching[j][wr])
            if word[l] != tup[j]:
                ok = False
                break
        if ok:
            return True
    return False


def relative_distance_pairs(code: Code):
    """(delta, witness) by a Hamming count over every pair of code.table().

    Pairs run in itertools.combinations order; the witness is the first
    pair of message ranks at the minimum distance.
    """
    table = code.table()
    differ, witness = min((sum(x != y for x, y in zip(table[a], table[b])), (a, b))
                          for a, b in combinations(range(len(table)), 2))
    return Fraction(differ, code.ell), witness


def collision_number_bruteforce(code: Code, size_cap: int | None = None):
    """Col(code) by enumerating subsets of message ranks in full.

    Returns (value, status, witness, subsets_examined) in the terms of
    codes.CollisionReport.  Infinite when some coordinate takes pairwise
    distinct values over the whole code.  Otherwise every subset of size
    2..size_cap (default |C|) is tried in itertools.combinations order and
    the first whose column at every coordinate repeats a symbol is the
    witness; subsets_examined counts the subsets tried.
    """
    table = code.table()
    n = len(table)
    columns = [[word[i] for word in table] for i in range(code.ell)]
    if any(len(set(column)) == n for column in columns):
        return float("inf"), "infinite", None, 0
    examined = 0
    for size in range(2, min(n if size_cap is None else size_cap, n) + 1):
        for subset in combinations(range(n), size):
            examined += 1
            if all(len({column[m] for m in subset}) < size for column in columns):
                return size, "finite", subset, examined
    return None, "unknown_above", None, examined


def covered_by_scan(composed, labeling, l: int) -> bool:
    """Coverage of one composed part by scanning all its q**t vertices."""
    num_v = composed.num_v
    a_size = composed.w_parts[l]
    offsets = [0]
    for s in composed.v_parts:
        offsets.append(offsets[-1] + s)
    labels = [offsets[i] + r for i, r in enumerate(labeling)]
    base_w = num_v + sum(composed.w_parts[:l])
    return any(all(composed.adjacent(vg, base_w + rank) for vg in labels)
               for rank in range(a_size))


def setcover_covers_bruteforce(composed, refs) -> bool:
    """Cover check by iterating every composed universe element.

    Decides membership by definition (setcover_first_uncovered), so it
    reads only the base sets, the code and the matching.
    """
    return setcover_first_uncovered(composed, refs) is None


def setcover_member(composed, ref, element) -> bool:
    """Membership of element (i, f) in the composed set of ref, by definition.

    (i, f) is in the composed set of S, set idx of collection j, iff some a
    in [q]**k, at position pos of the lexicographic order, has a_j equal to
    coordinate i of S's matched codeword and f[pos] in S.  Reads only the
    base sets, the code and the matching.
    """
    base, code = composed.base, composed.code
    j, idx = ref
    i, f = element
    symbol = code.codeword(composed.matching[j][idx])[i]
    return any(a[j] == symbol and f[pos] in base.collections[j][idx]
               for pos, a in enumerate(product(range(code.q), repeat=base.k)))


def setcover_first_uncovered(composed, refs):
    """First composed universe element no ref contains, or None.

    Walks parts in order and f : A_i -> U lexicographically, and decides
    membership from the definition: (i, f) is in the set S of collection j
    iff some a in [q]**k has a_j equal to coordinate i of S's matched
    codeword and f(a) in S.  Reads only the base sets, the code and the
    matching.
    """
    base, code = composed.base, composed.code
    vertices = list(product(range(code.q), repeat=base.k))
    for i in range(code.ell):
        adjacent = []
        for j, idx in refs:
            symbol = code.codeword(composed.matching[j][idx])[i]
            positions = [pos for pos, a in enumerate(vertices) if a[j] == symbol]
            adjacent.append((base.collections[j][idx], positions))
        for f in product(range(base.universe_size), repeat=len(vertices)):
            if not any(f[pos] in s for s, positions in adjacent for pos in positions):
                return (i, f)
    return None


def setcover_min_cover_bruteforce(instance, cap: int):
    """First minimum cover of at most cap sets as (size, refs), or (None, None).

    Tries combinations of (collection, index) refs in increasing size.  A
    SetCoverInstance decides each by plain frozenset unions, a composition
    by setcover_first_uncovered.
    """
    if isinstance(instance, SetCoverInstance):
        collections, universe = instance.collections, frozenset(range(instance.universe_size))

        def covers(combo):
            return frozenset().union(*(collections[j][idx] for j, idx in combo)) == universe
    else:
        collections = instance.base.collections

        def covers(combo):
            return setcover_first_uncovered(instance, combo) is None
    refs = [(j, idx) for j, coll in enumerate(collections) for idx in range(len(coll))]
    for size in range(1, cap + 1):
        for combo in combinations(refs, size):
            if covers(combo):
                return size, combo
    return None, None


def collision_min_x_by_adjacency(graph, collision_cap: int):
    """Smallest |X| < collision_cap meeting the collision hypothesis, or None.

    X runs over the subsets of the B-vertices (j, m), in increasing size
    from t + 1 and in itertools.combinations order within a size.  X meets
    the hypothesis iff every A_i holds a vertex with at least t + 1
    neighbours in X.  The graph is read through threshold.adjacent() only,
    once per (B-vertex, A-vertex) pair, and the neighbours of X are counted
    vertex by vertex; no codeword is read.
    """
    code, t, ell = graph.code, graph.t, graph.ell
    vertices = list(product(range(code.q), repeat=t))
    b_vertices = [(j, m) for j in range(t) for m in range(code.size)]
    # neighbours[b][i]: the A_i vertices adjacent to B-vertex b
    neighbours = [[[u for u in vertices if threshold.adjacent(graph, b, (i, u))]
                   for i in range(ell)] for b in b_vertices]
    for size in range(t + 1, collision_cap):
        for x in combinations(range(len(b_vertices)), size):
            if all(max(Counter(u for b in x for u in neighbours[b][i]).values(), default=0)
                   >= t + 1 for i in range(ell)):
                return size
    return None


def threshold_verdict_bruteforce(graph):
    """Completeness and soundness of a threshold graph through adjacent() alone.

    Returns (counterexample, max_shared, matches).  counterexample is the
    first case (ranks, i), in verify_threshold's exhaustive order, whose A_i
    vertices adjacent to every (j, ranks[j]) are not exactly the answer of
    threshold.common_neighbor, as (ranks, i, hits); None if there is none.
    max_shared is the largest number of parts A_i holding a common neighbor
    of (j, m1) and (j, m2) over every j and pair m1 < m2; matches says
    whether each such count equals the pair's coordinate agreements, which
    are the only values read from the code's codewords.
    """
    code, t, ell = graph.code, graph.t, graph.ell
    vertices = list(product(range(code.q), repeat=t))
    counterexample = None
    for ranks, i in product(product(range(code.size), repeat=t), range(ell)):
        hits = [u for u in vertices
                if all(threshold.adjacent(graph, (j, m), (i, u))
                       for j, m in enumerate(ranks))]
        if hits != [threshold.common_neighbor(graph, ranks, i)[1]]:
            counterexample = (ranks, i, tuple(hits))
            break
    max_shared = 0
    matches = True
    for m1, m2 in combinations(range(code.size), 2):
        agreements = sum(a == b for a, b in zip(code.codeword(m1), code.codeword(m2)))
        for j in range(t):
            shared = sum(any(threshold.adjacent(graph, (j, m1), (i, u))
                             and threshold.adjacent(graph, (j, m2), (i, u))
                             for u in vertices)
                         for i in range(ell))
            matches = matches and shared == agreements
            max_shared = max(max_shared, shared)
    return counterexample, max_shared, matches
