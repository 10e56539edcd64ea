import random
from itertools import combinations, product

import pytest

import gapforge as gf
from gapforge import frontends, oracles
from gapforge.errors import (
    DEFAULT_UNIVERSE_CAP,
    CapExceededError,
    ClauseWidthError,
    EmptyPartError,
    IndexRangeError,
    OccurrenceBoundError,
    ParseError,
    PartNotIndependentError,
    UnusedVariableError,
)
from gapforge.generators import enumerate_partitioned_graphs, random_cnf3


def triangle():
    return gf.make_partitioned_graph([(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)])


class TestCliqueFrontend:
    def test_triangle(self):
        inst = gf.clique_to_maxcover(triangle())
        assert (inst.k, inst.t) == (3, 3)
        assert gf.maxcover_value(inst).value == 1

    def test_path_decided_no(self):
        path = gf.make_partitioned_graph([(0,), (1,), (2,)], [(0, 1), (1, 2)])
        result = gf.clique_to_maxcover(path)
        assert isinstance(result, gf.DecidedNo)
        assert result.empty_classes == ((0, 2),)

    def test_four_cycle_two_parts(self):
        c4 = gf.make_partitioned_graph([(0, 1), (2, 3)], [(0, 2), (2, 1), (1, 3), (3, 0)])
        inst = gf.clique_to_maxcover(c4)
        assert inst.k == 1
        assert gf.maxcover_value(inst).value == 1

    def test_parts_must_be_independent(self):
        with pytest.raises(PartNotIndependentError):
            gf.make_partitioned_graph([(0, 1), (2,)], [(0, 1)])

    def test_pseudo_projection_always(self):
        rng = random.Random(4)
        for _ in range(20):
            g = _random_partitioned(rng)
            result = gf.clique_to_maxcover(g)
            if isinstance(result, gf.DecidedNo):
                continue
            assert gf.projection_profile(result).is_pseudo_projection

    def test_equivalence_small_corpus(self):
        rng = random.Random(11)
        for _ in range(60):
            g = _random_partitioned(rng)
            oracle = oracles.has_colorful_clique(g)
            result = gf.clique_to_maxcover(g)
            if isinstance(result, gf.DecidedNo):
                assert not oracle
            else:
                assert (gf.maxcover_value(result).value == 1) == oracle

    def test_size_bound_m_cubed(self):
        rng = random.Random(12)
        for _ in range(20):
            g = _random_partitioned(rng)
            result = gf.clique_to_maxcover(g)
            if isinstance(result, gf.DecidedNo):
                continue
            m = g.num_vertices
            assert result.num_v + result.num_w + len(result.edges) <= m ** 3


def _random_partitioned(rng, max_m: int = 7):
    m = rng.randint(3, max_m)
    sizes = []
    remaining = m
    for i in range(3):
        left = 3 - i - 1
        s = rng.randint(1, remaining - left) if left else remaining
        sizes.append(s)
        remaining -= s
    parts = []
    start = 0
    for s in sizes:
        parts.append(tuple(range(start, start + s)))
        start += s
    pairs = [(u, v) for a, b in combinations(range(3), 2)
             for u in parts[a] for v in parts[b]]
    edges = [p for p in pairs if rng.random() < 0.6]
    return gf.make_partitioned_graph(parts, edges)


def _frontend_view(result):
    """What a front-end hands on: the instance's fields, or the empty classes."""
    if isinstance(result, gf.DecidedNo):
        return ("decided_no", result.empty_classes)
    return (result.v_parts, result.w_parts, result.edges, result.provenance)


def _chain(n, extra=None):
    """x_1 -> x_2 -> ... -> x_n as 2-clauses, then the extra clause if given."""
    clauses = tuple((-v, v + 1) for v in range(1, n))
    return gf.Cnf3(n, clauses + ((extra,) if extra else ()))


def _hand_graphs():
    rng = random.Random(8)
    graphs = [triangle(),
              gf.make_partitioned_graph([(0,), (1,), (2,)], [(0, 1), (1, 2)]),
              gf.make_partitioned_graph([(0, 1), (2, 3)], [(0, 2), (2, 1), (1, 3), (3, 0)]),
              gf.colorful_lift(gf.make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), 3),
              gf.make_partitioned_graph(
                  [(0, 1), (2, 3), (4, 5)],
                  [(u, v) for a, b in ((0, 2), (0, 4), (2, 4))
                   for u in (a, a + 1) for v in (b, b + 1)])]
    # parts out of vertex order, so edges run from a later part to an earlier one
    for _ in range(10):
        m = rng.randint(4, 8)
        order = rng.sample(range(m), m)
        a, b = sorted(rng.sample(range(1, m), 2))
        parts = [order[b:], order[:a], order[a:b]]
        owner = {v: i for i, part in enumerate(parts) for v in part}
        edges = [(u, v) for u, v in combinations(range(m), 2)
                 if owner[u] != owner[v] and rng.random() < 0.7]
        graphs.append(gf.make_partitioned_graph(parts, edges))
    return graphs


class TestReferenceFrontends:
    """Both front-ends against the edge-list references in oracles."""

    def test_criterion_10_corpus_slice(self):
        for index, graph in enumerate(enumerate_partitioned_graphs(7, 3)):
            if index % 50 == 0:
                assert _frontend_view(gf.clique_to_maxcover(graph)) == _frontend_view(
                    oracles.clique_to_maxcover_reference(graph)), index

    def test_hand_graphs(self):
        for graph in _hand_graphs():
            assert _frontend_view(gf.clique_to_maxcover(graph)) == _frontend_view(
                oracles.clique_to_maxcover_reference(graph))

    @pytest.mark.parametrize("cnf,k", [
        (gf.Cnf3(1, ((1,), (-1,))), 2),
        (gf.Cnf3(2, ((1,), (2,))), 2),
        (gf.Cnf3(2, ((1,), (2,))), 1),
        (gf.Cnf3(8, ((1,), *((-v, v + 1) for v in range(1, 8)), (-8, -1))), 2),
        (gf.Cnf3(8, ((1,), *((-v, v + 1) for v in range(1, 8)), (-8, -1))), 3),
        (gf.Cnf3(3, ((1, -2, 3), (-1, 2), (2, -3), (-1, 3))), 3),
    ])
    def test_hand_cnfs(self, cnf, k):
        assert _frontend_view(gf.sat_to_maxcover(cnf, k)) == _frontend_view(
            oracles.sat_to_maxcover_reference(cnf, k))

    @pytest.mark.parametrize("cnf,width", [
        (gf.Cnf3(1, ((1, -1),)), 1),                   # tautological clause
        (gf.Cnf3(2, ((1, 1, -2), (-1, 2))), 2),        # duplicate literal
        (gf.Cnf3(3, ((1, -1, 2), (-2, 3), (3, -3))), 3),
        (_chain(3), 3),
        (_chain(8, (1, -5)), 8),
        (_chain(9, (1, -5, 9)), 9),
        (_chain(17, (1, -9)), 17),                     # two blocks of 2**16
    ])
    def test_group_widths(self, cnf, width):
        assert cnf.num_vars == width
        m = len(cnf.clauses)
        for k in sorted({1, min(2, m), m}):
            inst = gf.sat_to_maxcover(cnf, k)
            assert _frontend_view(inst) == _frontend_view(
                oracles.sat_to_maxcover_reference(cnf, k)), k
        # k = 1 is one group over every variable
        assert gf.sat_to_maxcover(cnf, 1).w_parts == (1 << width,)

    def test_unsatisfiable_group_leaves_empty_part(self):
        cnf = gf.Cnf3(2, ((1,), (-1,), (2,)))
        for k in (1, 2, 3):
            inst = gf.sat_to_maxcover(cnf, k)
            assert _frontend_view(inst) == _frontend_view(
                oracles.sat_to_maxcover_reference(cnf, k))
        assert gf.sat_to_maxcover(cnf, 1).v_parts == (0,)
        assert gf.sat_to_maxcover(cnf, 2).v_parts == (0, 1)

    def test_random_cnfs(self):
        # the second batch spans the benchmark's CNFs, up to 12 variables
        compared = empty_parts = wide = 0
        for seed, max_vars, count in ((1003, 8, 150), (1206, 12, 200)):
            rng = random.Random(seed)
            for _ in range(count):
                cnf = random_cnf3(rng, max_vars=max_vars)
                wide += cnf.num_vars > 8
                for k in (1, 2, 3):
                    if k > len(cnf.clauses):
                        with pytest.raises(IndexRangeError):
                            gf.sat_to_maxcover(cnf, k)
                        continue
                    compared += 1
                    inst = gf.sat_to_maxcover(cnf, k)
                    empty_parts += 0 in inst.v_parts
                    assert _frontend_view(inst) == _frontend_view(
                        oracles.sat_to_maxcover_reference(cnf, k))
        assert compared > 550 and wide
        # a group with no satisfying assignment leaves its V part empty
        assert empty_parts


def _runs_on_shared_partitions():
    """Runs of graphs on one partition each, back to back: parts in and out
    of vertex order, DecidedNo graphs among them, and lifts of plain graphs."""
    rng = random.Random(33)
    partitions = [[(0, 1), (2, 3), (4,)], [(4, 1), (0, 3), (2,)], [(3,), (0, 2), (1, 4)],
                  [(5, 0), (3, 1), (4, 2)], [(1, 2, 0), (3,)]]
    runs = []
    for parts in partitions:
        owner = {v: i for i, part in enumerate(parts) for v in part}
        cross = [(u, v) for u, v in combinations(sorted(owner), 2) if owner[u] != owner[v]]
        run = [gf.make_partitioned_graph(parts, [e for e in cross if rng.random() < p])
               for p in (0.8, 0.5, 0.9, 0.2, 1.0, 0.7)]
        # no edge between parts 0 and 1: an empty class, then a full graph
        run.append(gf.make_partitioned_graph(
            parts, [(u, v) for u, v in cross if {owner[u], owner[v]} != {0, 1}]))
        run.append(gf.make_partitioned_graph(parts, cross))
        runs.append(run)
    plain = [gf.make_graph(4, [e for e in combinations(range(4), 2) if rng.random() < p])
             for p in (0.9, 0.6, 0.4, 1.0)]
    runs.append([gf.colorful_lift(graph, 3) for graph in plain])
    return runs


class TestCliqueLayout:
    """The per-partition layout against the edge-list reference, and its cache."""

    def test_shared_partitions_match_reference(self):
        frontends._clique_layout.cache_clear()
        decided_no = 0
        for run in _runs_on_shared_partitions():
            assert len({graph.parts for graph in run}) == 1
            for graph in run:
                result = gf.clique_to_maxcover(graph)
                decided_no += isinstance(result, gf.DecidedNo)
                assert _frontend_view(result) == _frontend_view(
                    oracles.clique_to_maxcover_reference(graph))
        info = frontends._clique_layout.cache_info()
        assert decided_no >= 5
        assert info.misses == 6 and info.hits > info.misses

    def test_cache_bounded_and_keyed_on_partition(self):
        layout = frontends._clique_layout
        maxsize = layout.cache_parameters()["maxsize"]
        assert maxsize == frontends._CLIQUE_LAYOUT_CACHE_SIZE > 0
        layout.cache_clear()
        parts = [(0, 1), (2,), (3,)]
        same_sizes = [(2, 3), (0,), (1,)]
        gf.clique_to_maxcover(gf.make_partitioned_graph(parts, [(0, 2), (1, 3), (2, 3)]))
        # other edges on the same partition hit; the same sizes on another miss
        gf.clique_to_maxcover(gf.make_partitioned_graph(parts, [(0, 3), (2, 3)]))
        gf.clique_to_maxcover(gf.make_partitioned_graph(same_sizes, [(0, 2), (1, 3)]))
        info = layout.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
        # more partitions than fit: two parts of 0..7, split every way
        for mask in range(1, maxsize + 8):
            first = tuple(v for v in range(8) if mask >> v & 1)
            rest = tuple(v for v in range(8) if not mask >> v & 1)
            gf.clique_to_maxcover(gf.make_partitioned_graph([first, rest], []))
        assert layout.cache_info().currsize == maxsize


class TestPartitionedGraph:
    def test_part_of_matches_scan(self):
        rng = random.Random(11)
        for _ in range(20):
            m = rng.randint(3, 9)
            order = rng.sample(range(m), m)
            a, b = sorted(rng.sample(range(1, m), 2))
            parts = [order[:a], order[a:b], order[b:]]
            g = gf.make_partitioned_graph(parts, [])
            for v in range(m):
                assert g.part_of(v) == next(
                    i for i, part in enumerate(parts) if v in part)

    @pytest.mark.parametrize("v", [-1, -3, 3, 4])
    def test_part_of_unknown_vertex(self, v):
        with pytest.raises(IndexRangeError):
            triangle().part_of(v)

    def test_negative_edge_endpoint_rejected(self):
        with pytest.raises(IndexRangeError):
            gf.make_partitioned_graph([(0,), (1,), (2,)], [(-1, 1)])

    def test_owner_table_outside_eq_hash_repr(self):
        a, b = triangle(), triangle()
        assert a == b and hash(a) == hash(b)
        assert "_owner" not in repr(a)

    @pytest.mark.parametrize("parts,edges,error", [
        (((0,), (2,)), (), IndexRangeError),  # not a partition of 0..m-1
        (((0, 1), ()), (), EmptyPartError),
        (((0,), (1,)), ((1, 0),), IndexRangeError),  # not stored as (min, max)
        (((0,), (1,)), ((1, 1),), IndexRangeError),  # a self-loop
    ])
    def test_malformed_parts_and_edges(self, parts, edges, error):
        with pytest.raises(error):
            gf.PartitionedGraph(parts, frozenset(edges))

    @pytest.mark.parametrize("edge,match", [
        ((0, 0), "self-loop at vertex 0"),
        ((0, 5), "out of range"),
        ((1, 0), "stored as"),
    ])
    def test_graph_edges_checked(self, edge, match):
        with pytest.raises(IndexRangeError, match=match):
            gf.Graph(2, frozenset({edge}))


class TestColorfulLift:
    def test_triangle_lift(self):
        g = gf.make_graph(3, [(0, 1), (0, 2), (1, 2)])
        lift = gf.colorful_lift(g, 3)
        assert oracles.has_colorful_clique(lift)

    def test_edgeless(self):
        lift = gf.colorful_lift(gf.make_graph(3, []), 2)
        assert lift.edges == frozenset()

    def test_agrees_with_direct_triangle_search(self):
        rng = random.Random(6)
        for _ in range(25):
            n = 6
            edges = [(u, v) for u, v in combinations(range(n), 2)
                     if rng.random() < 0.5]
            g = gf.make_graph(n, edges)
            direct = any(
                g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
                for a, b, c in combinations(range(n), 3))
            assert oracles.has_colorful_clique(gf.colorful_lift(g, 3)) == direct


class TestSatFrontend:
    def test_contradiction_value_zero(self):
        cnf = gf.Cnf3(1, ((1,), (-1,)))
        inst = gf.sat_to_maxcover(cnf, 2)
        assert inst.v_parts == (1, 1)
        assert inst.w_parts == (2,)
        assert gf.maxcover_value(inst).value == 0

    def test_two_units_value_one(self):
        cnf = gf.Cnf3(2, ((1,), (2,)))
        inst = gf.sat_to_maxcover(cnf, 2)
        assert gf.maxcover_value(inst).value == 1

    def test_pseudo_projection_always(self):
        rng = random.Random(31)
        for _ in range(25):
            cnf = random_cnf3(rng)
            inst = gf.sat_to_maxcover(cnf, 2)
            assert gf.projection_profile(inst).is_pseudo_projection

    def test_equivalence_with_sat_oracle(self):
        rng = random.Random(14)
        for _ in range(25):
            cnf = random_cnf3(rng, max_vars=8)
            inst = gf.sat_to_maxcover(cnf, 2)
            assert (gf.maxcover_value(inst).value == 1) == oracles.cnf_satisfiable(cnf)

    def test_part_size_bound(self):
        rng = random.Random(15)
        for _ in range(15):
            cnf = random_cnf3(rng)
            k = 2
            inst = gf.sat_to_maxcover(cnf, k)
            per_group = -(-len(cnf.clauses) // k)  # ceil
            limit = 2 ** (3 * per_group)
            assert all(s <= limit for s in inst.v_parts)

    def test_row_bits_capped_before_any_row(self, monkeypatch):
        # 20 variables and 5 * 5 * 3 * 3 * 2**4 = 3,600 satisfying
        # assignments: two 3-variable chains (a or b, b or c), two 2-clauses,
        # four XORs and two units.  At k = 1 every row is one-hot over
        # |W| = 2**20 members, 3,600 * 2**20 bits in all
        clauses = [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (9, 10)]
        for a in (11, 13, 15, 17):
            clauses += [(a, a + 1), (-a, -(a + 1))]
        clauses += [(19,), (20,)]
        cnf = gf.Cnf3(20, tuple(clauses))

        def no_tables(bits, start):
            raise AssertionError("row tables built before the cap check")

        monkeypatch.setattr(frontends, "_rank_table", no_tables)
        with pytest.raises(CapExceededError, match="3600 labels of 1048576 row bits"):
            gf.sat_to_maxcover(cnf, 1)
        monkeypatch.undo()
        inst = gf.sat_to_maxcover(cnf, 4)
        assert sum(inst.v_parts) * sum(inst.w_parts) <= DEFAULT_UNIVERSE_CAP

    def test_unused_variable(self):
        cnf = gf.Cnf3(2, ((1,),))
        with pytest.raises(UnusedVariableError):
            gf.sat_to_maxcover(cnf, 1)

    def test_occurrence_bound_at_construction(self):
        with pytest.raises(OccurrenceBoundError):
            gf.Cnf3(1, ((1,), (-1,), (1,), (-1,)))

    def test_clause_width(self):
        with pytest.raises(ClauseWidthError):
            gf.Cnf3(4, ((1, 2, 3, 4),))

    @pytest.mark.parametrize("clauses,error", [
        (((),), ClauseWidthError),
        (((2,),), IndexRangeError),
        (((1, 0),), IndexRangeError),
        (((-2,),), IndexRangeError),
    ])
    def test_malformed_clauses(self, clauses, error):
        with pytest.raises(error):
            gf.Cnf3(1, clauses)

    def test_labels_listed_up_to_the_cap(self, monkeypatch):
        # a group's labels are listed only while its rows fit: past that,
        # its blocks are counted, so the error keeps the exact count
        set_bits, listed = frontends._SET_BITS, [0]

        class CountedSetBits:
            def __getitem__(self, byte):
                listed[0] += len(set_bits[byte])
                return set_bits[byte]

        monkeypatch.setattr(frontends, "_SET_BITS", CountedSetBits())
        # 20 variables at k = 1: |W| = 2**20, so 9 labels fit, and
        # 7**6 * 3 = 352,947 assignments satisfy the seven clauses
        clauses = [tuple(range(a, a + 3)) for a in range(1, 19, 3)] + [(19, 20)]
        with pytest.raises(CapExceededError, match="352947 labels of 1048576 row bits"):
            gf.sat_to_maxcover(gf.Cnf3(20, tuple(clauses)), 1)
        assert 9 < listed[0] <= 9 + 2 ** 16
        # 8 clauses on 24 variables, then each negated: at k = 2 the first
        # group has 7**8 labels, and |W| = 2**24 leaves room for none
        listed[0] = 0
        clauses = [tuple(range(a, a + 3)) for a in range(1, 25, 3)]
        cnf = gf.Cnf3(24, tuple(clauses + [tuple(-x for x in c) for c in clauses]))
        with pytest.raises(CapExceededError):
            gf.sat_to_maxcover(cnf, 2)
        assert listed[0] <= DEFAULT_UNIVERSE_CAP // 2 ** 24 + 2 ** 16
        # 15,000 variables of one group: |W| = 2**15000, past the digit limit
        listed[0] = 0
        clauses = tuple(tuple(range(a, a + 3)) for a in range(1, 15001, 3))
        with pytest.raises(CapExceededError, match=r"2\*\*15000 or more W vertices"):
            gf.sat_to_maxcover(gf.Cnf3(15000, clauses), 1)
        assert listed[0] == 0


class TestDimacsParser:
    def test_contradiction_example(self):
        cnf = gf.parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n")
        assert cnf.num_vars == 1
        assert cnf.clauses == ((1,), (-1,))

    def test_malformed_header(self):
        with pytest.raises(ParseError) as err:
            gf.parse_dimacs_cnf("p dnf 1 2\n1 0\n")
        assert err.value.line == 1

    def test_occurrence_bound(self):
        text = "p cnf 2 4\n1 2 0\n1 0\n1 -2 0\n-1 0\n"
        with pytest.raises(OccurrenceBoundError):
            gf.parse_dimacs_cnf(text)

    def test_comments_and_multiline_clauses(self):
        cnf = gf.parse_dimacs_cnf("c hello\np cnf 3 2\n1 -2\n3 0\n2 0\n")
        assert cnf.clauses == ((1, -2, 3), (2,))

    def test_wide_clause(self):
        # the clause width is Cnf3's rule; the parser does not restate it
        with pytest.raises(ClauseWidthError, match="clause 1 has 4 literals"):
            gf.parse_dimacs_cnf("p cnf 4 2\n1 0\n1 2 3 4 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            gf.parse_dimacs_cnf("p cnf 1 1\n1\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError):
            gf.parse_dimacs_cnf("p cnf 1 2\n1 0\n")


class TestEdgeListParser:
    def test_plain_graph(self):
        g = gf.parse_edge_list("0 1\n1 2\n")
        assert isinstance(g, gf.Graph)
        assert g.num_vertices == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)

    def test_partitioned(self):
        text = "a b\nb c\na c\npart a 1\npart b 2\npart c 3\n"
        g = gf.parse_edge_list(text)
        assert isinstance(g, gf.PartitionedGraph)
        assert g.t == 3
        assert oracles.has_colorful_clique(g)

    def test_missing_assignment(self):
        with pytest.raises(ParseError):
            gf.parse_edge_list("a b\npart a 1\n")

    def test_self_loop(self):
        with pytest.raises(ParseError):
            gf.parse_edge_list("a a\n")

    def test_blank_and_comment_lines(self):
        g = gf.parse_edge_list("# a path\n\n0 1\n   \n  # middle\n1 2\n")
        assert g == gf.parse_edge_list("0 1\n1 2\n")
