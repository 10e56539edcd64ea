import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import pytest

import gapforge as gf
from gapforge import oracles, threshold
from gapforge.errors import (
    BudgetExceededError,
    CapExceededError,
    GapforgeError,
    IndexRangeError,
)


class TestBuild:
    def test_rs31_t2_sizes(self):
        g = gf.build_threshold(gf.reed_solomon(3, 1), 2)
        assert (g.ell, g.a_part_size) == (3, 9)
        assert (g.t, g.b_part_size) == (2, 3)

    def test_t1_parts(self):
        g = gf.build_threshold(gf.reed_solomon(5, 2), 1)
        assert g.a_part_size == 5
        assert g.t == 1

    def test_rs32_t2_sizes(self):
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        assert g.a_part_size == 9
        assert g.b_part_size == 9

    def test_bad_t(self):
        with pytest.raises(IndexRangeError):
            gf.build_threshold(gf.reed_solomon(3, 1), 0)
        # a t that is not an integer is refused when the graph is built,
        # not when it is first read
        for t in (-1, 1.5, 2.0, "2", None):
            with pytest.raises(IndexRangeError):
                gf.build_threshold(gf.reed_solomon(3, 1), t)


class TestAdjacency:
    def test_rule_true(self):
        # C(m)=(1,1,1); a=(i=2, v=(1,0)): C(m)_2 = 1 = v_0
        g = gf.build_threshold(gf.reed_solomon(3, 1), 2)
        assert gf.adjacent(g, (0, 1), (2, (1, 0)))

    def test_rule_false(self):
        g = gf.build_threshold(gf.reed_solomon(3, 1), 2)
        assert not gf.adjacent(g, (0, 1), (2, (0, 1)))

    def test_by_construction(self):
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        for m in range(g.b_part_size):
            word = g.code.codeword(m)
            for i in range(g.ell):
                v = (word[i], 0)
                assert gf.adjacent(g, (0, m), (i, v))

    def test_index_range(self):
        g = gf.build_threshold(gf.reed_solomon(3, 1), 2)
        with pytest.raises(IndexRangeError):
            gf.adjacent(g, (2, 0), (0, (0, 0)))
        with pytest.raises(IndexRangeError):
            gf.adjacent(g, (0, 5), (0, (0, 0)))
        with pytest.raises(IndexRangeError):
            gf.adjacent(g, (0, 0), (0, (0, 3)))

    @pytest.mark.parametrize("b_ref,a_ref", [
        ((2, 0), (0, (0, 0))),      # B-part index past t
        ((-1, 0), (0, (0, 0))),     # negative B-part index
        ((0, 3), (0, (0, 0))),      # message rank past the code's size
        ((0, -1), (0, (0, 0))),     # negative message rank
        ((0, 0), (3, (0, 0))),      # A-part index past ell
        ((0, 0), (-1, (0, 0))),     # negative A-part index
        ((0, 0), (0, (0,))),        # tuple shorter than t
        ((0, 0), (0, (0, 0, 0))),   # tuple longer than t
        ((0, 0), (0, (0, 3))),      # symbol >= q
        ((0, 0), (0, (-1, 0))),     # negative symbol
        ((0,), (0, (0, 0))),        # B-ref not a pair
        ((0, 0, 1), (0, (0, 0))),   # B-ref longer than a pair
        ((0, 0), (0, 5)),           # A-vertex not a tuple
        ((0, 0), (0, (0, "x"))),    # symbol not an integer
        ((0, 1.5), (0, (0, 0))),    # message rank not an integer
    ], ids=["j-high", "j-negative", "m-high", "m-negative", "i-high", "i-negative",
            "short", "long", "symbol-high", "symbol-negative", "b-short", "b-long",
            "a-not-tuple", "symbol-not-int", "m-not-int"])
    def test_every_argument_check(self, b_ref, a_ref):
        g = gf.build_threshold(gf.reed_solomon(3, 1), 2)
        with pytest.raises(IndexRangeError):
            gf.adjacent(g, b_ref, a_ref)

    def test_public_call_answers_through_rule(self, monkeypatch):
        # the checks pass, then the mask rule answers: a patched rule is
        # what adjacent() reports, for refs it would otherwise answer either way
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        refs = [((j, m), (i, v)) for j, m, i in product(range(2), range(9), range(3))
                for v in product(range(3), repeat=2)]
        rule = threshold._neighbors
        honest = [gf.adjacent(g, b_ref, a_ref) for b_ref, a_ref in refs]
        assert any(honest) and not all(honest)
        monkeypatch.setattr(threshold, "_neighbors",
                            lambda graph, b_ref, i: rule(graph, b_ref, i) ^ 0b1_1111_1111)
        assert [gf.adjacent(g, b_ref, a_ref) for b_ref, a_ref in refs] == \
            [not answer for answer in honest]

    def test_list_vertex_reads_as_tuple(self):
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        for m, i, v in product(range(9), range(3), product(range(3), repeat=2)):
            assert gf.adjacent(g, (1, m), (i, list(v))) == gf.adjacent(g, (1, m), (i, v))

    def test_a_vertex_range_checked(self):
        # an A-vertex is a tuple of [q]**t or a rank below q**t; adjacent()
        # answers through a rank bit, so neither may wrap into another vertex
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        for rank in (-1, 9, 99, 1.0, "0", None):
            with pytest.raises(IndexRangeError):
                g.a_tuple(rank)
        for v in ((5, 5), (0, 3), (-1, 0), (0,), (0, 0, 0), (0, "x"), (0, 1.0), None, 5):
            with pytest.raises(IndexRangeError):
                g.a_rank(v)
        assert [g.a_rank(g.a_tuple(rank)) for rank in range(9)] == list(range(9))
        assert g.a_tuple(8) == (2, 2) and g.a_rank([2, 1]) == 7


class TestCommonNeighbor:
    def test_spec_example(self):
        # codewords 000 and 222; coordinates at i=1 give (0, 2)
        g = gf.build_threshold(gf.reed_solomon(3, 1), 2)
        assert gf.common_neighbor(g, (0, 2), 1) == (1, (0, 2))

    def test_t1(self):
        g = gf.build_threshold(gf.reed_solomon(3, 2), 1)
        for m in range(9):
            for i in range(3):
                assert gf.common_neighbor(g, (m,), i) == (i, (g.code.codeword(m)[i],))

    def test_uniqueness_by_scan(self):
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        rng = random.Random(0)
        for _ in range(20):
            ranks = (rng.randrange(9), rng.randrange(9))
            i = rng.randrange(3)
            _, v = gf.common_neighbor(g, ranks, i)
            hits = [u for u in product(range(3), repeat=2)
                    if all(gf.adjacent(g, (j, ranks[j]), (i, u)) for j in range(2))]
            assert hits == [v]

    def test_arguments_range_checked(self):
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        for ranks, i in (((0,), 0), ((0, 0, 0), 0), ((0, 0), -1), ((0, 0), 3)):
            with pytest.raises(IndexRangeError):
                gf.common_neighbor(g, ranks, i)

    @pytest.mark.parametrize("ranks,i", [((0, 1), "a"), (None, 0), ((0, 1), 1.0)],
                             ids=["index-str", "ranks-none", "index-float"])
    def test_malformed_arguments(self, ranks, i):
        # each of these raised TypeError
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        with pytest.raises(IndexRangeError):
            gf.common_neighbor(g, ranks, i)


class TestVerify:
    def test_rs32_t2(self):
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        verdict = gf.verify_threshold(g, collision_cap=3)
        assert verdict.completeness_ok
        assert verdict.completeness_mode == "exhaustive"
        # max shared parts equals the worst-case agreement count (1-delta)*ell
        assert verdict.soundness_max_shared == 1
        assert verdict.soundness_bound == (1 - Fraction(2, 3)) * 3
        assert verdict.soundness_ok
        assert verdict.soundness_matches_agreements
        # NONE_UP_TO(3): no X with |X| < 3 satisfies the hypothesis
        assert verdict.collision_min_x is None

    @pytest.mark.parametrize("t", [1, 2])
    def test_soundness_bound_is_distance_bound(self, code_suite, t):
        # the bound is the largest pairwise agreement; the distance
        # measurement is the independent oracle for (1 - delta) * ell
        for code in code_suite:
            verdict = gf.verify_threshold(gf.build_threshold(code, t), collision_cap=t + 1)
            delta = gf.relative_distance(code).delta
            assert verdict.soundness_bound == (1 - delta) * code.ell, code

    def test_single_codeword_has_no_bound(self):
        g = gf.build_threshold(gf.explicit_code(2, 2, [(0, 1)]), 1)
        with pytest.raises(GapforgeError):
            gf.verify_threshold(g, collision_cap=2)

    @pytest.mark.parametrize("t", [1, 2])
    def test_single_codeword_raises_before_any_read(self, t, monkeypatch):
        g = gf.build_threshold(gf.explicit_code(3, 4, [(0, 1, 2, 1)]), t)
        calls = _count_neighbors(monkeypatch)
        with pytest.raises(GapforgeError,
                           match="soundness bound undefined for codes with a single codeword"):
            gf.verify_threshold(g, collision_cap=t + 1)
        assert calls == [0]

    @pytest.mark.parametrize("q,r,t,error,match", [
        # 10,609 codewords of length 103, past the enumeration cap
        (103, 2, 1, CapExceededError, "10609 codewords of length 103"),
        # sum over i of 3 realized symbols * 11 * 3**11 = 17,537,553 reads
        (3, 2, 11, BudgetExceededError, "17537553 adjacency reads"),
        # a count past the int-to-text digit limit is still a message
        (3, 2, 10000, BudgetExceededError, "or more adjacency reads"),
    ])
    def test_caps_checked_before_any_read(self, q, r, t, error, match, monkeypatch):
        g = gf.build_threshold(gf.reed_solomon(q, r), t)
        calls = _count_neighbors(monkeypatch)
        with pytest.raises(error, match=match):
            gf.verify_threshold(g, collision_cap=3)
        # a negative or non-integer collision cap is refused first of all,
        # here and on a graph that would otherwise be read
        readable = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        for graph, cap in product((g, readable), (-3, -1, 2.5, "4", None)):
            with pytest.raises(CapExceededError, match="collision cap must be"):
                gf.verify_threshold(graph, collision_cap=cap)
        assert calls == [0]
        # 0 is a cap below every size: nothing is searched
        assert gf.verify_threshold(readable, collision_cap=0).collision_min_x is None

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("build", [
        lambda: gf.reed_solomon(3, 2),
        lambda: gf.reed_solomon(5, 2),
        lambda: gf.random_code(3, 2, 6, 1),
        lambda: gf.phf_to_code(gf.find_phf(8, 2, 16, seed=0)),
    ], ids=["rs32", "rs52", "random3_2_6_1", "phf8_2"])
    def test_adjacency_reads(self, build, t, monkeypatch):
        # one mask per (i, j, representative), each deciding the q**t pairs
        # of its B-vertex and A_i: every symbol realized at coordinate i has
        # one representative per B-part
        code = build()
        g = gf.build_threshold(code, t)
        calls = _count_neighbors(monkeypatch)
        verdict = gf.verify_threshold(g, collision_cap=t + 1)
        realized = sum(len({word[i] for word in code.codewords()}) for i in range(code.ell))
        assert calls[0] == realized * t
        assert verdict.adjacency_reads == calls[0] * code.q ** t == realized * t * code.q ** t

    def test_budget_not_integer(self, monkeypatch):
        # a budget of "x" raised TypeError after every read; now it is
        # refused before any
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        calls = _count_neighbors(monkeypatch)
        for budget in ("x", 2.5, -1):
            with pytest.raises(CapExceededError, match="budget must be"):
                gf.verify_threshold(g, 4, budget=budget)
        assert calls == [0]

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_reads_skip_public_checks(self, t, monkeypatch):
        # every read is the mask rule alone: the public adjacent(), which
        # checks its arguments first, is never called during verification
        g = gf.build_threshold(gf.random_code(3, 2, 6, 1), t)
        checked, public = threshold.adjacent, [0]

        def counted_public(graph, b_ref, a_ref):
            public[0] += 1
            return checked(graph, b_ref, a_ref)
        monkeypatch.setattr(threshold, "adjacent", counted_public)
        reads = _count_neighbors(monkeypatch)
        verdict = gf.verify_threshold(g, collision_cap=t + 1)
        assert reads[0] * g.a_part_size == verdict.adjacency_reads > 0
        assert public == [0]

    def test_t1_collision_min_equals_col(self):
        g = gf.build_threshold(gf.reed_solomon(3, 2), 1)
        verdict = gf.verify_threshold(g, collision_cap=5)
        assert verdict.collision_min_x == 3

    def test_collision_min_at_least_col(self, code_suite):
        # every suite code with finite Col: nothing below Col at t in {1, 2},
        # and at t = 1 the smallest X is exactly Col
        finite = 0
        for code in code_suite:
            col = gf.collision_number(code)
            if col.status != "finite":
                continue
            finite += 1
            for t in (1, 2):
                verdict = gf.verify_threshold(gf.build_threshold(code, t),
                                              collision_cap=col.value)
                assert verdict.collision_min_x is None, (code, t)
            verdict = gf.verify_threshold(gf.build_threshold(code, 1),
                                          collision_cap=col.value + 1)
            assert verdict.collision_min_x == col.value, code
        assert finite == 11

    def test_rs72_t2_at_col(self):
        # Col(RS(7,2)) = 5; every X of size 3 or 4 across the two B-parts
        # is ruled out
        code = gf.reed_solomon(7, 2)
        assert gf.collision_number(code).value == 5
        verdict = gf.verify_threshold(gf.build_threshold(code, 2), collision_cap=5)
        assert verdict.collision_min_x is None

    @pytest.mark.parametrize("q", [11, 13])
    def test_rs_q2_t2_at_col(self, q):
        # Col(RS(q,2)) = 6 at q = 11 and 13; two words agree on at most one
        # coordinate, so C(5, 2) < q refutes sizes 3 to 5 before any visit
        code = gf.reed_solomon(q, 2)
        assert gf.collision_number(code).value == 6
        verdict = gf.verify_threshold(gf.build_threshold(code, 2), collision_cap=6)
        assert verdict.completeness_ok and verdict.soundness_ok
        assert verdict.soundness_matches_agreements and verdict.soundness_bound == 1
        assert verdict.collision_min_x is None
        assert verdict.collision_subsets_examined == 0

    def test_collision_counts_all_parts_subsets(self):
        # size 3 only, at t = 2: the X that take a vertex from both B-parts,
        # and their prefixes: 9 first members in B_0, then 9 * 8 second
        # members in B_1 (room for a third there) or C(9, 2) pairs in B_0
        visits = 9 + 9 * 8 + math.comb(9, 2) + math.comb(18, 3) - 2 * math.comb(9, 3)
        code = gf.random_code(3, 2, 6, 1)
        verdict = gf.verify_threshold(gf.build_threshold(code, 2), collision_cap=4)
        assert verdict.collision_min_x is None
        assert verdict.collision_subsets_examined == visits == 765
        # on Reed-Solomon codes only X holding the zero word in B_0; two
        # RS(3,2) words agree on at most 1 of 3 coordinates, so every
        # two-member prefix that covers none yet is dropped with its X
        rs = gf.verify_threshold(gf.build_threshold(gf.reed_solomon(3, 2), 2),
                                 collision_cap=4)
        assert rs.collision_min_x is None
        assert rs.collision_subsets_examined == 71

    def test_collision_budget_boundary(self):
        # the search stops at the subset numbered budget + 1, untested
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        for cap in (4, 6):
            verdict = gf.verify_threshold(g, collision_cap=cap)
            examined = verdict.collision_subsets_examined
            assert examined > 0
            assert gf.verify_threshold(g, collision_cap=cap,
                                       budget=examined) == verdict
            with pytest.raises(BudgetExceededError):
                gf.verify_threshold(g, collision_cap=cap, budget=examined - 1)

    def test_large_graph_is_exhaustive(self):
        # 121**2 * 11 = 161,051 cases, all decided through 1,331 patterns
        g = gf.build_threshold(gf.reed_solomon(11, 2), 2)
        verdict = gf.verify_threshold(g, collision_cap=3)
        assert verdict.completeness_mode == "exhaustive"
        assert verdict.completeness_checked == 161_051
        assert verdict.completeness_patterns == 11 * 11 ** 2
        assert verdict.completeness_ok
        assert verdict.completeness_counterexample is None

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("build", [
        lambda: gf.reed_solomon(3, 2),
        lambda: gf.random_code(3, 2, 6, 1),
        lambda: gf.random_code(4, 2, 5, 2),
        lambda: gf.phf_to_code(gf.find_phf(8, 2, 16, seed=0)),
    ], ids=["rs32", "random3_2_6_1", "random4_2_5_2", "phf8_2"])
    def test_matches_bruteforce_oracle(self, build, t):
        g = gf.build_threshold(build(), t)
        verdict = gf.verify_threshold(g, collision_cap=t + 1)
        counterexample, max_shared, matches = oracles.threshold_verdict_bruteforce(g)
        assert verdict.completeness_mode == "exhaustive"
        assert verdict.completeness_checked == g.b_part_size ** t * g.ell
        assert verdict.completeness_ok and counterexample is None
        assert verdict.completeness_counterexample is None
        assert verdict.soundness_max_shared == max_shared
        assert verdict.soundness_matches_agreements and matches

    def test_mutated_common_neighbor_caught(self, monkeypatch):
        # verify_threshold decides the graph through the mask rule; the
        # helper is checked on every case by the oracle
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        honest = threshold.common_neighbor

        def shifted(graph, ranks, i):
            part, v = honest(graph, ranks, i)
            if tuple(ranks) == (4, 7) and i == 1:
                v = tuple((s + 1) % graph.code.q for s in v)
            return part, v

        monkeypatch.setattr(threshold, "common_neighbor", shifted)
        counterexample, _, _ = oracles.threshold_verdict_bruteforce(g)
        assert counterexample == ((4, 7), 1, ((2, 0),))
        verdict = gf.verify_threshold(g, collision_cap=3)
        assert verdict.completeness_ok
        assert verdict.completeness_counterexample is None
        assert verdict.completeness_checked == 9 ** 2 * 3

    def test_mutated_adjacent_caught(self, monkeypatch):
        # B_0 vertices carrying symbol 2 at coordinate 1 meet the A_1
        # vertices whose first symbol is 0 instead of 2
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        monkeypatch.setattr(threshold, "_neighbors",
                            _symbol_shifted_neighbors(threshold._neighbors, {(1, 0, 2): 1}))
        verdict = gf.verify_threshold(g, collision_cap=3)
        counterexample, max_shared, matches = oracles.threshold_verdict_bruteforce(g)
        assert counterexample is not None and not matches
        assert verdict.completeness_counterexample == counterexample == ((2, 0), 1, ((0, 0),))
        assert verdict.completeness_checked == _case_index(g, counterexample) == 56
        assert verdict.completeness_ok is False
        assert verdict.soundness_max_shared == max_shared == 2
        assert verdict.soundness_matches_agreements is matches


class TestIntentShortcut:
    """A coordinate whose masks all equal their intents is settled without
    walking its column patterns or share rows; only a bent one is walked."""

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_honest_graph_walks_no_pattern(self, t, monkeypatch):
        code = gf.random_code(3, 2, 6, 1)
        walked = _count_a_rank(monkeypatch)
        verdict = gf.verify_threshold(gf.build_threshold(code, t), collision_cap=t + 1)
        assert verdict.completeness_ok and verdict.soundness_matches_agreements
        assert walked == [0]
        assert verdict.completeness_patterns == sum(
            len(set(column)) ** t for column in zip(*code.codewords()))

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("t", [2, 3])
    def test_bent_coordinate_walks_alone(self, t, j, monkeypatch):
        # B_j vertices carrying 1 at coordinate 2 meet the A_2 vertices of
        # symbol 2: only coordinate 2's patterns are walked, and every
        # field still matches the oracle
        code = gf.random_code(3, 2, 6, 1)
        realized = [len(set(column)) for column in zip(*code.codewords())]
        assert realized[2] == 3
        g = gf.build_threshold(code, t)
        monkeypatch.setattr(threshold, "_neighbors",
                            _symbol_shifted_neighbors(threshold._neighbors, {(2, j, 1): 1}))
        walked = _count_a_rank(monkeypatch)
        verdict = gf.verify_threshold(g, collision_cap=t + 1)
        assert walked == [3 ** t]
        assert verdict.completeness_patterns == sum(n ** t for n in realized)
        counterexample, max_shared, matches = oracles.threshold_verdict_bruteforce(g)
        assert counterexample is not None and not matches
        assert verdict.completeness_counterexample == counterexample
        assert verdict.completeness_checked == _case_index(g, counterexample)
        assert verdict.soundness_max_shared == max_shared
        assert verdict.soundness_matches_agreements is matches

    # symbol 2 is not realized at coordinate 0
    BENT_BUT_PASSING = gf.explicit_code(3, 3, [(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 0),
                                               (1, 2, 1)])

    @pytest.mark.parametrize("t", [2, 3])
    def test_gained_vertex_bends_without_failing(self, t, monkeypatch):
        # B_0 vertices carrying 0 at coordinate 0 also meet the A_0 vertex
        # (1, 2, ..): no realized pattern reaches it, so completeness
        # passes, but the B_0 masks of 0 and 1 now meet, and pairs with 0
        # and 1 there share one more part, counted pair by pair
        g = gf.build_threshold(self.BENT_BUT_PASSING, t)
        gained = (1, 2) + (0,) * (t - 2)
        monkeypatch.setattr(threshold, "_neighbors", _flipped_neighbors(
            threshold._neighbors, {(0, 0, 0, gained)}))
        walked = _count_a_rank(monkeypatch)
        verdict = gf.verify_threshold(g, collision_cap=t + 1)
        counterexample, max_shared, matches = oracles.threshold_verdict_bruteforce(g)
        assert counterexample is None and not matches
        assert walked == [2 ** t]
        assert verdict.completeness_ok
        assert verdict.completeness_counterexample is None
        assert verdict.completeness_checked == 5 ** t * 3
        assert verdict.soundness_max_shared == max_shared == 2
        assert verdict.soundness_matches_agreements is matches

    @pytest.mark.parametrize("t", [2, 3])
    def test_lost_vertex_bends_without_failing(self, t, monkeypatch):
        # B_0 vertices carrying 0 at coordinate 0 lose the A_0 vertex
        # (0, 2, ..), which no realized pattern names: the coordinate is
        # walked, and every field matches the oracle and the honest graph
        g = gf.build_threshold(self.BENT_BUT_PASSING, t)
        lost = (0, 2) + (0,) * (t - 2)
        expected = gf.verify_threshold(g, collision_cap=t + 1)
        monkeypatch.setattr(threshold, "_neighbors", _flipped_neighbors(
            threshold._neighbors, {(0, 0, 0, lost)}))
        walked = _count_a_rank(monkeypatch)
        verdict = gf.verify_threshold(g, collision_cap=t + 1)
        counterexample, max_shared, matches = oracles.threshold_verdict_bruteforce(g)
        assert counterexample is None and matches
        assert walked == [2 ** t]
        assert verdict == expected
        assert verdict.soundness_max_shared == max_shared

    def test_verdicts_pinned_on_code_suite(self, code_suite, monkeypatch):
        # every field of 427 verdicts, by repr, as the verifier gave them
        # when it walked every pattern and share row: the 13 codes at t in
        # {1, 2, 3} and caps t + 1 and Col, each on the honest graph, 4
        # seeded symbol shifts and 2 seeded sets of flipped reads
        honest = threshold._neighbors
        lines, incomplete = [], 0
        for n, code in enumerate(code_suite):
            col = gf.collision_number(code)
            for t in (1, 2, 3):
                g = gf.build_threshold(code, t)
                caps = sorted({t + 1, col.value if col.status == "finite" else t + 1})
                rng = random.Random(f"reprs/{n}/{t}")
                rules = [honest]
                for k in range(4):
                    shifts = {}
                    for _ in range(1 + k % 2):
                        key = (rng.randrange(code.ell), rng.randrange(t), rng.randrange(code.q))
                        shifts[key] = rng.choice([*range(1, code.q), None])
                    rules.append(_symbol_shifted_neighbors(honest, shifts))
                for k in range(2):
                    flips = {(rng.randrange(code.ell), rng.randrange(t), rng.randrange(code.q),
                              tuple(rng.randrange(code.q) for _ in range(t)))
                             for _ in range(1 + k)}
                    rules.append(_flipped_neighbors(honest, flips))
                for rule in rules:
                    monkeypatch.setattr(threshold, "_neighbors", rule)
                    for cap in caps:
                        verdict = gf.verify_threshold(g, collision_cap=cap)
                        incomplete += not verdict.completeness_ok
                        lines.append(repr(verdict))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), incomplete) == (427, 366)
        assert digest == "5cc5746eea2adedcae1a03d6789f7f2dd38fa3e49bbc44e83037cfb42d796faa"


class TestCollisionOracle:
    """verify_threshold's collision search against the oracle that reads the
    graph through adjacent() alone."""

    @pytest.mark.parametrize("t", [1, 2])
    def test_matches_verify_threshold(self, code_suite, t):
        found = set()
        for code in code_suite:
            if code.size > 9:
                continue
            col = gf.collision_number(code)
            g = gf.build_threshold(code, t)
            # criterion 4's cap, and one past every size of X
            for cap in {col.value if col.status == "finite" else t * code.size + 1,
                        t * code.size + 1}:
                verdict = gf.verify_threshold(g, collision_cap=cap)
                assert oracles.collision_min_x_by_adjacency(g, cap) == \
                    verdict.collision_min_x
                found.add(verdict.collision_min_x)
        assert None in found and len(found) > 2

    @pytest.mark.parametrize("build,cap", [
        (lambda: gf.reed_solomon(2, 2), 3 * 4 + 1),
        (lambda: gf.explicit_code(3, 3, [(0, 0, 0), (0, 1, 1), (1, 0, 2),
                                          (1, 1, 0), (2, 2, 1)]), 3 * 5 + 1),
        (lambda: gf.reed_solomon(3, 2), 6),
    ], ids=["rs22", "explicit5", "rs32"])
    def test_matches_verify_threshold_t3(self, build, cap):
        # three B-parts: the search crosses two copy boundaries
        g = gf.build_threshold(build(), 3)
        verdict = gf.verify_threshold(g, collision_cap=cap)
        assert verdict.collision_min_x == 5
        assert oracles.collision_min_x_by_adjacency(g, cap) == 5

    def test_mutated_adjacent_caught(self, monkeypatch):
        # RS(3,2), t = 1: with symbol 2 read as 1 at every coordinate, the
        # constant words 1 and 2 share a neighbour in every A_i, so two
        # B-vertices meet the hypothesis; the codewords alone need Col = 3
        g = gf.build_threshold(gf.reed_solomon(3, 2), 1)
        honest = threshold._neighbors
        assert oracles.collision_min_x_by_adjacency(g, 5) == 3
        monkeypatch.setattr(threshold, "_neighbors", _symbol_shifted_neighbors(
            honest, {(i, 0, 2): 2 for i in range(3)}))
        assert gf.verify_threshold(g, collision_cap=5).collision_min_x == 3
        assert oracles.collision_min_x_by_adjacency(g, 5) == 2
        # only vertices carrying symbol 2 keep their neighbours, at every
        # coordinate, so three B-vertices no longer suffice
        monkeypatch.setattr(threshold, "_neighbors", _symbol_shifted_neighbors(
            honest, {(i, 0, s): None for i in range(3) for s in (0, 1)}))
        assert gf.verify_threshold(g, collision_cap=5).collision_min_x == 3
        assert oracles.collision_min_x_by_adjacency(g, 5) == 4


def _count_neighbors(monkeypatch) -> list[int]:
    """Wrap threshold._neighbors; the returned one-item list counts its calls."""
    honest, calls = threshold._neighbors, [0]

    def counted(graph, b_ref, i):
        calls[0] += 1
        return honest(graph, b_ref, i)
    monkeypatch.setattr(threshold, "_neighbors", counted)
    return calls


def _count_a_rank(monkeypatch) -> list[int]:
    """Wrap ThresholdGraph.a_rank, called once per column pattern walked; the
    returned one-item list counts its calls."""
    honest, calls = threshold.ThresholdGraph.a_rank, [0]

    def counted(graph, v):
        calls[0] += 1
        return honest(graph, v)
    monkeypatch.setattr(threshold.ThresholdGraph, "a_rank", counted)
    return calls


def _flipped_neighbors(honest, flips):
    """The mask rule with the bit of each (i, j, symbol, v) in flips inverted:
    a B_j vertex carrying symbol at coordinate i gains or loses the A_i vertex v."""
    def corrupted(graph, b_ref, i):
        j, m = b_ref
        mask, symbol = honest(graph, b_ref, i), graph.code.codeword(m)[i]
        for key in flips:
            if key[:3] == (i, j, symbol):
                mask ^= 1 << _rank(key[3], graph.code.q)
        return mask
    return corrupted


def _symbol_shifted_neighbors(honest, shifts):
    """The mask rule with B_j vertices carrying symbol s at coordinate i moved.

    For each (i, j, s): shift in shifts, such a vertex meets the A_i
    vertices of another symbol's intent, the v with v[j] == s + shift (mod
    q), or no A_i vertex when shift is None.  The corruption depends on the
    symbol only, never on which codeword carries it.
    """
    def corrupted(graph, b_ref, i):
        j, m = b_ref
        q, symbol = graph.code.q, graph.code.codeword(m)[i]
        shift = shifts.get((i, j, symbol), 0)
        if shift is None:
            return 0
        if shift == 0:
            return honest(graph, b_ref, i)
        return threshold._intent_mask(q, graph.t, j, (symbol + shift) % q)
    return corrupted


def _rank(v, q: int) -> int:
    """Lexicographic rank of the symbol tuple v in [q]**len(v)."""
    rank = 0
    for s in v:
        rank = rank * q + s
    return rank


def _case_index(graph, counterexample) -> int:
    """1-based position of (ranks, i) in the exhaustive case order."""
    ranks, i, _ = counterexample
    return _rank(ranks, graph.b_part_size) * graph.ell + i + 1


def _differential_shapes(limit: int = 60_000):
    """(q, r, t, ell_max) where the oracle's scan of every A_i vertex for
    every case, about (q**r * q)**t * t * ell adjacent() calls, fits limit."""
    for q, r, t in product((2, 3, 4, 5), (1, 2), (1, 2, 3)):
        ell_max = min(r + 3, limit // ((q ** (r + 1)) ** t * t))
        if ell_max >= r:
            yield q, r, t, ell_max


class TestVerifyDifferential:
    """verify_threshold against oracles.threshold_verdict_bruteforce, seeded."""

    @pytest.mark.parametrize("q,r,t,ell_max", list(_differential_shapes()))
    def test_random_codes(self, q, r, t, ell_max, monkeypatch):
        rng = random.Random(f"threshold-differential/{q}/{r}/{t}")
        size = q ** r
        for run in range(6):
            ell = rng.randint(r, ell_max)
            g = gf.build_threshold(gf.random_code(q, r, ell, rng.randrange(10_000)), t)
            shifts = {}
            for _ in range(run % 3):  # honest, one or two corrupted symbols
                key = (rng.randrange(ell), rng.randrange(t), rng.randrange(q))
                shifts[key] = rng.choice([*range(1, q), None])
            with monkeypatch.context() as patch:
                patch.setattr(threshold, "_neighbors",
                              _symbol_shifted_neighbors(threshold._neighbors, shifts))
                verdict = gf.verify_threshold(g, collision_cap=t + 1)
                counterexample, max_shared, matches = \
                    oracles.threshold_verdict_bruteforce(g)
            assert verdict.completeness_mode == "exhaustive"
            assert verdict.completeness_counterexample == counterexample
            assert verdict.completeness_ok is (counterexample is None)
            assert verdict.completeness_checked == (
                size ** t * ell if counterexample is None
                else _case_index(g, counterexample))
            assert verdict.soundness_max_shared == max_shared
            assert verdict.soundness_matches_agreements is matches

    @pytest.mark.parametrize("t", [2, 3])
    def test_one_part_row_adds_shared(self, t, monkeypatch):
        # B_{t-1} vertices carrying 0 at coordinate 1 also meet the A_1
        # vertices of symbol 1, so pairs with 0 and 1 there share one more
        # part; the other B-parts keep the honest row
        g = gf.build_threshold(gf.random_code(3, 2, 5, 4), t)
        monkeypatch.setattr(threshold, "_neighbors",
                            _symbol_shifted_neighbors(threshold._neighbors, {(1, t - 1, 0): 1}))
        verdict = gf.verify_threshold(g, collision_cap=t + 1)
        _, max_shared, matches = oracles.threshold_verdict_bruteforce(g)
        assert not matches
        assert verdict.soundness_max_shared == max_shared
        assert verdict.soundness_matches_agreements is matches

    @pytest.mark.parametrize("t", [2, 3])
    def test_one_part_row_removes_shared(self, t, monkeypatch):
        # B_{t-1} vertices meet A-vertices only through symbol 2, so that
        # part's shared counts fall below the agreements; the largest count
        # comes from the honest row of the other B-parts
        code = gf.random_code(3, 2, 5, 4)
        g = gf.build_threshold(code, t)
        words = list(code.codewords())
        agreements = [sum(a == b for a, b in zip(w1, w2))
                      for n, w1 in enumerate(words) for w2 in words[n + 1:]]
        on_symbol_2 = [sum(a == b == 2 for a, b in zip(w1, w2))
                       for n, w1 in enumerate(words) for w2 in words[n + 1:]]
        assert max(on_symbol_2) < max(agreements)
        monkeypatch.setattr(threshold, "_neighbors", _symbol_shifted_neighbors(
            threshold._neighbors,
            {(i, t - 1, s): None for i in range(code.ell) for s in (0, 1)}))
        verdict = gf.verify_threshold(g, collision_cap=t + 1)
        _, max_shared, matches = oracles.threshold_verdict_bruteforce(g)
        assert not matches and max_shared == max(agreements)
        assert verdict.soundness_max_shared == max_shared
        assert verdict.soundness_matches_agreements is matches

    def test_first_failure_by_adjacent_scan(self, monkeypatch):
        # 161,051 cases; the cases are walked here, in order, through
        # adjacent() until the first whose common neighbours in A_i are not
        # exactly its column pattern
        g = gf.build_threshold(gf.reed_solomon(11, 2), 2)
        monkeypatch.setattr(threshold, "_neighbors", _symbol_shifted_neighbors(
            threshold._neighbors, {(3, 1, 5): 2, (7, 0, 4): 1}))
        verdict = gf.verify_threshold(g, collision_cap=3)
        vertices = list(product(range(11), repeat=2))
        cases = ((ranks, i) for ranks in product(range(121), repeat=2) for i in range(11))
        expected = None
        for n, (ranks, i) in enumerate(cases, 1):
            hits = tuple(u for u in vertices
                         if all(threshold.adjacent(g, (j, m), (i, u))
                                for j, m in enumerate(ranks)))
            if hits != (tuple(g.code.codeword(m)[i] for m in ranks),):
                expected = (ranks, i, hits), n
                break
        assert expected is not None and expected[1] > 1
        assert verdict.completeness_mode == "exhaustive"
        assert (verdict.completeness_counterexample, verdict.completeness_checked) == expected
        assert verdict.completeness_ok is False


class TestExport:
    def test_oracle_equivalence_rs32(self):
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        exported = set(map(tuple, gf.export_edges(g)))
        offset = g.ell * g.a_part_size
        for i in range(g.ell):
            for rank in range(g.a_part_size):
                v = g.a_tuple(rank)
                for j in range(g.t):
                    for m in range(g.b_part_size):
                        a_id = i * g.a_part_size + rank
                        b_id = offset + j * g.b_part_size + m
                        assert ((a_id, b_id) in exported) == \
                            gf.adjacent(g, (j, m), (i, v))

    def test_oracle_equivalence_random_code(self):
        code = gf.random_code(3, 1, 4, seed=13)
        g = gf.build_threshold(code, 1)
        exported = set(map(tuple, gf.export_edges(g)))
        offset = g.ell * g.a_part_size
        pairs = [((i, rank), m) for i in range(g.ell)
                 for rank in range(g.a_part_size) for m in range(g.b_part_size)]
        for (i, rank), m in pairs:
            edge = (i * g.a_part_size + rank, offset + m)
            assert (edge in exported) == gf.adjacent(g, (0, m), (i, g.a_tuple(rank)))

    @pytest.mark.parametrize("q,t", [(2, 1), (3, 2), (2, 3), (5, 2)])
    def test_ranks_with_symbol_by_scan(self, q, t):
        # the one A-neighbor enumeration behind export_edges and composed
        # SetCover membership: ascending ranks of the v with v[j] == symbol
        vertices = list(product(range(q), repeat=t))
        for j in range(t):
            for symbol in range(q):
                assert threshold._ranks_with_symbol(q, t, j, symbol) == tuple(
                    rank for rank, v in enumerate(vertices) if v[j] == symbol)

    def test_export_cap(self):
        g = gf.build_threshold(gf.reed_solomon(5, 2), 3)
        with pytest.raises(CapExceededError):
            gf.export_edges(g, cap=10)

    def test_export_cap_not_integer(self):
        # a cap of "x" raised TypeError when compared with the edge count
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        for cap in ("x", 2.5, -1, None):
            with pytest.raises(CapExceededError, match="edge cap must be"):
                gf.export_edges(g, cap=cap)
        assert len(gf.export_edges(g, cap=162)) == 162


class TestNeighborsOracle:
    """The mask rule against oracles.threshold_neighbors_by_definition, and
    its closed-form intents against the rank enumeration of export_edges."""

    @pytest.mark.parametrize("build", [
        lambda: gf.reed_solomon(3, 2),
        lambda: gf.reed_solomon(5, 2),
        lambda: gf.reed_solomon(7, 2),
        lambda: gf.random_code(3, 2, 6, 1),
        lambda: gf.phf_to_code(gf.find_phf(8, 2, 16, seed=0)),
    ], ids=["rs32", "rs52", "rs72", "random3_2_6_1", "phf8_2"])
    def test_mask_rule_by_definition(self, build):
        code = build()
        for t in (1, 2, 3):
            g = gf.build_threshold(code, t)
            for j, m, i in product(range(t), range(code.size), range(code.ell)):
                assert threshold._neighbors(g, (j, m), i) == \
                    oracles.threshold_neighbors_by_definition(g, (j, m), i), (t, j, m, i)

    def test_intent_mask_by_ranks(self):
        # every (q, t, j, s) with 2 <= t and q**t <= 13**3; at t = 1 every
        # q up to 13**3 at its first, middle and last symbols, since all
        # 2.4M t = 1 cases, each a single bit, would take seconds
        cases = 0
        for t in range(1, 12):
            for q in range(2, math.floor(2197 ** (1 / t)) + 2):
                if q ** t > 2197:
                    break
                symbols = range(q) if t > 1 else sorted({0, 1, q // 2, q - 2, q - 1})
                for j, s in product(range(t), symbols):
                    cases += 1
                    assert threshold._intent_mask(q, t, j, s) == sum(
                        1 << r for r in threshold._ranks_with_symbol(q, t, j, s)), (q, t, j, s)
        assert cases == 2696 + 2 + 3 + 4 + 5 * (2197 - 4)
