import random
from fractions import Fraction
from itertools import product

import pytest

import gapforge as gf
from gapforge import oracles, threshold
from gapforge.errors import CapExceededError, IndexRangeError


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

    def test_t1_collision_min_equals_col(self):
        g = gf.build_threshold(gf.reed_solomon(3, 2), 1)
        verdict = gf.verify_threshold(g, collision_cap=5)
        assert verdict.collision_min_x == 3

    def test_collision_min_at_least_col(self, code_suite):
        for code in code_suite:
            if code.size > 9:
                continue
            col = gf.collision_number(code)
            cap = (col.value if col.status == "finite" else code.size) + 2
            g = gf.build_threshold(code, 1)
            verdict = gf.verify_threshold(g, collision_cap=cap)
            if col.status == "finite":
                assert verdict.collision_min_x == col.value
            else:
                assert verdict.collision_min_x is None

    def test_sampled_mode_recorded(self):
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        verdict = gf.verify_threshold(g, collision_cap=3, exhaustive_limit=10,
                                      sample_count=50, seed=1)
        assert verdict.completeness_mode == "sampled"
        assert verdict.completeness_checked == 50
        assert verdict.completeness_ok

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
        g = gf.build_threshold(gf.reed_solomon(3, 2), 2)
        honest = threshold.common_neighbor

        def shifted(graph, ranks, i):
            part, v = honest(graph, ranks, i)
            if tuple(ranks) == (4, 7) and i == 1:
                v = tuple((s + 1) % graph.code.q for s in v)
            return part, v

        monkeypatch.setattr(threshold, "common_neighbor", shifted)
        verdict = gf.verify_threshold(g, collision_cap=3)
        assert verdict.completeness_ok is False
        assert verdict.completeness_counterexample == ((4, 7), 1, ((2, 0),))
        assert verdict.completeness_checked == 131
        counterexample, _, _ = oracles.threshold_verdict_bruteforce(g)
        assert counterexample == verdict.completeness_counterexample


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

    def test_export_cap(self):
        g = gf.build_threshold(gf.reed_solomon(5, 2), 3)
        with pytest.raises(CapExceededError):
            gf.export_edges(g, cap=10)
