import random
from itertools import product

import numpy as np
import pytest

import gapforge as gf
from gapforge import oracles
from gapforge.errors import (
    CapExceededError,
    EmptyPartError,
    IndexRangeError,
    MatchingOverflowError,
    SchemaVersionError,
    UniverseCapError,
)
from gapforge.generators import random_setcover_instance


class TestInstance:
    def test_validation(self):
        with pytest.raises(EmptyPartError):
            gf.SetCoverInstance(2, [[], [{0}]])
        with pytest.raises(IndexRangeError):
            gf.SetCoverInstance(2, [[{0, 5}]])

    def test_masks(self):
        inst = gf.SetCoverInstance(3, [[{0, 2}], [{1}]])
        assert inst.mask((0, 0)) == 0b101
        assert inst.mask((1, 0)) == 0b010
        assert inst.full_mask == 0b111


class TestMinCover:
    def test_two_singletons(self):
        inst = gf.SetCoverInstance(2, [[{0}], [{1}]])
        report = gf.min_cover_size(inst, cap=2)
        assert report.min_size == 2
        assert report.witness == ((0, 0), (1, 0))

    def test_triangle_pairs(self):
        inst = gf.SetCoverInstance(3, [[{0, 1}, {1, 2}, {0, 2}]])
        report = gf.min_cover_size(inst, cap=3)
        assert report.min_size == 2

    def test_no_cover(self):
        inst = gf.SetCoverInstance(1, [[set()]])
        report = gf.min_cover_size(inst, cap=1)
        assert report.min_size is None
        assert report.witness is None


class TestPartitionedCover:
    def test_positive(self):
        inst = gf.SetCoverInstance(2, [[{0}], [{1}]])
        ok, witness = gf.has_partitioned_cover(inst)
        assert ok and witness == ((0, 0), (1, 0))

    def test_negative(self):
        inst = gf.SetCoverInstance(2, [[{0}], [{0}]])
        ok, witness = gf.has_partitioned_cover(inst)
        assert not ok and witness is None

    def test_matches_independent_enumeration(self):
        rng = random.Random(21)
        for _ in range(30):
            inst = random_setcover_instance(rng)
            expected = any(
                frozenset().union(*choice) == frozenset(range(inst.universe_size))
                for choice in product(*inst.collections))
            assert gf.has_partitioned_cover(inst)[0] == expected


class TestCompose:
    def test_universe_size_formula(self):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        assert composed.universe_size == 3 * 2 ** 9 == 1536
        assert len(composed.membership_array((0, 0))) == 1536

    def test_completeness_matched_tuple_covers(self):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        ok, uncovered = composed.covers([(0, 0), (1, 0)])
        assert ok and uncovered is None

    def test_soundness_no_cover_at_all(self):
        base = gf.SetCoverInstance(2, [[{0}], [{0}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        size, combo, _ = composed.min_cover(2)
        assert size is None
        # the all-ones function on any part is uncovered
        ones = (1,) * composed.fsize
        assert not composed.contains((0, 0), (0, ones))
        assert not composed.contains((1, 0), (0, ones))

    def test_adversarial_witness_agrees_with_enumeration(self):
        from itertools import combinations
        rng = random.Random(8)
        code = gf.reed_solomon(3, 2)
        for _ in range(15):
            base = random_setcover_instance(rng)
            composed = gf.compose_setcover(base, code)
            refs = base.all_refs()
            for size in range(1, len(refs) + 1):
                for combo in combinations(refs, size):
                    covered, uncovered = composed.covers(combo)
                    adversarial = composed.uncovered_witness_adversarial(combo)
                    assert covered == (adversarial is None)
                    if not covered:
                        assert not any(composed.contains(r, uncovered) for r in combo)

    def test_membership_oracle_matches_arrays(self):
        base = gf.SetCoverInstance(2, [[{0}, {0, 1}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        rng = random.Random(0)
        for ref in base.all_refs():
            arr = composed.membership_array(ref)
            for _ in range(200):
                idx = rng.randrange(composed.universe_size)
                assert bool(arr[idx]) == composed.contains(ref, composed.element_of_index(idx))

    def test_membership_matches_full_bruteforce_small(self):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        code = gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)])
        composed = gf.compose_setcover(base, code)
        assert composed.universe_size == 2 * 2 ** 4
        ok_fast, _ = composed.covers([(0, 0), (1, 0)])
        ok_slow = oracles.setcover_covers_bruteforce(composed, [(0, 0), (1, 0)])
        assert ok_fast == ok_slow
        for ref in base.all_refs():
            arr = composed.membership_array(ref)
            for idx, elem in enumerate(composed.iter_universe()):
                assert bool(arr[idx]) == composed.contains(ref, elem)

    def test_matching_overflow(self):
        base = gf.SetCoverInstance(2, [[{0}, {1}, {0, 1}, {0}], [{1}]])
        with pytest.raises(MatchingOverflowError):
            gf.compose_setcover(base, gf.reed_solomon(3, 1))

    def test_universe_cap(self):
        base = gf.SetCoverInstance(3, [[{0}], [{1}]])
        with pytest.raises(UniverseCapError):
            gf.compose_setcover(base, gf.reed_solomon(3, 2), universe_cap=100)

    def test_materialize_round_trip(self):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        code = gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)])
        composed = gf.compose_setcover(base, code)
        explicit = composed.materialize()
        assert explicit.universe_size == composed.universe_size
        report = gf.min_cover_size(explicit, cap=2)
        assert report.min_size == 2


class TestCertificate:
    def test_completeness_ok(self):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        cert = gf.setcover_certificate(base, composed)
        assert cert.verdict == "completeness_ok"
        assert cert.collision_threshold == 3

    def test_soundness_ok(self):
        base = gf.SetCoverInstance(3, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        cert = gf.setcover_certificate(base, composed)
        assert cert.verdict == "soundness_ok"
        assert not cert.base_has_k_cover

    def test_vacuous_ok(self):
        # a 2-cover exists inside one collection, but never one-per-collection
        base = gf.SetCoverInstance(2, [[{0}, {1}], [set()]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        cert = gf.setcover_certificate(base, composed)
        assert cert.verdict == "vacuous_ok"

    def test_cap_below_collision_number(self):
        base = gf.SetCoverInstance(3, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        with pytest.raises(CapExceededError):
            gf.setcover_certificate(base, composed, cap=2)  # Col(RS(3,2)) = 3
        cert = gf.setcover_certificate(base, composed, cap=3)
        assert cert.verdict == "soundness_ok"

    def test_mutated_membership_violation(self):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        a0 = composed.membership_array((0, 0)).copy()
        a1 = composed.membership_array((1, 0))
        only_first = np.nonzero(a0 & ~a1)[0]
        a0[only_first[0]] = False
        composed._member_cache[(0, 0)] = a0
        cert = gf.setcover_certificate(base, composed)
        assert cert.verdict == "violation"
        assert cert.witness == composed.element_of_index(int(only_first[0]))


class TestSerialization:
    def test_round_trip(self):
        inst = gf.SetCoverInstance(3, [[{0, 1}, {2}], [{1}]], provenance="demo")
        doc = gf.setcover_to_json(inst)
        back = gf.setcover_from_json(doc)
        assert back.collections == inst.collections
        assert back.universe_size == 3
        assert back.provenance == "demo"

    def test_bad_tag(self):
        doc = gf.setcover_to_json(gf.SetCoverInstance(2, [[{0}], [{1}]]))
        doc["format"] = "other"
        with pytest.raises(SchemaVersionError):
            gf.setcover_from_json(doc)
