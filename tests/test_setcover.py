import random
from itertools import combinations, product

import pytest

import gapforge as gf
from gapforge import oracles, setcover
from gapforge.errors import (
    EmptyPartError,
    IndexRangeError,
    MatchingOverflowError,
    SchemaVersionError,
    UniverseCapError,
)
from gapforge.generators import random_setcover_instance


def criterion_7_base(rng, mode):
    """Acceptance criterion 7's mix: planted, singleton and unplanted bases."""
    if mode == 1:  # singleton sets: no two sets can cover |U| = 3
        colls = [[frozenset([rng.randrange(3)]) for _ in range(rng.randint(1, 3))]
                 for _ in range(2)]
        return gf.SetCoverInstance(3, colls, provenance="singletons")
    return random_setcover_instance(rng, plant_cover=mode == 0)


def plain_verdict(base):
    """The certificate verdict the base calls for, from plain set unions."""
    universe = frozenset(range(base.universe_size))
    if any(frozenset().union(*choice) == universe for choice in product(*base.collections)):
        return "completeness_ok"
    sets = [s for coll in base.collections for s in coll]
    if any(frozenset().union(*combo) == universe
           for size in range(1, base.k + 1) for combo in combinations(sets, size)):
        return "vacuous_ok"
    return "soundness_ok"


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
        assert sum(1 for _ in composed.iter_universe()) == 1536

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
        for value in (-1, 2):
            with pytest.raises(IndexRangeError):
                composed.contains((0, 0), (0, (value,) + ones[1:]))

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
                    assert covered == (uncovered is None)
                    if not covered:
                        assert not any(composed.contains(r, uncovered) for r in combo)

    @pytest.mark.parametrize("base,code,size", [
        pytest.param(gf.SetCoverInstance(2, [[{0}], [{1}]]),
                     gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)]), 32, id="u32"),
        pytest.param(gf.SetCoverInstance(2, [[{0}, {0, 1}], [{1}]]),
                     gf.reed_solomon(3, 2), 1536, id="u1536"),
    ])
    def test_materialize_matches_membership_definition(self, base, code, size):
        composed = gf.compose_setcover(base, code)
        explicit = composed.materialize()
        assert explicit.universe_size == composed.universe_size == size
        members = hits = 0
        for n, element in enumerate(composed.iter_universe()):
            for j, idx in base.all_refs():
                expected = oracles.setcover_member(composed, (j, idx), element)
                assert (n in explicit.collections[j][idx]) == expected
                members += 1
                hits += expected
        assert members == size * len(base.all_refs()) and 0 < hits < members
        refs = [(0, 0), (1, 0)]
        assert composed.covers(refs)[0] == oracles.setcover_covers_bruteforce(composed, refs)

    def test_covers_matches_definition_oracle(self):
        rng = random.Random(34)
        rs = gf.reed_solomon(3, 2)
        cases = [(random_setcover_instance(rng, max_universe=2), rs) for _ in range(30)]
        cases.append((gf.SetCoverInstance(2, [[{0}], [{1}]]),
                      gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)])))
        checked = covered = 0
        for base, code in cases:
            composed = gf.compose_setcover(base, code)
            refs = base.all_refs()
            for size in range(1, len(refs) + 1):
                for combo in combinations(refs, size):
                    expected = oracles.setcover_first_uncovered(composed, combo)
                    assert composed.covers(combo) == (expected is None, expected)
                    checked += 1
                    covered += expected is None
        assert covered and covered < checked

    def test_matching_overflow(self):
        base = gf.SetCoverInstance(2, [[{0}, {1}, {0, 1}, {0}], [{1}]])
        with pytest.raises(MatchingOverflowError):
            gf.compose_setcover(base, gf.reed_solomon(3, 1))

    def test_universe_cap(self):
        # 5 * 3**25 elements: composing and certifying never enumerate them
        base = gf.SetCoverInstance(3, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(5, 2))
        assert composed.universe_size == 5 * 3 ** 25
        with pytest.raises(UniverseCapError):
            composed.materialize()

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

    def test_mutated_membership_violation(self):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        per_part = list(composed._adj_ranks[(0, 0)])
        per_part[0] = tuple(a for a in per_part[0] if a != 0)
        composed._adj_ranks[(0, 0)] = tuple(per_part)
        cert = gf.setcover_certificate(base, composed)
        assert cert.verdict == "violation"
        first = next(e for e in composed.iter_universe()
                     if not any(composed.contains(ref, e) for ref in [(0, 0), (1, 0)]))
        assert cert.witness == first
        assert cert.witness == (0, (0, 1, 1, 0, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("q,count", [(5, 24), (7, 2)])
    def test_certificates_past_old_universe_cap(self, q, count):
        # every universe here has at least q * 2**(q*q) > 10**7 elements
        code = gf.reed_solomon(q, 2)
        rng = random.Random(70 + q)
        verdicts = []
        for n in range(count):
            base = criterion_7_base(rng, n % 3)
            composed = gf.compose_setcover(base, code)
            assert composed.universe_size == q * base.universe_size ** (q * q) > 10 ** 7
            cert = gf.setcover_certificate(base, composed)
            assert cert.verdict == plain_verdict(base)
            verdicts.append(cert.verdict)
            with pytest.raises(UniverseCapError):
                composed.materialize()
        assert {"completeness_ok", "soundness_ok"} <= set(verdicts)

    def test_partitioned_cover_searched_once(self, monkeypatch):
        calls = []
        inner = setcover.has_partitioned_cover

        def counted(instance, **kwargs):
            calls.append(instance)
            return inner(instance, **kwargs)

        monkeypatch.setattr(setcover, "has_partitioned_cover", counted)
        base = gf.SetCoverInstance(3, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        cert = gf.setcover_certificate(base, composed)
        assert cert.verdict == "soundness_ok"
        assert calls == [base]


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
