import random
from itertools import combinations, product

import pytest

import gapforge as gf
from gapforge import oracles, setcover
from gapforge.errors import (
    BudgetExceededError,
    CapExceededError,
    EmptyPartError,
    IndexRangeError,
    InstanceMismatchError,
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
        # a non-integer universe, element or collection is malformed input,
        # refused when the instance is built
        for universe, collections in ((3.5, [[{0}]]), (3, [[{"a"}]]), (3, [5]),
                                      (3, [[{1.5}]])):
            with pytest.raises(IndexRangeError):
                gf.SetCoverInstance(universe, collections)

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


def interleaved_singletons(per_collection):
    """k = 2, |U| = 3; set m of each collection is {m % 3}."""
    return gf.SetCoverInstance(3, [[{m % 3} for m in range(per_collection)]] * 2)


class TestPartitionedCover:
    def test_positive(self):
        report = gf.min_cover_size(gf.SetCoverInstance(2, [[{0}], [{1}]]), cap=0)
        assert report.partitioned_exists and report.partitioned_witness == ((0, 0), (1, 0))

    def test_negative(self):
        report = gf.min_cover_size(gf.SetCoverInstance(2, [[{0}], [{0}]]), cap=0)
        assert not report.partitioned_exists and report.partitioned_witness is None

    def test_matches_independent_enumeration(self):
        rng = random.Random(21)
        universe_sizes = set()
        for _ in range(30):
            inst = random_setcover_instance(rng, max_universe=4, k=rng.randint(1, 3))
            universe = frozenset(range(inst.universe_size))
            expected = next((tuple(enumerate(choice)) for choice in product(
                *(range(len(coll)) for coll in inst.collections))
                if frozenset().union(*(inst.collections[j][idx]
                                       for j, idx in enumerate(choice))) == universe), None)
            report = gf.min_cover_size(inst, cap=0)
            assert report.partitioned_exists == (expected is not None)
            assert report.partitioned_witness == expected
            universe_sizes.add(inst.universe_size)
        assert universe_sizes == {2, 3, 4}


class TestCoverSearch:
    """One pruned search decides base, partitioned and composed covers."""

    def test_base_min_cover_matches_oracle(self):
        rng = random.Random(55)
        outcomes = set()
        for _ in range(60):
            inst = random_setcover_instance(rng, max_universe=4, k=rng.randint(1, 3))
            cap = rng.randint(0, len(inst.all_refs()))
            report = gf.min_cover_size(inst, cap)
            expected = oracles.setcover_min_cover_bruteforce(inst, cap)
            assert (report.min_size, report.witness) == expected
            outcomes.add(expected[0])
        assert None in outcomes and {1, 2, 3} <= outcomes

    def test_composed_min_cover_matches_oracle(self):
        rng = random.Random(56)
        code = gf.reed_solomon(3, 2)
        outcomes = set()
        for n in range(18):
            if n % 3 == 0:
                base = random_setcover_instance(rng, max_universe=2)
            elif n % 3 == 1:  # sets of at most one element, up to four per collection
                base = gf.SetCoverInstance(2, [[rng.sample(range(2), rng.randint(0, 1))
                                                for _ in range(rng.randint(1, 4))]
                                               for _ in range(2)])
            else:  # singletons in one collection: covers need codeword collisions
                base = gf.SetCoverInstance(2, [[{rng.randrange(2)} for _ in range(
                    rng.randint(5, 9))], [set()]])
            composed = gf.compose_setcover(base, code)
            cap = len(base.all_refs())
            size, combo, _ = composed.min_cover(cap)
            assert (size, combo) == oracles.setcover_min_cover_bruteforce(composed, cap)
            outcomes.add(size)
        assert {None, 2} <= outcomes and max(outcomes - {None}) >= 4

    @pytest.mark.parametrize("q,refs,size,witness,examined", [
        (3, 18, 5, ((0, 0), (0, 1), (0, 3), (0, 4), (1, 2)), 4391),
        (5, 18, 6, ((0, 0), (0, 4), (0, 8), (1, 3), (1, 4), (1, 5)), 7678),
        (5, 24, 6, ((0, 0), (0, 1), (0, 8), (1, 2), (1, 3), (1, 10)), 32073),
        (7, 18, None, None, 0),
        (7, 24, None, None, 0),
    ])
    def test_interleaved_singleton_rows(self, q, refs, size, witness, examined):
        # An unpruned combinations search visits 4,159, 17,371 and 61,291
        # subsets for the first three rows and 262,143 for RS(7,2) with 18
        # refs; with 24 refs it runs past 3,000,000.  In part 1 of either
        # RS(7,2) row no A_i vertex is adjacent to sets holding all three
        # elements, even with every set chosen, so the search refutes the row
        # before its first ref.
        composed = gf.compose_setcover(interleaved_singletons(refs // 2),
                                       gf.reed_solomon(q, 2))
        assert composed.min_cover(refs) == (size, witness, examined)

    def test_budget_boundary(self, limit):
        base = interleaved_singletons(9)
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        examined = composed.min_cover(18)[2]
        with limit(setcover, "DEFAULT_SUBSET_BUDGET", examined):
            assert composed.min_cover(18)[2] == examined
        with limit(setcover, "DEFAULT_SUBSET_BUDGET", examined - 1), \
                pytest.raises(BudgetExceededError):
            composed.min_cover(18)
        examined = gf.min_cover_size(base, 2).subsets_examined
        with limit(setcover, "DEFAULT_SUBSET_BUDGET", examined):
            assert gf.min_cover_size(base, 2).subsets_examined == examined
        with limit(setcover, "DEFAULT_SUBSET_BUDGET", examined - 1), \
                pytest.raises(BudgetExceededError):
            gf.min_cover_size(base, 2)

    def test_negative_cap_raises(self):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        with pytest.raises(CapExceededError):
            gf.min_cover_size(base, -1)
        with pytest.raises(CapExceededError):
            composed.min_cover(-1)
        # a cap that is not an integer is refused the same way
        for cap in (2.5, "2"):
            with pytest.raises(CapExceededError, match="cover size cap must be an integer"):
                gf.min_cover_size(base, cap)
            with pytest.raises(CapExceededError, match="cover size cap must be an integer"):
                composed.min_cover(cap)
        assert composed.min_cover(0) == (None, None, 0)


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

    def test_k3_matches_definition_oracles(self):
        # q = 2, k = 3: f has 2**3 = 8 values, so part i has |U|**8 functions
        rng = random.Random(303)
        code = gf.random_code(2, 2, 3, seed=3)
        outcomes, matchings = set(), 0
        for n in range(24):
            if n % 3 == 0:
                base = random_setcover_instance(rng, max_universe=2, k=3, max_sets=2)
            elif n % 3 == 1:  # sets of at most one element
                base = gf.SetCoverInstance(2, [[rng.sample(range(2), rng.randint(0, 1))
                                                for _ in range(rng.randint(1, 3))]
                                               for _ in range(3)])
            else:  # singletons in one collection: covers need codeword collisions
                base = gf.SetCoverInstance(2, [[{rng.randrange(2)} for _ in range(
                    rng.randint(3, code.size))], [set()], [set()]])
            matching = None
            if n % 4 >= 2:
                matching = [rng.sample(range(code.size), len(coll)) for coll in base.collections]
                matchings += 1
            composed = gf.compose_setcover(base, code, matching)
            assert composed.fsize == 8
            refs = base.all_refs()
            for _ in range(20):
                element = (rng.randrange(code.ell), tuple(rng.randrange(2) for _ in range(8)))
                for ref in refs:
                    assert composed.contains(ref, element) == \
                        oracles.setcover_member(composed, ref, element)
            for size in range(1, len(refs) + 1):
                for combo in combinations(refs, size):
                    expected = oracles.setcover_first_uncovered(composed, combo)
                    assert composed.covers(combo) == (expected is None, expected)
            size, combo, _ = composed.min_cover(len(refs))
            assert (size, combo) == oracles.setcover_min_cover_bruteforce(composed, len(refs))
            outcomes.add(size)
        assert matchings and {None, 2, 3} <= outcomes

    def test_bad_refs_raise_index_range(self):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        with pytest.raises(IndexRangeError):
            composed.covers([(5, 0)])
        with pytest.raises(IndexRangeError):
            base.mask((3, 3))
        with pytest.raises(IndexRangeError):
            composed.contains([0, 0], (0, (0,) * composed.fsize))

    @pytest.mark.parametrize("element", [(0, 5), (0, (0,) * 9, 0), ("0", (0,) * 9)],
                             ids=["function_not_a_sequence", "three_tuple", "string_part"])
    def test_malformed_element_raises_index_range(self, element):
        composed = gf.compose_setcover(gf.SetCoverInstance(2, [[{0}], [{1}]]),
                                       gf.reed_solomon(3, 2))
        assert composed.fsize == 9 and composed.contains((0, 0), (0, (0,) * 9))
        with pytest.raises(IndexRangeError):
            composed.contains((0, 0), element)

    def test_constructor_checks_matching(self):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        code = gf.reed_solomon(3, 2)
        assert gf.ComposedSetCover(base, code).matching == ((0,), (0,))
        assert gf.ComposedSetCover(base, code, [[4], [2]]).matching == ((4,), (2,))
        for matching in ([[0], [0, 1]], [[0]], [[0], [9]]):
            with pytest.raises(MatchingOverflowError):
                gf.ComposedSetCover(base, code, matching)

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
        # one cap, one error family
        assert issubclass(UniverseCapError, CapExceededError)

    def test_composition_is_no_base(self):
        base = gf.SetCoverInstance(2, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)]))
        with pytest.raises(gf.GapforgeError, match=r"materialize\(\)"):
            gf.compose_setcover(composed, gf.reed_solomon(2, 1))
        again = gf.compose_setcover(composed.materialize(), gf.reed_solomon(2, 1))
        assert again.base.universe_size == composed.universe_size

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
        refs = [(0, 0), (1, 0)]
        witness = (0, (0, 1, 1, 0, 0, 0, 0, 0, 0))
        assert composed.contains((0, 0), witness)
        assert composed.covers(refs) == (True, None)
        assert gf.setcover_certificate(base, composed).verdict == "completeness_ok"
        # clear slot (0, 0), vertex 0 of A_0, in set (0, 0)'s vector: its one bit is element 0
        composed._vectors[(0, 0)] &= ~1
        assert not any(composed.contains(ref, witness) for ref in refs)
        assert composed.covers(refs) == (False, witness)
        cert = gf.setcover_certificate(base, composed)
        assert cert.verdict == "violation"
        first = next(e for e in composed.iter_universe()
                     if not any(composed.contains(ref, e) for ref in refs))
        assert cert.witness == first == witness
        # the definition oracle reads no vector, so the mutation does not reach it
        assert oracles.setcover_first_uncovered(composed, refs) is None

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
        calls, searches = [], []
        inner, search = setcover.min_cover_size, setcover._first_cover

        def counted(instance, cap, **kwargs):
            calls.append((instance, cap))
            return inner(instance, cap, **kwargs)

        def counted_search(refs, *args, **kwargs):
            searches.append(refs)
            return search(refs, *args, **kwargs)

        monkeypatch.setattr(setcover, "min_cover_size", counted)
        monkeypatch.setattr(setcover, "_first_cover", counted_search)
        base = gf.SetCoverInstance(3, [[{0}], [{1}]])
        composed = gf.compose_setcover(base, gf.reed_solomon(3, 2))
        cert = gf.setcover_certificate(base, composed)
        assert cert.verdict == "soundness_ok"
        # one base report (its minimum and partitioned searches), one composed search
        assert calls == [(base, 2)]
        assert searches == [base.all_refs()] * 3

    def test_mismatched_base_rejected(self):
        composed = gf.compose_setcover(gf.SetCoverInstance(2, [[{0}], [{1}]]),
                                       gf.reed_solomon(3, 2))
        # unchecked, the composed 2-cover of the |U| = 2 base reads as a violation
        with pytest.raises(InstanceMismatchError):
            gf.setcover_certificate(gf.SetCoverInstance(3, [[{0}], [{1}]]), composed)
        equal_copy = gf.SetCoverInstance(2, [[{0}], [{1}]])
        with pytest.raises(InstanceMismatchError):
            gf.setcover_certificate(equal_copy, composed)


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
