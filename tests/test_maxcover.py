import random
import sys
import threading
from fractions import Fraction
from itertools import product

import pytest

import gapforge as gf
from gapforge import codes, maxcover, oracles
from gapforge.errors import (
    CapExceededError,
    DegreeBoundError,
    EmptyPartError,
    IndexRangeError,
    InstanceMismatchError,
    MatchingOverflowError,
    NotPseudoProjectionError,
    NotTwoPartsError,
    SchemaVersionError,
)
from gapforge.generators import (
    random_bounded_degree_instance,
    random_cnf3,
    random_pseudo_projection_instance,
)
from gapforge.maxcover import FULL, PROJECTION, VIOLATION


def walkthrough_instance():
    """k=2, t=2; the single labeling covers W_1 only, so the value is 1/2."""
    # V = {v, u}; W_1 = {w1}, W_2 = {w2}; v-w1, u-w1, v-w2
    return gf.MaxCoverInstance((1, 1), (1, 1), [(0, 2), (1, 2), (0, 3)])


def soundness_instance():
    """k=2, t=1; disjoint unique neighbors force value 0."""
    return gf.MaxCoverInstance((1, 1), (2,), [(0, 2), (1, 3)])


def binary_code():
    """Explicit binary code with delta = 7/8 and two codewords."""
    return gf.explicit_code(2, 8, [(0,) * 8, (1, 1, 1, 1, 1, 1, 1, 0)])


# Codes for the differential tests, with generator limits: the binary code
# has two codewords, so right parts stay at two members, and RS(11,2) keeps
# t <= 2 so that a part's 11**t tuples stay few enough to scan.
DIFF_CODES = {
    "q2": (binary_code, {"max_part": 2}),
    "q3": (lambda: gf.reed_solomon(3, 2), {}),
    "q5": (lambda: gf.reed_solomon(5, 2), {}),
    "q11": (lambda: gf.reed_solomon(11, 2), {"max_t": 2}),
}


def wide_instance():
    """One-vertex right parts around a 70-vertex one, so rows span two words."""
    # V = 0..3; W_0 = {4}, W_1 = 5..74, W_2 = {75}
    nbrs = {0: [4] + list(range(5, 40)), 1: [74, 75],
            2: [4, 75] + list(range(35, 75)), 3: [5, 74]}
    return gf.MaxCoverInstance((2, 2), (1, 70, 1),
                               [(vg, wg) for vg, ws in nbrs.items() for wg in ws])


def random_composition(route, rng, code, limits):
    """A random base instance and its composition along one gap route."""
    if route == "gap":
        inst = random_pseudo_projection_instance(rng, **limits)
        return inst, gf.compose_gap(inst, code)
    inst = random_bounded_degree_instance(rng, 2, **limits)
    return inst, gf.compose_gap_k2_bounded(inst, code, 2)


class TestInstance:
    def test_empty_right_part_rejected(self):
        with pytest.raises(EmptyPartError):
            gf.MaxCoverInstance((1,), (0,), [])

    def test_trivial_value_one(self):
        inst = gf.MaxCoverInstance((1, 1), (1,), [(0, 2), (1, 2)])
        assert gf.maxcover_value(inst).value == 1

    def test_walkthrough_value_half(self):
        result = gf.maxcover_value(walkthrough_instance())
        assert result.value == Fraction(1, 2)
        assert result.labeling == (0, 0)

    def test_empty_left_part_value_zero(self):
        inst = gf.MaxCoverInstance((0, 1), (1,), [(0, 1)])
        result = gf.maxcover_value(inst)
        assert result.value == 0
        assert result.labeling is None

    def test_solver_matches_recount_oracle(self):
        rng = random.Random(5)
        for _ in range(30):
            inst = random_pseudo_projection_instance(rng)
            assert gf.maxcover_value(inst).value == oracles.maxcover_value_recount(inst)

    def test_lexicographically_first_maximizer(self):
        # two labelings reach the optimum; the solver must report (0, 0)
        inst = gf.MaxCoverInstance((2, 1), (1,), [(0, 3), (1, 3), (2, 3)])
        assert gf.maxcover_value(inst).labeling == (0, 0)

    def test_labeling_cap(self, monkeypatch):
        inst = gf.MaxCoverInstance((3, 3), (1,), [(0, 6)])
        with pytest.raises(gf.GapforgeError):
            gf.maxcover_value(inst, labeling_cap=8)
        # a malformed cap is refused before any labeling is evaluated
        evaluated = []
        covered = maxcover.MaxCoverInstance._covered_fields
        monkeypatch.setattr(maxcover.MaxCoverInstance, "_covered_fields",
                            lambda self, labeling: evaluated.append(labeling)
                            or covered(self, labeling))
        for cap in ("x", 2.5, -1):
            with pytest.raises(CapExceededError, match="labeling cap must be"):
                gf.maxcover_value(inst, labeling_cap=cap)
        assert evaluated == []
        assert gf.maxcover_value(inst, labeling_cap=9).labelings_examined == len(evaluated) > 0

    def test_out_of_range_ids_rejected(self):
        inst = soundness_instance()
        for g in (inst, gf.compose_gap(inst, gf.reed_solomon(3, 2)),
                  gf.compose_gap_k2_bounded(inst, gf.reed_solomon(5, 2), 2)):
            first_w, end = g.num_v, g.num_v + g.num_w
            # W ids before and past the W range (a V id among them), then V ids
            for vg, wg in ((0, -1), (0, 0), (0, first_w - 1), (0, end),
                           (-1, first_w), (g.num_v, first_w)):
                with pytest.raises(IndexRangeError):
                    g.adjacent(vg, wg)
            assert g.adjacent(0, first_w)
        # a packed part index past the last part must not read as uncovered
        for g in (gf.compose_gap(inst, gf.reed_solomon(3, 2)),
                  gf.compose_gap_k2_bounded(inst, gf.reed_solomon(5, 2), 2)):
            for l in (-1, g.t):
                with pytest.raises(IndexRangeError):
                    g.covered((0, 0), l)
        # no negative indexing or reads past a part, in a part or in a row
        composed = gf.compose_gap(inst, gf.reed_solomon(3, 2))
        for l, rank in ((0, -1), (0, 3), (-1, 0), (3, 0), (5, 0)):
            with pytest.raises(IndexRangeError):
                composed.w_global(l, rank)
        for vg, j in ((-1, 0), (composed.num_v, 0), (0, -1), (0, 3)):
            with pytest.raises(IndexRangeError):
                composed.neighbors_in_part(vg, j)
        for j in (-1, 1):
            with pytest.raises(IndexRangeError):
                inst.covered((0, 0), j)
        for vg, j in ((-1, 0), (inst.num_v, 0), (0, -1), (0, 3)):
            with pytest.raises(IndexRangeError):
                inst.neighbors_in_part(vg, j)

    def test_labelings_range_checked(self):
        inst = soundness_instance()
        composed = gf.compose_gap(inst, gf.reed_solomon(3, 2))
        # a short labeling used to be read as its prefix: 3 parts covered,
        # on an instance of value 1/3
        with pytest.raises(IndexRangeError):
            composed.covered_count((0,))
        for g in (inst, composed, gf.compose_gap_k2_bounded(inst, gf.reed_solomon(5, 2), 2)):
            for lab in ((), (0,), (0, 0, 0), (0, 5), (0, 1), (-1, 0), (0, -1)):
                with pytest.raises(IndexRangeError):
                    g.covered_count(lab)
                with pytest.raises(IndexRangeError):
                    g.covered(lab, 0)
            assert g.covered_count((0, 0)) == sum(g.covered((0, 0), j) for j in range(g.t))

    def test_id_conversions_range_checked(self):
        inst = gf.MaxCoverInstance((1, 1), (2,), [(0, 2), (1, 3)])
        assert inst.w_part_of(2) == (0, 0) and inst.w_part_of(3) == (0, 1)
        assert inst.w_global(0, 1) == 3 and inst.v_global(1, 0) == 1
        # a V id, ranks past a part, and negative parts or ranks
        for wg in (0, 1, -1, 4):
            with pytest.raises(IndexRangeError):
                inst.w_part_of(wg)
        for j, rank in ((0, 5), (0, 2), (0, -1), (1, 0), (-1, 0)):
            with pytest.raises(IndexRangeError):
                inst.w_global(j, rank)
        for i, rank in ((-1, 0), (2, 0), (0, 1), (1, -1)):
            with pytest.raises(IndexRangeError):
                inst.v_global(i, rank)


class TestProjectionProfile:
    def test_complete_bipartite_full(self):
        inst = gf.MaxCoverInstance((2,), (2,), [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert gf.projection_profile(inst).entries == ((FULL,),)

    def test_clique_frontend_pattern(self):
        # parts of size 2 keep PROJECTION and FULL entries distinguishable
        graph = gf.make_partitioned_graph(
            [(0, 1), (2, 3), (4, 5)],
            [(u, v) for u in (0, 1) for v in (2, 3)]
            + [(u, v) for u in (0, 1) for v in (4, 5)]
            + [(u, v) for u in (2, 3) for v in (4, 5)])
        inst = gf.clique_to_maxcover(graph)
        profile = gf.projection_profile(inst)
        # left super-node p indexes the part pair; projection exactly there
        pairs = [(0, 1), (0, 2), (1, 2)]
        for p, (i, j) in enumerate(pairs):
            for w in range(3):
                expected = PROJECTION if w in (i, j) else FULL
                assert profile.entry(p, w) == expected

    @pytest.mark.parametrize("source", ["gap", "k2", "clique", "sat", "violations"])
    def test_entries_match_adjacency_scan(self, source):
        # profiles read fields from rows; composed ones span several blocks
        rng = random.Random(23)
        code = gf.reed_solomon(3, 2)
        seen = set()
        for _ in range(12):
            for inst in _profile_instances(source, rng, code):
                entries = gf.projection_profile(inst).entries
                assert entries == oracles.projection_profile_by_adjacency(inst)
                seen.update(e for row in entries for e in row)
        # every source classifies at least two kinds; a seeded violating
        # base classifies all three
        assert len(seen) >= 2
        if source in ("k2", "violations"):
            assert seen == {PROJECTION, FULL, VIOLATION}

    @pytest.mark.parametrize("v_parts, w_parts, masks, expected", [
        # a zero field directly below a one-bit field, at either bit
        pytest.param((1,), (2, 2), [(0, 0b01)], ((VIOLATION, PROJECTION),),
                     id="zero-below-single-low"),
        pytest.param((2,), (2, 2), [(0, 0b10), (0b01, 0b01)], ((VIOLATION, PROJECTION),),
                     id="zero-below-single-high"),
        # a zero field directly below a full field
        pytest.param((1,), (2, 3), [(0, 0b111)], ((VIOLATION, FULL),), id="zero-below-full"),
        pytest.param((2,), (1, 2), [(0, 0b11), (1, 0b11)], ((VIOLATION, FULL),),
                     id="zero-width-1-below-full"),
        # width-1 fields: one bit is both single and full, so PROJECTION
        pytest.param((2,), (1, 1, 1), [(1, 0, 1), (1, 1, 1)],
                     ((PROJECTION, VIOLATION, PROJECTION),), id="width-1"),
        pytest.param((1, 2), (1, 1), [(0, 1), (1, 1), (1, 0)],
                     ((VIOLATION, PROJECTION), (PROJECTION, VIOLATION)), id="width-1-zeros"),
        # an empty V part is vacuously FULL, next to parts that are not
        pytest.param((0, 1, 0), (2, 1), [(0b10, 1)],
                     ((FULL, FULL), (PROJECTION, PROJECTION), (FULL, FULL)), id="empty-v"),
        # a field of more than one bit that is not full
        pytest.param((1,), (3, 1), [(0b101, 1)], ((VIOLATION, PROJECTION),),
                     id="two-of-three"),
    ])
    def test_explicit_fields(self, v_parts, w_parts, masks, expected):
        inst = gf.MaxCoverInstance.from_masks(v_parts, w_parts, masks)
        assert gf.projection_profile(inst).entries == expected
        assert oracles.projection_profile_by_adjacency(inst) == expected

    def test_multi_block_composed_rows(self):
        # v = 0 meets no member of W_0, so block 0 of its composed row is
        # all zero fields, each directly below a one-hot field of block 1
        base = gf.MaxCoverInstance.from_masks((1, 1), (2, 1), [(0, 1), (0b01, 1)])
        for code in (gf.reed_solomon(3, 2), gf.reed_solomon(2, 1)):
            composed = gf.compose_gap_k2_bounded(base, code, 1)
            expected = ((VIOLATION,) * code.ell, (PROJECTION,) * code.ell)
            assert gf.projection_profile(composed).entries == expected
            assert oracles.projection_profile_by_adjacency(composed) == expected
        # a full base field ORs its whole part: codewords (0, 0, 0) and
        # (0, 1, 2) leave one symbol at coordinate 0 and two, of q = 3, at
        # the others
        base = gf.MaxCoverInstance.from_masks((1, 1), (2, 1), [(0b11, 1), (0b01, 1)])
        composed = gf.compose_gap_k2_bounded(base, gf.reed_solomon(3, 2), 2)
        expected = ((PROJECTION, VIOLATION, VIOLATION), (PROJECTION,) * 3)
        assert gf.projection_profile(composed).entries == expected
        assert oracles.projection_profile_by_adjacency(composed) == expected

    def test_zero_field_borrows_nothing(self):
        # the two-bit test without OR-ing top first: field 0 is zero, so
        # x - ones borrows from field 1, whose one bit then reads as two
        inst = gf.MaxCoverInstance.from_masks((1,), (2, 2), [(0, 0b01)])
        x, low, top, ones = inst._rows[0], inst._low, inst._top, inst._ones

        def nonzero(v):
            return ((v & low) + low | v) & top

        field_1_top = 1 << 3
        assert nonzero(x & (x - ones)) & field_1_top
        assert not nonzero(x & ((x | top) - ones)) & field_1_top
        assert gf.projection_profile(inst).entry(0, 1) == PROJECTION

    def test_violation(self):
        inst = gf.MaxCoverInstance((1,), (2, 1), [(0, 1), (0, 2), (0, 3)])
        profile = gf.projection_profile(inst)
        assert profile.entry(0, 0) == FULL  # both of W_1
        inst2 = gf.MaxCoverInstance((2,), (2,), [(0, 2), (0, 3), (1, 2)])
        profile2 = gf.projection_profile(inst2)
        assert profile2.entry(0, 0) == VIOLATION
        assert not profile2.is_pseudo_projection


def _profile_instances(source, rng, code):
    """Instances of one kind for the profile test, drawn from rng."""
    if source in ("gap", "k2"):
        return random_composition(source, rng, code, {})
    if source == "clique":
        graph = gf.colorful_lift(gf.make_graph(4, [(u, v) for u in range(4)
                                                   for v in range(u + 1, 4)
                                                   if rng.random() < 0.7]), 3)
        result = gf.clique_to_maxcover(graph)
        return [] if isinstance(result, gf.DecidedNo) else [result]
    if source == "sat":
        return [gf.sat_to_maxcover(random_cnf3(rng), rng.randint(1, 2))]
    # arbitrary masks, empty left parts included, so all three kinds occur
    v_parts = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
    w_parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    masks = [[rng.choice((1 << rng.randrange(w), (1 << w) - 1, rng.randrange(1 << w)))
              for w in w_parts] for _ in range(sum(v_parts))]
    return [gf.MaxCoverInstance.from_masks(v_parts, w_parts, masks)]


class TestComposeGap:
    def test_completeness_value_one(self):
        # two labels with unique shared neighbors w_1, w_2
        inst = gf.MaxCoverInstance((1, 1), (1, 1), [(0, 2), (1, 2), (0, 3), (1, 3)])
        assert gf.maxcover_value(inst).value == 1
        composed = gf.compose_gap(inst, gf.reed_solomon(3, 2))
        assert gf.maxcover_value(composed).value == 1

    def test_soundness_exact_value(self):
        inst = soundness_instance()
        assert gf.maxcover_value(inst).value == 0
        composed = gf.compose_gap(inst, gf.reed_solomon(3, 2))
        value = gf.maxcover_value(composed).value
        # codewords (0,0,0) and (0,1,2) agree only at coordinate 0
        assert value == Fraction(1, 3)
        assert value <= 1 - gf.relative_distance(gf.reed_solomon(3, 2)).delta

    def test_soundness_distance_one_code(self):
        composed = gf.compose_gap(soundness_instance(), gf.reed_solomon(3, 1))
        assert gf.maxcover_value(composed).value == 0

    def test_rejects_violation(self):
        inst = gf.MaxCoverInstance((2,), (2,), [(0, 2), (0, 3), (1, 2)])
        with pytest.raises(NotPseudoProjectionError):
            gf.compose_gap(inst, gf.reed_solomon(3, 2))

    def test_matching_overflow(self):
        inst = gf.MaxCoverInstance((1,), (4,), [(0, w) for w in range(1, 5)])
        with pytest.raises(MatchingOverflowError):
            gf.compose_gap(inst, gf.reed_solomon(3, 1))  # only 3 codewords

    def test_default_words_built_once_per_shape(self):
        # more shapes than the 256 of a bounded cache, each composed with one
        # code: the code keeps every shape's words, none is rebuilt
        code = gf.reed_solomon(5, 2)
        first = None
        for a in range(1, 18):
            for b in range(1, 18):
                base = gf.MaxCoverInstance.from_masks((1,), (a, b), [(1, 1 << (b - 1))])
                composed = gf.compose_gap(base, code)
                first = first or (base, composed)
                # an explicit matching builds its words directly, to the same rows
                explicit = gf.compose_gap(base, code, [range(a), range(b)])
                assert composed.matching == explicit.matching == (
                    tuple(range(a)), tuple(range(b)))
                assert composed._rows == explicit._rows
        assert len(code._default_words) == 17 * 17
        again = gf.compose_gap(first[0], code)
        assert again.matching is first[1].matching
        assert again._rows == gf.compose_gap(first[0], code, [[0], [0]])._rows
        # a code of another shape keeps its own words
        other = gf.compose_gap(first[0], gf.reed_solomon(3, 2))
        assert other._rows != first[1]._rows

    def test_kept_words_shared_across_threads(self):
        # threads compose one shared code on overlapping shapes with a short
        # switch interval: a shape's words may be built twice, never wrongly
        code = gf.reed_solomon(5, 2)
        shapes = [(a, b) for a in range(1, 9) for b in range(1, 9)]
        bases = [gf.MaxCoverInstance.from_masks((1,), shape, [(1, 1)]) for shape in shapes]
        expected = [gf.compose_gap(base, code, [range(a), range(b)])._rows
                    for base, (a, b) in zip(bases, shapes)]
        wrong = []

        def work(offset):
            for n in range(len(shapes)):
                n = (n + offset) % len(shapes)
                if gf.compose_gap(bases[n], code)._rows != expected[n]:
                    wrong.append(shapes[n])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert sorted(code._default_words) == shapes

    @pytest.mark.parametrize("route", ["gap", "k2"])
    def test_kept_words_match_existential(self, route, limit):
        # bases with full fields (planted covers) and k = 2 bounded bases,
        # composed twice per code, so the second composition reads the
        # words the code kept; RS(5,2) past its cap packs from the encoder
        rng = random.Random(f"kept-words/{route}")
        suite = [gf.reed_solomon(3, 2), gf.reed_solomon(5, 2)]
        with limit(codes, "DEFAULT_ENUM_CAP", 10):
            suite.append(gf.reed_solomon(5, 2))
        with pytest.raises(CapExceededError):
            suite[2].table()
        full_fields = 0
        for _ in range(8):
            if route == "gap":
                base = random_pseudo_projection_instance(rng, plant_cover=True)
            else:
                base = random_bounded_degree_instance(rng, 2)
            full_fields += sum(row.count(FULL) for row in gf.projection_profile(base).entries)
            rows = []
            for code in suite:
                composed, again = (gf.compose_gap(base, code) if route == "gap" else
                                   gf.compose_gap_k2_bounded(base, code, 2)
                                   for _ in range(2))
                assert again._rows == composed._rows
                assert again.matching is composed.matching
                rows.append(again._rows)
                for vg in range(composed.num_v):
                    for l in range(composed.t):
                        for rank, tup in enumerate(product(range(code.q), repeat=base.t)):
                            assert again.adjacent(vg, again.w_global(l, rank)) == \
                                oracles.composed_adjacent_bruteforce(
                                    base, code, again.matching, vg, l, tup)
            # the table-less RS(5,2) composes as the stored one
            assert rows[1] == rows[2]
        assert full_fields > 0

    def test_accepts_exactly_pseudo_projections(self):
        # compose_gap's mask test against the profile from adjacent() alone,
        # on masks that make every kind of entry, violations included
        rng = random.Random(41)
        code = gf.reed_solomon(3, 2)
        outcomes = set()
        for _ in range(300):
            inst = _profile_instances("violations", rng, code)[0]
            entries = oracles.projection_profile_by_adjacency(inst)
            violations = tuple((i, j) for i, row in enumerate(entries)
                               for j, entry in enumerate(row) if entry == VIOLATION)
            outcomes.add((bool(violations), any(FULL in row for row in entries)))
            if violations:
                with pytest.raises(NotPseudoProjectionError) as err:
                    gf.compose_gap(inst, code)
                assert str(violations) in str(err.value)
            else:
                assert gf.compose_gap(inst, code).base is inst
        # accepted instances with full fields, rejected ones of both kinds
        assert outcomes == {(False, True), (False, False), (True, True), (True, False)}

    def test_matching_override(self):
        inst = soundness_instance()
        code = gf.reed_solomon(3, 2)
        default = gf.maxcover_value(gf.compose_gap(inst, code)).value
        swapped = gf.compose_gap(inst, code, matching=[(8, 4)])
        value = gf.maxcover_value(swapped).value
        delta = gf.relative_distance(code).delta
        assert value <= 1 - delta
        identity = gf.compose_gap(inst, code, matching=[(0, 1)])
        assert gf.maxcover_value(identity).value == default

    @pytest.mark.parametrize("qname", list(DIFF_CODES))
    @pytest.mark.parametrize("route", ["gap", "k2"])
    def test_product_decomposition_matches_existential(self, route, qname):
        rng = random.Random(99)
        make_code, limits = DIFF_CODES[qname]
        code = make_code()
        for _ in range(25):
            inst, composed = random_composition(route, rng, code, limits)
            for vg in range(composed.num_v):
                for l in range(composed.t):
                    for rank, tup in enumerate(product(range(code.q), repeat=inst.t)):
                        assert composed.adjacent(vg, composed.w_global(l, rank)) == \
                            oracles.composed_adjacent_bruteforce(
                                inst, code, composed.matching, vg, l, tup)

    def test_unmaterialized_code_composes_like_stored(self, limit):
        # RS(5,3) past its cap packs each matched word from the encoder
        rng = random.Random(5)
        stored = gf.reed_solomon(5, 3)
        with limit(codes, "DEFAULT_ENUM_CAP", 10):
            unmaterialized = gf.reed_solomon(5, 3)
        for _ in range(5):
            inst = random_pseudo_projection_instance(rng, max_t=2)
            matching = [rng.sample(range(stored.size), size) for size in inst.w_parts]
            a = gf.compose_gap(inst, stored, matching)
            b = gf.compose_gap(inst, unmaterialized, matching)
            for vg in range(a.num_v):
                for l in range(a.t):
                    for rank, tup in enumerate(product(range(5), repeat=inst.t)):
                        expected = oracles.composed_adjacent_bruteforce(
                            inst, stored, a.matching, vg, l, tup)
                        assert a.adjacent(vg, a.w_global(l, rank)) == expected
                        assert b.adjacent(vg, b.w_global(l, rank)) == expected
            assert gf.maxcover_value(b) == gf.maxcover_value(a)

    @pytest.mark.parametrize("route,qname", [
        *((route, qname) for route in ("gap", "k2") for qname in DIFF_CODES),
        pytest.param("base", None, id="base")])
    def test_coverage_matches_vertex_scan(self, route, qname):
        rng = random.Random(17)
        if route == "base":
            instances = [random_pseudo_projection_instance(rng) for _ in range(10)]
            instances.append(wide_instance())
        else:
            make_code, limits = DIFF_CODES[qname]
            code = make_code()
            instances = [random_composition(route, rng, code, limits)[1] for _ in range(10)]
        for inst in instances:
            for lab in product(*(range(s) for s in inst.v_parts)):
                scans = [oracles.covered_by_scan(inst, lab, l) for l in range(inst.t)]
                assert [inst.covered(lab, l) for l in range(inst.t)] == scans
                assert inst.covered_count(lab) == sum(scans)
            if route == "base":
                edges = set(inst.edges)
                for vg in range(inst.num_v):
                    for wg in range(inst.num_v, inst.num_v + inst.num_w):
                        assert inst.adjacent(vg, wg) == ((vg, wg) in edges)

    @pytest.mark.parametrize("matched", ["default", "random"])
    def test_full_fields_match_existential(self, matched):
        # clique rows are full on t - 2 of the t parts, so their composed
        # blocks come from the once-per-part OR of the matched words
        rng = random.Random(f"full-fields/{matched}")
        code = gf.reed_solomon(3, 2)
        checked = 0
        while checked < 4:
            n = rng.randint(2, 3)
            graph = gf.colorful_lift(gf.make_graph(n, [(u, v) for u in range(n)
                                                       for v in range(u + 1, n)
                                                       if rng.random() < 0.8]), 3)
            inst = gf.clique_to_maxcover(graph)
            if isinstance(inst, gf.DecidedNo):
                continue
            checked += 1
            matching = None if matched == "default" else [
                rng.sample(range(code.size), size) for size in inst.w_parts]
            composed = gf.compose_gap(inst, code, matching)
            assert {gf.projection_profile(inst).entry(i, j)
                    for i in range(inst.k) for j in range(inst.t)} == {PROJECTION, FULL}
            for vg in range(composed.num_v):
                for l in range(composed.t):
                    for rank, tup in enumerate(product(range(code.q), repeat=inst.t)):
                        assert composed.adjacent(vg, composed.w_global(l, rank)) == \
                            oracles.composed_adjacent_bruteforce(
                                inst, code, composed.matching, vg, l, tup)
            for lab in product(*(range(s) for s in composed.v_parts)):
                scans = [oracles.covered_by_scan(composed, lab, l) for l in range(composed.t)]
                assert [composed.covered(lab, l) for l in range(composed.t)] == scans

    def test_materialize_preserves_value_and_edges(self):
        inst = soundness_instance()
        composed = gf.compose_gap(inst, gf.reed_solomon(3, 2))
        explicit = composed.materialize()
        assert gf.maxcover_value(explicit).value == gf.maxcover_value(composed).value
        for vg in range(composed.num_v):
            for wg in range(composed.num_v, composed.num_v + composed.num_w):
                assert explicit.adjacent(vg, wg) == composed.adjacent(vg, wg)

    def test_materialize_edge_cap(self, monkeypatch):
        # 70 V-vertices times 11 parts of 11**3 A-vertices: 1,024,870
        # candidate pairs, past DEFAULT_EDGE_CAP before any pair is tested
        inst = gf.MaxCoverInstance.from_masks((70,), (1, 1, 1), [[1, 1, 1]] * 70)
        composed = gf.compose_gap(inst, gf.reed_solomon(11, 2))
        assert composed.num_v * composed.num_w == 1_024_870

        def no_test(*args):
            raise AssertionError("materialize listed an edge past the cap")

        monkeypatch.setattr(maxcover, "_ranks", no_test)
        with pytest.raises(CapExceededError, match="1024870 candidate edges"):
            composed.materialize()


class TestOneInstanceType:
    def test_composition_is_no_base(self):
        # a two-block composition's row bits are not its W vertices: read as
        # a base, this one composed to 2/3 where its graph composes to 1/3
        base = gf.MaxCoverInstance((1, 2), (2, 2),
                                   [(0, 3), (0, 5), (1, 4), (1, 6), (2, 4), (2, 5)])
        composed = gf.compose_gap(base, gf.reed_solomon(2, 1))
        code = gf.reed_solomon(3, 2)
        # d = 0 would fail the degree check, which comes after this one
        for compose in (lambda b: gf.compose_gap(b, code),
                        lambda b: gf.compose_gap_k2_bounded(b, code, 0)):
            with pytest.raises(gf.GapforgeError, match=r"materialize\(\)") as exc:
                compose(composed)
            assert exc.type is gf.GapforgeError
        explicit = composed.materialize()
        assert gf.maxcover_value(gf.compose_gap(explicit, code)).value == Fraction(1, 3)

    def test_one_block_composition_composes_as_its_graph(self):
        # a base with one right part composes to one block, whose row bits
        # are its W vertices, so it composes like its materialization
        composed = gf.compose_gap(soundness_instance(), gf.reed_solomon(3, 2))
        assert len(composed._block_starts) == 1
        code = gf.reed_solomon(5, 2)
        again = gf.compose_gap(composed, code)
        assert again._rows == gf.compose_gap(composed.materialize(), code)._rows
        assert gf.maxcover_value(again) == gf.maxcover_value(
            gf.compose_gap(composed.materialize(), code))

    @pytest.mark.parametrize("route", ["gap", "k2"])
    def test_accessors_agree_with_adjacency(self, route):
        rng = random.Random(f"accessors/{route}")
        code = gf.reed_solomon(3, 2)
        for _ in range(15):
            inst, composed = random_composition(route, rng, code, {})
            num_v = composed.num_v
            assert composed.w_parts == (3 ** inst.t,) * 3
            assert composed.num_w == 3 * 3 ** inst.t
            scan = tuple((vg, wg) for vg in range(num_v)
                         for wg in range(num_v, num_v + composed.num_w)
                         if composed.adjacent(vg, wg))
            assert composed.edges == scan
            assert composed.num_edges == len(scan)
            assert repr(composed).endswith(f"|E|={len(scan)})")
            explicit = composed.materialize()
            assert explicit.edges == scan and explicit.base is inst
            assert explicit.code is explicit.matching is None
            for vg in range(num_v):
                for j in range(composed.t):
                    ranks = composed.neighbors_in_part(vg, j)
                    assert ranks == explicit.neighbors_in_part(vg, j)
                    assert ranks == tuple(p for p in range(composed.w_parts[j])
                                          if composed.adjacent(vg, composed.w_global(j, p)))
            for j in range(composed.t):
                for p in range(composed.w_parts[j]):
                    # W offsets are part sizes, 3**t apart, not field starts
                    assert composed.w_global(j, p) == num_v + j * 3 ** inst.t + p
                    assert composed.w_part_of(composed.w_global(j, p)) == (j, p)

    def test_describe(self):
        inst = soundness_instance()
        composed = gf.compose_gap(inst, gf.reed_solomon(3, 2))
        assert composed.describe() == {
            "k": 2, "t": 3, "v_parts": [1, 1], "w_parts": [3, 3, 3], "oracle": True,
            "provenance": "compose_gap(instance; reed_solomon q=3 r=2 ell=3)"}
        assert composed.materialize().describe()["oracle"] is False
        assert inst.describe()["oracle"] is False

    def test_multi_block_edges_capped(self, monkeypatch):
        inst = gf.MaxCoverInstance.from_masks((70,), (1, 1, 1), [[1, 1, 1]] * 70)
        composed = gf.compose_gap(inst, gf.reed_solomon(11, 2))

        def no_list(*args):
            raise AssertionError("edges listed past the cap")

        monkeypatch.setattr(maxcover, "_ranks", no_list)
        with pytest.raises(CapExceededError, match="1024870 candidate edges"):
            composed.edges
        # one block lists its row bits whatever |V|·|W|
        monkeypatch.undo()
        wide = gf.MaxCoverInstance.from_masks((1100,), (1000,), [[1]] * 1100)
        assert wide.edges == tuple((vg, 1100) for vg in range(1100))

    def test_parts_must_be_given(self):
        for v_parts, w_parts in (((), (1,)), ((1,), ())):
            with pytest.raises(EmptyPartError):
                gf.MaxCoverInstance(v_parts, w_parts, [])


class TestComposeK2Bounded:
    def test_d1_reproduces_compose_gap(self):
        # d=1 neighborhoods: all projections plus a singleton full column
        inst = gf.MaxCoverInstance((2, 2), (2, 1), [
            (0, 4), (1, 5), (2, 4), (3, 5),
            (0, 6), (1, 6), (2, 6), (3, 6)])
        code = gf.reed_solomon(3, 2)
        a = gf.compose_gap(inst, code)
        b = gf.compose_gap_k2_bounded(inst, code, 1)
        for vg in range(a.num_v):
            for wg in range(a.num_v, a.num_v + a.num_w):
                assert a.adjacent(vg, wg) == b.adjacent(vg, wg)

    def test_not_two_parts(self):
        inst = gf.MaxCoverInstance((1,), (1,), [(0, 1)])
        with pytest.raises(NotTwoPartsError):
            gf.compose_gap_k2_bounded(inst, gf.reed_solomon(3, 2), 2)

    def test_degree_bound_enforced(self):
        inst = gf.MaxCoverInstance((1, 1), (3,), [(0, 2), (0, 3), (0, 4), (1, 2)])
        with pytest.raises(DegreeBoundError):
            gf.compose_gap_k2_bounded(inst, gf.reed_solomon(5, 2), 2)

    def test_d2_completeness(self):
        inst = gf.MaxCoverInstance((1, 1), (2,), [(0, 2), (0, 3), (1, 3)])
        assert gf.maxcover_value(inst).value == 1
        composed = gf.compose_gap_k2_bounded(inst, gf.reed_solomon(5, 2), 2)
        assert gf.maxcover_value(composed).value == 1

    def test_d2_soundness_near_one_distance(self):
        # explicit binary code with delta = 7/8; bound d^2 (1-delta) = 1/2
        code = gf.explicit_code(2, 8, [(0,) * 8, (1, 1, 1, 1, 1, 1, 1, 0)])
        inst = gf.MaxCoverInstance((1, 1), (2, 2), [
            (0, 2), (0, 4), (1, 3), (1, 5)])
        assert gf.maxcover_value(inst).value < 1
        composed = gf.compose_gap_k2_bounded(inst, code, 2)
        value = gf.maxcover_value(composed).value
        assert value <= Fraction(1, 2)

    def test_adjacency_matches_neighborhood_existential(self):
        rng = random.Random(3)
        code = gf.reed_solomon(5, 2)
        for _ in range(10):
            inst = random_bounded_degree_instance(rng, 2)
            composed = gf.compose_gap_k2_bounded(inst, code, 2)
            for vg in range(composed.num_v):
                for l in range(composed.t):
                    for rank, tup in enumerate(product(range(code.q), repeat=inst.t)):
                        expect = all(
                            any(code.codeword(composed.matching[j][p])[l] == tup[j]
                                for p in inst.neighbors_in_part(vg, j))
                            for j in range(inst.t))
                        assert composed.adjacent(vg, composed.w_global(l, rank)) == expect


class TestGapCertificate:
    def test_completeness_ok(self):
        inst = gf.MaxCoverInstance((1, 1), (1, 1), [(0, 2), (1, 2), (0, 3), (1, 3)])
        code = gf.reed_solomon(3, 2)
        cert = gf.gap_certificate(inst, gf.compose_gap(inst, code), Fraction(2, 3))
        assert cert.verdict == "completeness_ok"

    def test_soundness_ok(self):
        inst = soundness_instance()
        code = gf.reed_solomon(3, 2)
        cert = gf.gap_certificate(inst, gf.compose_gap(inst, code), Fraction(2, 3))
        assert cert.verdict == "soundness_ok"
        assert cert.value_after <= Fraction(2, 3)

    def test_vacuous_delta_zero(self):
        # a bound of 1 - 0 = 1 can never be exceeded: vacuous SOUNDNESS_OK
        inst = soundness_instance()
        composed = gf.compose_gap(inst, gf.reed_solomon(3, 2))
        cert = gf.gap_certificate(inst, composed, Fraction(0))
        assert cert.verdict == "soundness_ok"

    def test_mutation_flags_violation(self):
        inst = soundness_instance()
        code = gf.reed_solomon(3, 2)
        composed = gf.compose_gap(inst, code).materialize()
        # part 1 is uncovered because u requires symbol 1 there; adding the
        # missing edge (u, a=(1, (0,))) makes part 1 covered
        wg = composed.num_v + 1 * 3 + 0
        edges = set(composed.edges) | {(1, wg)}
        mutated = gf.MaxCoverInstance(composed.v_parts, composed.w_parts, edges)
        cert = gf.gap_certificate(inst, mutated, Fraction(2, 3))
        assert cert.verdict == "violation"
        assert cert.witness is not None
        assert mutated.covered_count(cert.witness) > Fraction(1, 3) * 3
        assert cert.labelings_examined == gf.maxcover_value(mutated).labelings_examined

    def test_bound_factor_scales_soundness(self):
        # the composed value 1/3 exceeds 1 - 3/4 but not 2 * (1 - 3/4)
        inst = soundness_instance()
        composed = gf.compose_gap(inst, gf.reed_solomon(3, 2))
        assert gf.gap_certificate(inst, composed, Fraction(3, 4)).verdict == "violation"
        cert = gf.gap_certificate(inst, composed, Fraction(3, 4), 2)
        assert cert.verdict == "soundness_ok"
        # int and Fraction arguments give the same record
        same = gf.gap_certificate(inst, composed, Fraction(3, 4), Fraction(2))
        assert cert.to_json() == same.to_json()
        assert isinstance(cert.bound_factor, Fraction)

    def test_integer_bound_matches_fractions(self):
        # the soundness test in integers against value <= factor * (1 - delta)
        # in Fractions, equality included; an explicit instance with one
        # labeling covering c of t parts has value c/t
        base = soundness_instance()
        for t in range(1, 7):
            for c in range(t + 1):
                composed = gf.MaxCoverInstance.from_masks(
                    (1,), (1,) * t, [[1] * c + [0] * (t - c)])
                for delta in {Fraction(n, d) for d in range(1, 7) for n in range(d + 1)}:
                    for factor in (1, 2, Fraction(3, 2), Fraction(4, 9)):
                        cert = gf.gap_certificate(base, composed, delta, factor)
                        sound = Fraction(c, t) <= factor * (1 - delta)
                        assert cert.verdict == ("soundness_ok" if sound else "violation")
                        assert (cert.value_after, cert.delta, cert.bound_factor) == (
                            Fraction(c, t), delta, factor)

    def test_composition_of_another_base_rejected(self):
        # soundness_instance has value 0; the composition of a value-1 base
        # must not be read as a failed soundness bound
        yes_base = gf.MaxCoverInstance((1, 1), (1, 1), [(0, 2), (1, 2), (0, 3), (1, 3)])
        no_base = soundness_instance()
        code = gf.reed_solomon(3, 2)
        composed = gf.compose_gap(yes_base, code)
        with pytest.raises(InstanceMismatchError):
            gf.gap_certificate(no_base, composed, Fraction(2, 3))
        with pytest.raises(InstanceMismatchError):
            gf.gap_certificate(soundness_instance(), gf.compose_gap(no_base, code),
                               Fraction(2, 3))
        assert gf.gap_certificate(yes_base, composed, Fraction(2, 3)).verdict \
            == "completeness_ok"

    def test_materialized_composition_keeps_its_base(self):
        yes_base = gf.MaxCoverInstance((1, 1), (1, 1), [(0, 2), (1, 2), (0, 3), (1, 3)])
        no_base = soundness_instance()
        explicit = gf.compose_gap(yes_base, gf.reed_solomon(3, 2)).materialize()
        assert explicit.base is yes_base and yes_base.base is None
        with pytest.raises(InstanceMismatchError):
            gf.gap_certificate(no_base, explicit, Fraction(2, 3))
        assert gf.gap_certificate(yes_base, explicit, Fraction(2, 3)).verdict \
            == "completeness_ok"

    def test_certify_composition_entry_point(self):
        from gapforge.maxcover import certify_composition
        cert = certify_composition(soundness_instance(), gf.reed_solomon(3, 2))
        assert cert.verdict == "soundness_ok"
        cert_d = certify_composition(soundness_instance(), gf.reed_solomon(5, 2), d=2)
        assert cert_d.verdict == "soundness_ok"


class TestSerialization:
    def test_round_trip(self):
        inst = walkthrough_instance()
        doc = gf.maxcover_to_json(inst)
        back = gf.maxcover_from_json(doc)
        assert back.v_parts == inst.v_parts
        assert back.w_parts == inst.w_parts
        assert back.edges == inst.edges

    def test_bad_tag(self):
        doc = gf.maxcover_to_json(walkthrough_instance())
        doc["format"] = "nope"
        with pytest.raises(SchemaVersionError):
            gf.maxcover_from_json(doc)


def generator_instances():
    """Seeded instances from both MaxCover generators, under several limits."""
    rng = random.Random(41)
    out = []
    for _ in range(40):
        out.append(random_pseudo_projection_instance(rng))
        out.append(random_pseudo_projection_instance(rng, max_k=4, max_t=3, max_part=5,
                                                     plant_cover=False))
        out.append(random_bounded_degree_instance(rng, rng.randint(0, 3)))
        out.append(random_bounded_degree_instance(rng, 2, max_part=4, plant_cover=True))
    return out


class TestFromMasks:
    def test_matches_edge_constructor(self):
        # V = 0..2; W_0 = {3, 4}, W_1 = {5}, W_2 = 6..8
        masks = [(0b01, 1, 0b101), (0b11, 0, 0b000), (0b10, 1, 0b111)]
        inst = gf.MaxCoverInstance.from_masks((2, 1), (2, 1, 3), masks, provenance="p")
        edges = [(0, 3), (0, 5), (0, 6), (0, 8), (1, 3), (1, 4),
                 (2, 4), (2, 5), (2, 6), (2, 7), (2, 8)]
        assert inst.edges == tuple(edges)
        assert inst.num_edges == len(edges)
        assert inst.provenance == "p"
        for vg, part_masks in enumerate(masks):
            for j, mask in enumerate(part_masks):
                assert inst.neighbors_in_part(vg, j) == tuple(
                    p for p in range(inst.w_parts[j]) if mask >> p & 1)

    @pytest.mark.parametrize("masks", [
        pytest.param([(1, 1)], id="too-few-tuples"),
        pytest.param([(1, 1)] * 3, id="too-many-tuples"),
        pytest.param([(1, 1), (1,)], id="short-tuple"),
        pytest.param([(1, 1), (1, 1, 1)], id="long-tuple"),
        pytest.param([(1, 1), (-1, 1)], id="negative-mask"),
        pytest.param([(1, 1), (1, 0b1000)], id="mask-wider-than-part"),
        pytest.param([(0b100, 1), (1, 1)], id="mask-into-next-part"),
    ])
    def test_rejects_malformed_masks(self, masks):
        # V = {0, 1} in two parts; W_0 has 2 members, W_1 has 3
        with pytest.raises(IndexRangeError):
            gf.MaxCoverInstance.from_masks((1, 1), (2, 3), masks)

    def test_random_masks_match_edge_constructor(self):
        rng = random.Random(512)
        for _ in range(200):
            v_parts = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
            w_parts = tuple(rng.randint(1, 70) for _ in range(rng.randint(1, 4)))
            masks = [[rng.choice((0, 1 << rng.randrange(w), (1 << w) - 1,
                                  rng.randrange(1 << w))) for w in w_parts]
                     for _ in range(sum(v_parts))]
            num_v = sum(v_parts)
            edges = [(vg, num_v + sum(w_parts[:j]) + p)
                     for vg, part_masks in enumerate(masks)
                     for j, mask in enumerate(part_masks)
                     for p in range(w_parts[j]) if mask >> p & 1]
            rng.shuffle(edges)
            packed = gf.MaxCoverInstance.from_masks(v_parts, w_parts, masks)
            listed = gf.MaxCoverInstance(v_parts, w_parts, edges)
            assert packed._rows == listed._rows
            assert packed.edges == listed.edges == tuple(sorted(edges))
            assert packed.num_edges == listed.num_edges == len(edges)

    @pytest.mark.parametrize("rows", [
        pytest.param([1], id="too-few-rows"),
        pytest.param([1, 1, 1], id="too-many-rows"),
        pytest.param([1, -1], id="negative-row"),
        pytest.param([1, 1 << 5], id="row-past-W"),
    ])
    def test_row_core_rejects_rows_that_do_not_fit(self, rows):
        # V = {0, 1}; |W| = 5
        with pytest.raises(IndexRangeError):
            gf.MaxCoverInstance._from_rows((1, 1), (2, 3), rows)
        assert gf.MaxCoverInstance._from_rows((1, 1), (2, 3), [0, (1 << 5) - 1]).num_edges == 5

    def test_layout_built_once_per_shape(self):
        a = gf.MaxCoverInstance.from_masks((1, 1), (2, 3), [(1, 1), (2, 4)])
        b = gf.MaxCoverInstance((1, 1), (2, 3), [(0, 2), (0, 4), (1, 3), (1, 6)])
        other = gf.MaxCoverInstance((2,), (3, 2), [(0, 2)])
        assert a._fields is b._fields and a._low is b._low and a._top is b._top
        assert other._fields is not a._fields
        code = gf.reed_solomon(3, 2)
        assert gf.compose_gap(a, code)._fields is gf.compose_gap(b, code)._fields
        assert maxcover._layout.cache_info().maxsize == maxcover._LAYOUT_CACHE_SIZE

    def test_layout_masks_match_summation(self, layout_masks_checked):
        # conftest checks every row layout the suite builds against the
        # summation oracle; explicit and composed rows both meet it
        a = gf.MaxCoverInstance((1, 1), (2, 3), [(0, 2), (0, 4), (1, 3), (1, 6)])
        composed = gf.compose_gap(a, gf.reed_solomon(5, 2))
        assert {((2, 3), 1), ((5, 5, 5, 5, 5), 2)} <= layout_masks_checked
        for widths, blocks in (((2, 3), 1), ((5,) * 5, 2), ((1, 4, 1, 7), 3), ((121,) * 11, 4)):
            _, low, top, ones, *_ = maxcover._layout(widths, blocks)
            assert (low, top, ones) == oracles.field_masks_by_sum(widths * blocks), widths
        assert (composed._low, composed._top, composed._ones) == \
            maxcover._layout((5,) * 5, 2)[1:4]

    def test_edge_constructor_sorts_and_deduplicates(self):
        inst = gf.MaxCoverInstance((1, 1), (2,), [(1, 3), (0, 2), (1, 3), (0, 3)])
        assert inst.edges == ((0, 2), (0, 3), (1, 3))
        assert inst.num_edges == 3

    def test_generator_instances_rebuild_from_edges(self):
        for inst in generator_instances():
            rebuilt = gf.MaxCoverInstance(inst.v_parts, inst.w_parts, inst.edges,
                                          inst.provenance)
            assert rebuilt.edges == inst.edges
            assert rebuilt.num_edges == inst.num_edges == len(inst.edges)
            for lab in product(*(range(s) for s in inst.v_parts)):
                assert rebuilt.covered_count(lab) == inst.covered_count(lab)
