import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

import gapforge as gf
from gapforge import codes, oracles
from gapforge.codes import INFINITE, _field_packing, ceil_sqrt_ratio, verify_phf
from gapforge.errors import (
    BudgetExceededError,
    CapExceededError,
    GapforgeError,
    MessageLengthError,
    MessageRangeError,
    NotPrimeError,
    ParseError,
    RankRangeError,
    SchemaVersionError,
    SymbolRangeError,
)


class TestEncode:
    def test_rs_constant_polynomial(self):
        code = gf.reed_solomon(3, 1)
        assert gf.encode(code, (1,)) == (1, 1, 1)

    def test_rs_linear_polynomial(self):
        # message (0, 1) is p(x) = x, evaluated at 0, 1, 2
        code = gf.reed_solomon(3, 2)
        assert gf.encode(code, (0, 1)) == (0, 1, 2)

    def test_random_code_deterministic_encode(self):
        code = gf.random_code(3, 2, 5, seed=7)
        assert gf.encode(code, (1, 2)) == gf.encode(code, (1, 2))

    def test_message_length_error(self):
        code = gf.reed_solomon(3, 2)
        with pytest.raises(MessageLengthError):
            gf.encode(code, (1,))

    def test_symbol_range_error(self):
        code = gf.reed_solomon(3, 2)
        with pytest.raises(SymbolRangeError):
            gf.encode(code, (0, 3))

    def test_unary_alphabet_table(self):
        # no r has 1**r >= 2 words, so r is not searched for: Code rejects q = 1
        with pytest.raises(SymbolRangeError):
            gf.explicit_code(1, 1, [(0,), (0,)])


class TestReedSolomon:
    def test_rs_3_1_codewords(self):
        code = gf.reed_solomon(3, 1)
        assert set(code.table()) == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}
        assert gf.relative_distance(code).delta == 1

    def test_rs_3_2_distance(self):
        # exact minimum (q-r+1)/q, above the 1 - r/q bound
        code = gf.reed_solomon(3, 2)
        assert code.size == 9
        delta = gf.relative_distance(code).delta
        assert delta == Fraction(2, 3)
        assert delta >= 1 - Fraction(2, 3)

    def test_rank_out_of_range(self):
        with pytest.raises(RankRangeError):
            gf.reed_solomon(2, 3)

    def test_not_prime(self):
        with pytest.raises(NotPrimeError):
            gf.reed_solomon(4, 2)

    def test_certified_matches_pair_scan(self):
        for q in (2, 3, 5, 7, 11):
            for r in range(1, q + 1):
                if q ** r > 700:
                    continue
                code = gf.reed_solomon(q, r)
                report = gf.relative_distance(code)
                assert report.method == "rs_certified"
                delta, _ = oracles.relative_distance_pairs(code)
                assert report.delta == delta == Fraction(q - r + 1, q)
                wa, wb = map(code.codeword, report.witness)
                assert sum(x != y for x, y in zip(wa, wb)) == q - r + 1

    def test_large_code_stays_unmaterialized(self):
        # 1009**2 words of 1009 symbols: past the cap on symbols, not on words
        start = time.perf_counter()
        code = gf.reed_solomon(1009, 2)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(CapExceededError):
            code.table()
        assert code.codeword(1009 + 2) == tuple((1 + 2 * x) % 1009 for x in range(1009))

    def test_certified_distance_at_any_prime(self):
        # distinct evaluation points settle the bound with no search over
        # point subsets; pairs_examined is the witness + 20 spot-checked pairs
        wide = gf.relative_distance(gf.reed_solomon(29, 14))
        assert wide.delta == Fraction(16, 29)
        assert wide.pairs_examined == 21
        code = gf.reed_solomon(1009, 2)
        with pytest.raises(CapExceededError):
            code.table()
        long = gf.relative_distance(code)
        assert long.delta == Fraction(1008, 1009)
        assert long.pairs_examined == 21

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_encoder_linear_exhaustive(self, q):
        # E(m1) - E(m2) = E(m1 - m2) mod q for every message pair
        for r in range(1, q + 1):
            if q ** (2 * r) > 20_000:
                continue
            code = gf.reed_solomon(q, r)
            messages = list(product(range(q), repeat=r))
            for m1, m2 in product(messages, repeat=2):
                diff = tuple((a - b) % q for a, b in zip(m1, m2))
                w1, w2 = gf.encode(code, m1), gf.encode(code, m2)
                assert tuple((a - b) % q for a, b in zip(w1, w2)) == gf.encode(code, diff)

    def test_distance_witness_reverifies(self):
        code = gf.reed_solomon(5, 3)
        report = gf.relative_distance(code)
        a, b = report.witness
        wa, wb = code.codeword(a), code.codeword(b)
        measured = Fraction(sum(1 for x, y in zip(wa, wb) if x != y), code.ell)
        assert measured == report.delta


class TestRandomCode:
    def test_shape(self):
        code = gf.random_code(2, 1, 4, seed=3)
        assert code.size == 2
        assert all(len(w) == 4 and set(w) <= {0, 1} for w in code.table())

    def test_seeded_determinism(self):
        a = gf.random_code(4, 2, 45, seed=11)
        b = gf.random_code(4, 2, 45, seed=11)
        assert a.table() == b.table()
        assert gf.random_code(4, 2, 45, seed=12).table() != a.table()

    def test_cap(self):
        with pytest.raises(CapExceededError):
            gf.random_code(2, 30, 4, seed=0)

    @pytest.mark.parametrize("q,r,ell", [(2, 2, 1), (3, 3, 2)])
    def test_too_few_words(self, q, r, ell):
        # ell < r gives q**ell < q**r words: never an injective table
        with pytest.raises(GapforgeError, match="cannot hold"):
            gf.random_code(q, r, ell, seed=0)

    def test_injectivity(self):
        # seeds that force duplicate draws still yield injective tables
        for seed in range(50):
            code = gf.random_code(2, 2, 2, seed=seed)
            assert len(set(code.table())) == 4


class TestRelativeDistance:
    def test_single_pair(self):
        code = gf.explicit_code(2, 2, [(0, 0), (0, 1)])
        assert gf.relative_distance(code).delta == Fraction(1, 2)

    def test_rs_5_2_exhaustive(self):
        # a table code takes the pair scan
        report = gf.relative_distance(gf.explicit_code(5, 5, gf.reed_solomon(5, 2).table()))
        assert report.method == "pairs"
        assert report.delta == Fraction(4, 5)
        assert report.delta >= 1 - Fraction(2, 5)
        assert report.pairs_examined == 300

    def test_cap_exceeded(self):
        code = gf.random_code(2, 8, 12, seed=0)  # 256 words of 12 symbols
        with pytest.raises(CapExceededError):
            gf.relative_distance(code, cap=1000)

    def test_pair_scan_budget(self, monkeypatch):
        # 8,192 words within the enumeration cap, but C(8192, 2) = 33,550,336
        # pairs exceed the subset budget: raised before any pair is compared
        code = gf.random_code(2, 13, 16, seed=0)

        def no_scan(*args):
            raise AssertionError("pair scanned past the budget")

        monkeypatch.setattr(codes, "_distance_between", no_scan)
        with pytest.raises(BudgetExceededError, match="33550336 codeword pairs"):
            gf.relative_distance(code)

    def test_pair_scan_matches_oracle(self, code_suite):
        for code in code_suite:
            if code.kind == "reed_solomon":
                continue
            report = gf.relative_distance(code)
            assert report.method == "pairs"
            assert (report.delta, report.witness) == oracles.relative_distance_pairs(code)


class TestCollisionNumber:
    def test_rs_3_1_infinite(self):
        report = gf.collision_number(gf.reed_solomon(3, 1))
        assert report.is_infinite
        assert report.witness is None

    def test_rs_3_2_is_three(self):
        report = gf.collision_number(gf.reed_solomon(3, 2))
        assert report.value == 3
        # lexicographically-first witness: p=0, p=x, p=2x+1
        assert report.witness == (0, 1, 5)

    def test_three_word_example(self):
        code = gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)])
        report = gf.collision_number(code)
        assert report.value == 3
        assert report.witness == (0, 1, 2)

    def test_unknown_above_cap(self):
        code = gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)])
        report = gf.collision_number(code, size_cap=2)
        assert report.status == "unknown_above"
        assert report.value is None

    def test_budget_exceeded(self):
        from gapforge.errors import BudgetExceededError
        with pytest.raises(BudgetExceededError):
            gf.collision_number(gf.reed_solomon(5, 2), budget=10)

    def test_witness_collides_everywhere(self, code_suite):
        for code in code_suite:
            report = gf.collision_number(code)
            if report.status != "finite":
                continue
            table = code.table()
            for i in range(code.ell):
                column = [table[m][i] for m in report.witness]
                assert len(set(column)) < len(column), (code, i)


class TestCollisionSearchDifferential:
    """collision_number against the plain enumeration in oracles."""

    @staticmethod
    def check(code, size_cap=None):
        report = gf.collision_number(code, size_cap)
        value, status, witness, examined = oracles.collision_number_bruteforce(
            code, size_cap)
        assert (report.value, report.status, report.witness) == (value, status, witness), code
        if code.kind == "reed_solomon":
            # only subsets holding rank 0 are searched
            assert report.subsets_examined <= examined, code
        else:
            assert report.subsets_examined == examined, code
        return report

    def test_code_suite(self, code_suite):
        for code in code_suite:
            self.check(code)

    @pytest.mark.parametrize("q,r,col", [(3, 2, 3), (3, 3, 3), (5, 2, 4), (5, 3, 3),
                                         (7, 2, 5)])
    def test_reed_solomon(self, q, r, col):
        assert self.check(gf.reed_solomon(q, r)).value == col

    def test_random_codes(self):
        for q, r, ell in ((2, 2, 3), (2, 3, 4), (2, 3, 6), (3, 2, 3), (3, 2, 5),
                          (3, 3, 4), (4, 2, 4), (4, 2, 8)):
            for seed in range(4):
                self.check(gf.random_code(q, r, ell, seed))

    def test_phf_codes(self):
        for seed in range(3):
            self.check(gf.phf_to_code(gf.find_phf(8, 2, 16, seed=seed)))
            self.check(gf.phf_to_code(gf.find_phf(9, 3, 32, seed=seed)))
        self.check(gf.phf_to_code(gf.find_phf(4, 4, 1, seed=2)))

    def test_anchored_and_full_search_agree(self):
        rs = gf.reed_solomon(3, 2)
        anchored = self.check(rs)
        full = self.check(gf.explicit_code(3, 3, rs.table()))
        assert (anchored.value, anchored.witness) == (full.value, full.witness)
        assert anchored.subsets_examined < full.subsets_examined

    def test_reed_solomon_kind_needs_its_constructor(self):
        # the zero-word anchor is exact for RS codes only; this table tagged
        # reed_solomon was searched anchored and reported Col 4, witness
        # (0, 1, 2, 3)
        table = [(2, 2), (0, 0), (0, 1), (1, 0)]
        with pytest.raises(GapforgeError):
            gf.Code(3, 2, 2, "reed_solomon", table=table)
        code = gf.Code(3, 2, 2, "explicit", table=table)
        report = gf.collision_number(code, distance=Fraction(1, 2))
        assert (report.value, report.witness) == (3, (1, 2, 3))
        rs = gf.reed_solomon(3, 2)
        assert rs.kind == "reed_solomon"
        assert gf.code_from_json(gf.code_to_json(rs)).kind == "reed_solomon"

    def test_size_caps(self):
        codes = (gf.reed_solomon(5, 2), gf.reed_solomon(7, 2), gf.random_code(3, 2, 5, 1),
                 gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)]))
        for code in codes:
            col = gf.collision_number(code).value
            for size_cap in range(col + 1):
                report = self.check(code, size_cap)
                assert report.size_cap == size_cap
                assert report.status == ("finite" if size_cap == col else "unknown_above")

    def test_budget_boundary(self):
        # the search stops exactly at its budget: the last subset it needs fits
        codes = (gf.random_code(4, 2, 8, 0), gf.random_code(2, 3, 6, 1),
                 gf.phf_to_code(gf.find_phf(9, 3, 32, seed=1)), gf.reed_solomon(7, 2))
        for code in codes:
            need = gf.collision_number(code).subsets_examined
            assert gf.collision_number(code, budget=need).subsets_examined == need
            with pytest.raises(BudgetExceededError):
                gf.collision_number(code, budget=need - 1)

    def test_rs_11_2_exact(self):
        code = gf.reed_solomon(11, 2)
        report = gf.collision_number(code)
        assert (report.value, report.status) == (6, "finite")
        assert report.witness == (0, 1, 2, 11, 14, 64)
        assert report.subsets_examined == 8_554_031
        table = code.table()
        for i in range(code.ell):
            column = [table[m][i] for m in report.witness]
            assert len(set(column)) < len(column), i
        assert report.lower_bound <= 6 <= report.upper_bound == 12


class TestFieldPacking:
    """The one-hot packing and the nonzero-field rule shared by the collision
    search and both MaxCover row layouts."""

    @pytest.mark.parametrize("widths", [(1,), (5,), (1, 1, 1, 1), (2, 1, 3),
                                        (1, 3, 1, 2, 1), (3, 3, 1, 3), (1, 2, 3, 4)])
    def test_every_pattern(self, widths):
        pack, low, top = _field_packing(widths)
        starts = [sum(widths[:i]) for i in range(len(widths))]
        for word in product(*(range(w) for w in widths)):
            assert pack(word) == sum(1 << (s + v) for s, v in zip(starts, word))
        for x in range(1 << sum(widths)):
            nonzero = [s + w - 1 for s, w in zip(starts, widths)
                       if x >> s & ((1 << w) - 1)]
            assert ((x & low) + low | x) & top == sum(1 << b for b in nonzero), (widths, x)


class TestPackedWords:
    """Code.packed against a packing computed here, straight from codeword()."""

    def test_matches_one_hot_layout(self, code_suite):
        unmaterialized = gf.reed_solomon(5, 3, cap=10)
        with pytest.raises(CapExceededError):
            unmaterialized.table(10)
        for code in [*code_suite, gf.reed_solomon(11, 2), unmaterialized]:
            for m in range(code.size):
                expected = sum(1 << (i * code.q + s) for i, s in enumerate(code.codeword(m)))
                assert code.packed(m) == expected, (code, m)

    @pytest.mark.parametrize("code", [gf.reed_solomon(3, 2), gf.reed_solomon(5, 3, cap=10)],
                             ids=["stored", "unmaterialized"])
    def test_rank_range(self, code):
        for rank in (-1, code.size):
            with pytest.raises(MessageRangeError):
                code.packed(rank)


class TestColBounds:
    def test_delta_one_third(self):
        # 9 words over q=3 with min distance exactly 1 of 3 coordinates
        code = gf.explicit_code(3, 3, [(a, b, 0) for a in range(3) for b in range(3)])
        assert gf.relative_distance(code).delta == Fraction(1, 3)
        assert gf.col_bounds(code) == (2, 4)

    def test_delta_one(self):
        lower, upper = gf.col_bounds(gf.reed_solomon(3, 1))
        assert lower == INFINITE
        assert upper is None

    def test_delta_three_quarters_q8(self):
        code = gf.explicit_code(8, 4, [(0, 0, 0, 0), (0, 1, 2, 3)])
        lower, _ = gf.col_bounds(code)
        assert lower == 3  # ceil(sqrt(8))

    def test_ceil_sqrt_ratio(self):
        assert ceil_sqrt_ratio(3, 1) == 2
        assert ceil_sqrt_ratio(8, 1) == 3
        assert ceil_sqrt_ratio(9, 1) == 3
        assert ceil_sqrt_ratio(10, 4) == 2  # sqrt(2.5)
        assert ceil_sqrt_ratio(6, 1) == 3  # the RS(3,2) lower bound


class TestPerfectHashFamilies:
    def test_two_points_one_function(self):
        phf = gf.find_phf(2, 2, 1, seed=0)
        assert phf.ell == 1
        assert set(phf.functions[0]) == {0, 1}

    def test_eight_points_binary(self):
        phf = gf.find_phf(8, 2, 16, seed=5)
        for x, y in combinations(range(8), 2):
            assert any(h[x] != h[y] for h in phf.functions)

    def test_injective_single_map(self):
        phf = gf.find_phf(4, 4, 1, seed=2)
        assert phf.ell == 1
        assert len(set(phf.functions[0])) == 4

    def test_not_found(self):
        with pytest.raises(gf.GapforgeError):
            gf.find_phf(8, 2, 2, seed=0)  # 8 points cannot fit 2 binary coords

    def test_seeded_determinism(self):
        a = gf.find_phf(8, 2, 16, seed=9)
        b = gf.find_phf(8, 2, 16, seed=9)
        assert a == b

    def test_verification_budget(self):
        # C(100, 5) = 75,287,520 subsets exceed the subset budget, as in the
        # collision, threshold and cover searches
        with pytest.raises(BudgetExceededError, match=r"C\(100,5\)"):
            verify_phf(100, 5, ((0,) * 100,))
        with pytest.raises(BudgetExceededError, match=r"C\(100,5\)"):
            gf.find_phf(100, 5, 1, seed=0)


class TestPhfToCode:
    def test_two_point_identity_family(self):
        code = gf.phf_to_code(gf.find_phf(2, 2, 1, seed=0))
        assert code.ell == 1
        assert set(code.table()) == {(0,), (1,)}

    def test_collision_number_is_q_plus_one(self):
        code = gf.phf_to_code(gf.find_phf(8, 2, 16, seed=0))
        report = gf.collision_number(code)
        assert report.value == 3 == code.q + 1

    def test_small_domain_single_map(self):
        code = gf.phf_to_code(gf.find_phf(4, 4, 1, seed=2))
        assert code.ell == 1
        assert gf.collision_number(code).is_infinite  # |C| = 4 < q+1


class TestInvariants:
    def test_injectivity_of_suite(self, code_suite):
        for code in code_suite:
            table = code.table()
            assert len(set(table)) == len(table)
            assert all(0 <= s < code.q for w in table for s in w)

    def test_bound_sandwich(self, code_suite):
        for code in code_suite:
            report = gf.collision_number(code)
            if report.status == "finite" and code.size >= code.q + 1:
                assert report.lower_bound <= report.value <= code.q + 1

    def test_witness_minimality(self, code_suite):
        # increasing-size search order: no smaller fully-colliding subset
        for code in code_suite:
            report = gf.collision_number(code)
            if report.status != "finite" or report.value > 4:
                continue
            table = code.table()
            for smaller in combinations(range(code.size), report.value - 1):
                assert any(
                    len({table[m][i] for m in smaller}) == len(smaller)
                    for i in range(code.ell))


class TestSerialization:
    def test_round_trip_random(self):
        code = gf.random_code(3, 2, 6, seed=4)
        doc = gf.code_to_json(code)
        back = gf.code_from_json(doc)
        assert back.table() == code.table()
        assert (back.q, back.r, back.ell, back.kind) == (3, 2, 6, "random")
        assert doc["seed"] == 4

    def test_round_trip_rs(self):
        code = gf.reed_solomon(5, 2)
        back = gf.code_from_json(gf.code_to_json(code))
        assert back.table() == code.table()

    def test_table_order_is_lexicographic(self):
        code = gf.reed_solomon(3, 2)
        doc = gf.code_to_json(code)
        messages = [code.message_of(i) for i in range(9)]
        assert messages == sorted(messages)
        assert doc["table"][1] == [0, 1, 2]

    def test_table_checked_before_packing(self, monkeypatch):
        # packing's set-up is quadratic in ell; a short table claiming a
        # huge block length is rejected before it
        def no_packing(widths):
            raise AssertionError("packed a table that fails validation")

        monkeypatch.setattr(codes, "_field_packing", no_packing)
        doc = {"format": "gapforge-v1", "q": 2, "r": 1, "ell": 10 ** 6, "kind": "explicit",
               "table": [[0], [1]]}
        with pytest.raises(MessageLengthError):
            gf.code_from_json(doc)

    def test_bad_format_tag(self):
        doc = gf.code_to_json(gf.reed_solomon(3, 2))
        doc["format"] = "gapforge-v999"
        with pytest.raises(SchemaVersionError):
            gf.code_from_json(doc)

    def test_tampered_rs_table(self):
        doc = gf.code_to_json(gf.reed_solomon(3, 2))
        doc["table"][0] = [1, 1, 1]
        with pytest.raises(GapforgeError):
            gf.code_from_json(doc)

    def test_table_r_must_fit_the_table(self):
        # a random code has q**r words; PHF and explicit codes the smallest
        # r >= 1 with q**r >= |table|, as phf_to_code and explicit_code give
        codes = [gf.random_code(4, 2, 8, 3),
                 gf.phf_to_code(gf.find_phf(9, 3, 32, seed=0)),
                 gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)]),
                 gf.explicit_code(3, 2, [(0, 1)])]
        for code in codes:
            doc = gf.code_to_json(code)
            assert gf.code_from_json(doc).r == code.r
            for wrong in (code.r - 1, code.r + 1, 7):
                if wrong in (0, code.r):
                    continue
                doc["r"] = wrong
                with pytest.raises(ParseError):
                    gf.code_from_json(doc)
        doc = gf.code_to_json(gf.random_code(2, 2, 4, 0))
        doc["table"] = doc["table"][:3]  # 3 words fit r = 2, but not as q**r
        with pytest.raises(ParseError):
            gf.code_from_json(doc)
