import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

import gapforge as gf
from gapforge import codes, oracles
from gapforge.codes import INFINITE, _draw_symbols, _field_packing, ceil_sqrt_ratio, verify_phf
from gapforge.errors import (
    DEFAULT_ENUM_CAP,
    BudgetExceededError,
    CapExceededError,
    GapforgeError,
    IndexRangeError,
    MessageLengthError,
    MessageRangeError,
    NotPrimeError,
    ParseError,
    PhfNotFoundError,
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

    def test_unary_alphabet_table(self, monkeypatch):
        # no r has 1**r >= 2 words, so the shape check runs before r is searched
        def no_search(q, size):
            raise AssertionError("message length searched before the shape check")

        monkeypatch.setattr(codes, "_table_message_length", no_search)
        with pytest.raises(SymbolRangeError):
            gf.explicit_code(1, 1, [(0,), (0,)])
        with pytest.raises(SymbolRangeError):
            gf.phf_to_code(gf.PerfectHashFamily(3, 1, ((0, 0, 0),)))
        with pytest.raises(MessageLengthError):
            gf.explicit_code(2, 0, [(), ()])


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

    def test_table_of_unmaterialized_code(self):
        # past its own cap the code keeps no table, and table() refuses
        with pytest.raises(CapExceededError, match=r"RS\(5,3\)'s cap: it stores no table"):
            gf.reed_solomon(5, 3, cap=10).table()

    def test_cap_above_default_stores_no_more(self, monkeypatch):
        # 103**3 symbols lie between DEFAULT_ENUM_CAP and cap: no word is
        # encoded while the code is built, and it stores no table
        assert 103 ** 3 > DEFAULT_ENUM_CAP
        encoded = []
        encode = codes._ReedSolomonCode._encode
        monkeypatch.setattr(codes._ReedSolomonCode, "_encode",
                            lambda self, rank: encoded.append(rank) or encode(self, rank))
        code = gf.reed_solomon(103, 2, cap=2 ** 30)
        assert encoded == []
        with pytest.raises(CapExceededError, match="stores no table"):
            code.table()
        assert code.codeword(103 + 2) == tuple((1 + 2 * x) % 103 for x in range(103))
        # within both caps the table is stored, as with the default cap
        assert gf.reed_solomon(5, 2, cap=2 ** 30).table() == gf.reed_solomon(5, 2).table()

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

    @pytest.mark.parametrize("q,r,ell,error", [
        (-2, 2, 3, SymbolRangeError), (1, 2, 3, SymbolRangeError), (0, 2, 3, SymbolRangeError),
        (3, -1, 3, MessageLengthError), (3, 0, 3, MessageLengthError),
        (3, 2, 0, MessageLengthError), (3, 2, -4, MessageLengthError),
    ])
    def test_shape_checked_before_any_draw(self, monkeypatch, q, r, ell, error):
        def no_draw(seed):
            raise AssertionError("drew before the shape check")

        monkeypatch.setattr(codes.random, "Random", no_draw)
        with pytest.raises(error):
            gf.random_code(q, r, ell, seed=0)

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

    def test_duplicate_codewords_rejected(self):
        with pytest.raises(GapforgeError, match="duplicate codewords"):
            gf.explicit_code(2, 2, [(0, 1), (1, 0), (0, 1)])


class TestRelativeDistance:
    def test_single_pair(self):
        code = gf.explicit_code(2, 2, [(0, 0), (0, 1)])
        assert gf.relative_distance(code).delta == Fraction(1, 2)

    def test_single_codeword(self):
        code = gf.explicit_code(3, 2, [(0, 2)])
        with pytest.raises(GapforgeError, match="single codeword"):
            gf.relative_distance(code)

    def test_rs_5_2_exhaustive(self):
        # a table code takes the pair scan
        report = gf.relative_distance(gf.explicit_code(5, 5, gf.reed_solomon(5, 2).table()))
        assert report.method == "pairs"
        assert report.delta == Fraction(4, 5)
        assert report.delta >= 1 - Fraction(2, 5)
        assert report.pairs_examined == 300

    def test_cap_exceeded(self):
        # the cap counts size * ell, and a table past it is refused when the
        # code is built, so no measurement reads one: 2**16 words of 17 symbols
        table = [word for word, _ in zip(product(range(2), repeat=17), range(2 ** 16))]
        with pytest.raises(CapExceededError, match="65536 codewords of length 17"):
            gf.explicit_code(2, 17, table)

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

    @pytest.mark.parametrize("size_cap", [-1, 2.5, "3"])
    def test_bad_size_cap_before_any_read(self, size_cap):
        # RS(103,2) stores no table, so a read would raise its own cap error
        for code in (gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)]), gf.reed_solomon(103, 2)):
            with pytest.raises(CapExceededError, match="collision size cap must be"):
                gf.collision_number(code, size_cap)

    def test_budget_exceeded(self):
        # the budget bounds prefixes too: RS(5,2)'s search visits 7 complete
        # subsets and 6 prefixes, so 10 stop it
        with pytest.raises(BudgetExceededError):
            gf.collision_number(gf.reed_solomon(5, 2), budget=10)
        # RS(29,2) needs 4,124,425 visits for Col 9
        with pytest.raises(BudgetExceededError, match="at size 9"):
            gf.collision_number(gf.reed_solomon(29, 2), budget=10_000)

    def test_witness_collides_everywhere(self, code_suite):
        for code in code_suite:
            report = gf.collision_number(code)
            if report.status != "finite":
                continue
            table = code.table()
            for i in range(code.ell):
                column = [table[m][i] for m in report.witness]
                assert len(set(column)) < len(column), (code, i)


def _plain_visits(n: int, size_cap: int, witness) -> int:
    """Subsets a depth-first search of sizes 2..size_cap visits without a
    prune, prefixes included, up to the witness: every prefix of each
    combination it tries.  A size searched in full has C(n - s + d, d)
    prefixes of length d (their last member leaves room for s - d more)."""
    visits = 0
    for size in range(2, min(size_cap, n) + 1):
        if witness is None or len(witness) > size:
            visits += sum(math.comb(n - size + d, d) for d in range(1, size + 1))
            continue
        seen = set()
        for subset in combinations(range(n), size):
            seen.update(subset[:d] for d in range(1, size + 1))
            if subset == witness:
                return visits + len(seen)
    return visits


class TestCollisionSearchDifferential:
    """collision_number against the plain enumeration in oracles.

    The pruned search counts the subsets it visits, prefixes included.  It
    visits only prefixes that the same depth-first search without the prune
    visits before its witness, so its count is at most that search's
    (_plain_visits); each count is also pinned to its exact value.
    """

    @staticmethod
    def check(code, size_cap=None, examined=None):
        report = gf.collision_number(code, size_cap)
        value, status, witness, _ = oracles.collision_number_bruteforce(code, size_cap)
        assert (report.value, report.status, report.witness) == (value, status, witness), code
        if status != "infinite":
            n = code.size
            plain = _plain_visits(n, n if size_cap is None else size_cap, witness)
            assert report.subsets_examined <= plain, code
        if examined is not None:
            assert report.subsets_examined == examined, code
        return report

    def test_code_suite(self, code_suite):
        examined = (0, 3, 0, 6, 13, 27, 4, 21, 61, 123, 23, 3, 123)
        for code, count in zip(code_suite, examined, strict=True):
            self.check(code, examined=count)

    @pytest.mark.parametrize("q,r,col", [(3, 2, 3), (3, 3, 3), (5, 2, 4), (5, 3, 3),
                                         (7, 2, 5)])
    def test_reed_solomon(self, q, r, col):
        examined = {(3, 2): 6, (3, 3): 6, (5, 2): 13, (5, 3): 54, (7, 2): 48}[q, r]
        assert self.check(gf.reed_solomon(q, r), examined=examined).value == col

    def test_random_codes(self):
        shapes = {(2, 2, 3): (3, 3, 3, 3), (2, 3, 4): (3, 3, 3, 3), (2, 3, 6): (3, 3, 3, 3),
                  (3, 2, 3): (3, 4, 5, 3), (3, 2, 5): (7, 4, 3, 5), (3, 3, 4): (4, 3, 3, 4),
                  (4, 2, 4): (5, 3, 30, 3), (4, 2, 8): (27, 4, 21, 61)}
        for (q, r, ell), examined in shapes.items():
            for seed, count in enumerate(examined):
                self.check(gf.random_code(q, r, ell, seed), examined=count)
        for shape in ((3, 2, 6), (4, 2, 8), (4, 2, 12), (3, 3, 9), (5, 2, 10)):
            for seed in range(10):
                self.check(gf.random_code(*shape, seed))

    def test_phf_codes(self):
        for seed in range(3):
            self.check(gf.phf_to_code(gf.find_phf(8, 2, 16, seed=seed)), examined=3)
            self.check(gf.phf_to_code(gf.find_phf(9, 3, 32, seed=seed)), examined=123)
        self.check(gf.phf_to_code(gf.find_phf(4, 4, 1, seed=2)), examined=0)

    def test_anchored_and_full_search_agree(self):
        # the prune refutes every size below Col at its root and the first
        # witness holds the zero word, so the anchored search of an RS code
        # and the full search of its table visit the same subsets
        for q, r in ((3, 2), (5, 2), (7, 2), (5, 3), (11, 2), (13, 2), (7, 3)):
            rs = gf.reed_solomon(q, r)
            anchored = gf.collision_number(rs)
            full = gf.collision_number(gf.explicit_code(q, q, rs.table()),
                                       distance=gf.relative_distance(rs).delta)
            assert (anchored.value, anchored.witness, anchored.subsets_examined) == \
                (full.value, full.witness, full.subsets_examined), (q, r)
        # the threshold search above Col is where the anchor saves visits
        rs = gf.reed_solomon(3, 2)
        for cap, min_x, visits in ((4, None, (71, 360)), (5, 4, (105, 394))):
            verdicts = [gf.verify_threshold(gf.build_threshold(code, 2), collision_cap=cap)
                        for code in (rs, gf.explicit_code(3, 3, rs.table()))]
            assert tuple(v.collision_min_x for v in verdicts) == (min_x, min_x)
            assert tuple(v.collision_subsets_examined for v in verdicts) == visits

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
        codes = ((gf.reed_solomon(5, 2), (0, 0, 0, 0, 13)),
                 (gf.reed_solomon(7, 2), (0, 0, 0, 0, 0, 48)),
                 (gf.random_code(3, 2, 5, 1), (0, 0, 0, 4)),
                 (gf.explicit_code(2, 2, [(0, 0), (0, 1), (1, 0)]), (0, 0, 0, 3)))
        for code, examined in codes:
            col = gf.collision_number(code).value
            assert len(examined) == col + 1
            for size_cap in range(col + 1):
                report = self.check(code, size_cap, examined[size_cap])
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
        assert report.subsets_examined == 65
        table = code.table()
        for i in range(code.ell):
            column = [table[m][i] for m in report.witness]
            assert len(set(column)) < len(column), i
        assert report.lower_bound <= 6 <= report.upper_bound == 12

    @pytest.mark.parametrize("q,col,witness,examined", [
        (13, 6, (0, 1, 2, 16, 36, 96), 230),
        (17, 7, (0, 1, 2, 17, 21, 45, 54), 3_966),
        (19, 7, (0, 1, 2, 22, 50, 258, 312), 12_072),
        (23, 8, (0, 1, 2, 3, 27, 61, 134, 284), 9_188),
    ], ids=["q13", "q17", "q19", "q23"])
    def test_rs_q_2_reach(self, q, col, witness, examined):
        # past the plain enumeration's reach: re-verify the witness symbol
        # by symbol, and check the counting bound refutes every smaller size
        code = gf.reed_solomon(q, 2)
        report = gf.collision_number(code)
        assert (report.value, report.status, report.witness) == (col, "finite", witness)
        assert report.subsets_examined == examined
        for x in range(q):
            symbols = [gf.encode(code, code.message_of(m))[x] for m in witness]
            assert len(set(symbols)) < col, x
        agree = q * (1 - gf.relative_distance(code).delta)
        assert agree == 1
        assert math.comb(col - 1, 2) * agree < q <= math.comb(col, 2) * agree

    @pytest.mark.parametrize("distance", [Fraction(1, 4), Fraction(2, 7), Fraction(-1, 3),
                                          Fraction(4, 3)])
    def test_distance_must_give_whole_agreements(self, distance):
        # ell * (1 - delta) must be a whole number of coordinates in [0, ell]
        with pytest.raises(GapforgeError, match="no relative distance"):
            gf.collision_number(gf.random_code(3, 2, 6, 1), distance=distance)


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

    def test_masks_match_summation(self, code_suite):
        # the masks read from binary digits are the sums of one shifted int per field
        widths = [(1,), (5,), (1, 1, 1, 1), (2, 1, 3), (7, 1, 1, 64, 2), (3,) * 45, (4,) * 45,
                  (101,) * 101, tuple(range(1, 40))]
        for w in widths:
            assert _field_packing(w)[1:] == oracles.field_masks_by_sum(w)[:2], w
        for code in [*code_suite, gf.reed_solomon(11, 2), gf.random_code(4, 2, 45, 0)]:
            assert (code._low, code._top) == \
                oracles.field_masks_by_sum((code.q,) * code.ell)[:2], code


class TestPackedWords:
    """Code.packed against a packing computed here, straight from codeword()."""

    def test_matches_one_hot_layout(self, code_suite):
        unmaterialized = gf.reed_solomon(5, 3, cap=10)
        with pytest.raises(CapExceededError):
            unmaterialized.table()
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


class TestTableCap:
    """A stored table is checked against DEFAULT_ENUM_CAP once, when the code is built."""

    @pytest.mark.parametrize("route", ["explicit", "json"])
    def test_past_cap_refused_before_packing(self, monkeypatch, route):
        # two symbols past the cap: two binary words of 2**19 + 1 symbols
        def no_packing(widths):
            raise AssertionError("packed a table past the cap")

        monkeypatch.setattr(codes, "_field_packing", no_packing)
        ell = 2 ** 19 + 1
        table = [[0] * ell, [1] * ell]
        with pytest.raises(CapExceededError):
            if route == "explicit":
                gf.explicit_code(2, ell, table)
            else:
                gf.code_from_json({"format": "gapforge-v1", "q": 2, "r": 1, "ell": ell,
                                   "kind": "explicit", "table": table})

    def test_exactly_at_cap_is_packed(self):
        # 2**16 words of 16 binary symbols: 2**20 symbols, the cap itself
        table = list(product(range(2), repeat=16))
        code = gf.explicit_code(2, 16, table)
        assert code.size * code.ell == DEFAULT_ENUM_CAP
        for m in (0, 12345, len(table) - 1):
            assert code.packed(m) == sum(1 << (2 * i + s) for i, s in enumerate(table[m]))


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

        # against the smallest n with n*n*den >= num, found by counting up
        for num in range(1, 400):
            for den in range(1, 60):
                n = 0
                while n * n * den < num:
                    n += 1
                assert ceil_sqrt_ratio(num, den) == n, (num, den)


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

    @pytest.mark.parametrize("domain_size,q,functions,error", [
        (3, 2, ((0, 1),), IndexRangeError),  # a function shorter than the domain
        (3, 2, ((0, 1, 1, 0),), IndexRangeError),
        (3, 2, ((0, 1, 1), (0, 1)), IndexRangeError),
        (3, 2, ((0, 5, 1),), SymbolRangeError),  # a value outside [q]
        (3, 2, ((0, -1, 1),), SymbolRangeError),
        (3, 2, ((0, 1.0, 1),), SymbolRangeError),
        (3, 2, ((0, "1", 1),), SymbolRangeError),
        (3, 0, (), SymbolRangeError),
        (3, -1, ((0, 0, 0),), SymbolRangeError),
        (0, 2, (), SymbolRangeError),
    ])
    def test_malformed_families(self, domain_size, q, functions, error, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched a malformed family")

        monkeypatch.setattr(codes, "_first_collision", no_search)
        with pytest.raises(error):
            verify_phf(domain_size, q, functions)

    @pytest.mark.parametrize("domain_size,q,functions,answer", [
        (1, 2, (), (False, (0,))),  # one point: only a family with no functions fails
        (1, 2, ((1,),), (True, None)),
        (1, 1, ((0,),), (True, None)),
        (3, 2, (), (False, (0, 1))),
        (3, 1, (), (False, (0,))),
        (3, 1, ((0, 0, 0),), (True, None)),
        (4, 4, ((0, 1, 2, 3),), (True, None)),  # N <= q: only the whole domain
        (4, 4, ((0, 1, 2, 2), (3, 3, 1, 0)), (False, (0, 1, 2, 3))),
        (4, 2, ((0, 0, 1, 1), (0, 1, 0, 1)), (True, None)),
        (4, 2, ((0, 0, 1, 1), (0, 1, 0, 0)), (False, (2, 3))),
    ])
    def test_edge_cases(self, domain_size, q, functions, answer):
        assert verify_phf(domain_size, q, functions) == answer
        assert oracles.verify_phf_bruteforce(domain_size, q, functions) == answer

    def test_verify_against_bruteforce(self):
        # seeded families of every small shape, with duplicate columns (two
        # points no function separates), N <= q, N = 1 and no functions
        rng = random.Random(2027)
        outcomes = {True: 0, False: 0}
        for _ in range(12_000):
            n, q, ell = rng.randint(1, 7), rng.randint(1, 5), rng.randint(0, 6)
            functions = [[rng.randrange(q) for _ in range(n)] for _ in range(ell)]
            if n > 1 and rng.random() < 0.25:
                x, y = rng.sample(range(n), 2)
                for h in functions:
                    h[y] = h[x]
            got = verify_phf(n, q, functions)
            assert got == oracles.verify_phf_bruteforce(n, q, functions), (n, q, functions)
            outcomes[got[0]] += 1
        assert min(outcomes.values()) > 2_000, outcomes

    def test_draw_symbols_match_randrange(self):
        # the same symbols as randrange(q), and the generator left in the same state
        for seed in (0, 1, 7, 2027):
            for q in range(1, 71):
                drawn, reference = random.Random(seed), random.Random(seed)
                symbols = _draw_symbols(drawn, q, 300)
                assert symbols == [reference.randrange(q) for _ in range(300)], (seed, q)
                assert drawn.getstate() == reference.getstate(), (seed, q)

    def test_random_code_matches_randrange(self):
        # rows drawn row-major by randrange, a row that repeats an earlier one redrawn
        for q, r, ell, seed in ((2, 2, 2, 0), (2, 2, 2, 5), (3, 2, 5, 7), (4, 2, 45, 11),
                                (5, 1, 3, 2), (7, 2, 4, 3)):
            rng, seen, table = random.Random(seed), set(), []
            for _ in range(q ** r):
                word = tuple(rng.randrange(q) for _ in range(ell))
                while word in seen:
                    word = tuple(rng.randrange(q) for _ in range(ell))
                seen.add(word)
                table.append(word)
            assert gf.random_code(q, r, ell, seed).table() == tuple(table), (q, r, ell, seed)

    def test_find_phf_matches_randrange_search(self):
        # code_search's pool, (16, 3, 40), q = 1 (every column equal, and
        # still perfect), N = 1, N < q, a q = 4 shape, and searches that
        # find nothing
        cases = ([(8, 2, 16, s) for s in range(8)] + [(9, 3, 32, s) for s in range(8)]
                 + [(16, 3, 40, 0), (3, 1, 3, 0), (6, 1, 1, 2), (1, 2, 3, 0), (1, 5, 2, 3),
                    (4, 7, 5, 0)] + [(8, 4, 40, s) for s in range(4)])
        for n, q, ell_max, seed in cases:
            functions = oracles.find_phf_by_randrange(n, q, ell_max, seed)
            assert gf.find_phf(n, q, ell_max, seed=seed).functions == functions, (n, q, seed)
        for n, q, ell_max in ((8, 2, 2), (9, 3, 3), (6, 4, 2)):
            assert oracles.find_phf_by_randrange(n, q, ell_max, 0) is None
            with pytest.raises(PhfNotFoundError):
                gf.find_phf(n, q, ell_max, seed=0)

    def test_equal_columns_are_not_searched(self, monkeypatch):
        # one draw per candidate; a candidate with two equal columns is
        # rejected before the search, so at q = 2, where a family is perfect
        # iff its columns are distinct, only the perfect family is searched
        searches, draws = [], []
        search, draw = codes._first_collision, codes._draw_symbols
        monkeypatch.setattr(codes, "_first_collision",
                            lambda *args: searches.append(args) or search(*args))
        monkeypatch.setattr(codes, "_draw_symbols",
                            lambda *args: draws.append(args) or draw(*args))
        for seed in range(8):
            searches.clear()
            gf.find_phf(8, 2, 16, seed=seed)
            assert len(searches) == 1, seed
        searches.clear()
        draws.clear()
        gf.find_phf(9, 3, 32, seed=1)
        assert (len(searches), len(draws)) == (480, 699)

    @pytest.mark.parametrize("n,q,ell_max,seed,nodes", [(9, 3, 32, 1, 119), (8, 2, 16, 0, 35),
                                                        (16, 3, 40, 0, 679), (4, 7, 5, 0, 4)])
    def test_perfect_family_search_fits_its_budget(self, n, q, ell_max, seed, nodes,
                                                   monkeypatch):
        # a perfect family's search visits every node of the tree,
        # C(N + 1, size) - 1, the budget verify_phf passes: at it the search
        # finds no witness, and one less raises
        phf = gf.find_phf(n, q, ell_max, seed=seed)
        size = min(q, n)
        columns, low, top = codes._phf_packing(n, q, phf.ell)
        packed = columns([s for h in phf.functions for s in h])
        search = codes._first_collision
        assert search(packed, 1, size, False, low, top, phf.ell, 0, nodes) == (None, nodes)
        with pytest.raises(BudgetExceededError):
            search(packed, 1, size, False, low, top, phf.ell, 0, nodes - 1)
        budgets = []
        monkeypatch.setattr(codes, "_first_collision",
                            lambda *args: budgets.append(args[-1]) or search(*args))
        assert verify_phf(n, q, phf.functions) == (True, None)
        assert budgets == [nodes] == [math.comb(n + 1, size) - 1]

    def test_verification_budget(self):
        # C(100, 5) = 75,287,520 subsets exceed the subset budget, as in the
        # collision, threshold and cover searches
        with pytest.raises(BudgetExceededError, match=r"C\(100,5\)"):
            verify_phf(100, 5, ((0,) * 100,))
        with pytest.raises(BudgetExceededError, match=r"C\(100,5\)"):
            gf.find_phf(100, 5, 1, seed=0)

    def test_budget_checked_before_the_first_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a family past the verification budget")

        monkeypatch.setattr(codes, "_draw_symbols", no_draw)
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

    @pytest.mark.parametrize("n,q,ell_max,ell,delta", [(16, 3, 40, 18, Fraction(4, 9)),
                                                       (27, 3, 40, 25, Fraction(11, 25)),
                                                       (16, 4, 64, 58, Fraction(17, 29))])
    def test_lin_parameters(self, n, q, ell_max, ell, delta):
        # a PHF code's Col is q + 1, the optimum that recovers Lin's bound
        code = gf.phf_to_code(gf.find_phf(n, q, ell_max, seed=0))
        report = gf.collision_number(code)
        assert (code.ell, gf.relative_distance(code).delta) == (ell, delta)
        assert report.value == q + 1 == report.upper_bound
        value, status, witness, _ = oracles.collision_number_bruteforce(code)
        assert (value, status, witness) == (report.value, "finite", report.witness)

    def test_function_length_checked(self):
        # every function takes one value per point; shorter and longer ones raise
        for functions in (((0, 1),), ((0, 1, 1, 0),), ((0, 1, 1), (1, 0))):
            with pytest.raises(IndexRangeError):
                gf.phf_to_code(gf.PerfectHashFamily(3, 2, functions))

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
        # packing takes time and memory in ell; a short table claiming a
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
