"""One rule for integer arguments: errors.checked_int, at every entry point.

ENTRY_POINTS lists the public entry points that take an index, rank,
symbol, size, t, k, q, r, ell, d or cap, each as a call with one argument
replaced, and the GapforgeError subclass the entry point raises for that
argument out of range.  Each call is made with 1.5, 1.0, "1" and None, and
must raise that subclass: never a TypeError, and never an answer.
"""

import pytest

import gapforge as gf
from gapforge import codes, errors, pipeline
from gapforge.errors import (
    CapExceededError,
    DegreeBoundError,
    EmptyPartError,
    GapforgeError,
    IndexRangeError,
    MatchingOverflowError,
    MessageLengthError,
    MessageRangeError,
    NotPrimeError,
    RankRangeError,
    SymbolRangeError,
)

BAD = (1.5, 1.0, "1", None)
NOT_NONE = (1.5, 1.0, "1")  # None is the argument's default

RS = gf.reed_solomon(3, 2)
UNSTORED = gf.reed_solomon(103, 2)  # past the enumeration cap: no table
TABLE = [(0, 1), (1, 0)]
# a pseudo-projection instance: k = 2 left parts of sizes 2 and 1 (V ids
# 0..2), t = 2 right parts of sizes 2 and 1 (W ids 3..5)
INSTANCE = gf.MaxCoverInstance([2, 1], [2, 1],
                               [(0, 3), (0, 5), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
GRAPH = gf.build_threshold(RS, 2)
BASE = gf.SetCoverInstance(2, [[{0}, {1}], [{0, 1}]])
COMPOSED = gf.compose_setcover(BASE, RS)
PARTITIONED = gf.make_partitioned_graph([(0,), (1,)], [(0, 1)])
CNF = gf.Cnf3(2, ((1, 2), (-1,), (2,)))

ENTRY_POINTS = [
    # codes
    ("codeword", lambda x: RS.codeword(x), MessageRangeError, BAD),
    ("codeword-unstored", lambda x: UNSTORED.codeword(x), MessageRangeError, BAD),
    ("packed", lambda x: RS.packed(x), MessageRangeError, BAD),
    ("packed-unstored", lambda x: UNSTORED.packed(x), MessageRangeError, BAD),
    ("message_of", lambda x: RS.message_of(x), MessageRangeError, BAD),
    ("rank_of", lambda x: RS.rank_of((0, x)), SymbolRangeError, BAD),
    ("encode", lambda x: gf.encode(RS, (x, 0)), SymbolRangeError, BAD),
    ("Code-q", lambda x: gf.Code(x, 1, 2, "explicit", TABLE), SymbolRangeError, BAD),
    ("Code-r", lambda x: gf.Code(2, x, 2, "explicit", TABLE), MessageLengthError, BAD),
    ("Code-ell", lambda x: gf.Code(2, 1, x, "explicit", TABLE), MessageLengthError, BAD),
    ("Code-symbol", lambda x: gf.Code(2, 1, 2, "explicit", [(0, x), (1, 0)]),
     SymbolRangeError, BAD),
    ("reed_solomon-q", lambda x: gf.reed_solomon(x, 2), NotPrimeError, BAD),
    ("reed_solomon-r", lambda x: gf.reed_solomon(3, x), RankRangeError, BAD),
    ("random_code-q", lambda x: gf.random_code(x, 1, 2, 0), SymbolRangeError, BAD),
    ("random_code-r", lambda x: gf.random_code(2, x, 2, 0), MessageLengthError, BAD),
    ("random_code-ell", lambda x: gf.random_code(2, 1, x, 0), MessageLengthError, BAD),
    ("explicit_code-q", lambda x: gf.explicit_code(x, 2, TABLE), SymbolRangeError, BAD),
    ("explicit_code-ell", lambda x: gf.explicit_code(2, x, TABLE), MessageLengthError, BAD),
    ("explicit_code-symbol", lambda x: gf.explicit_code(2, 2, [(0, x), (1, 0)]),
     SymbolRangeError, BAD),
    ("find_phf-N", lambda x: gf.find_phf(x, 2, 4, seed=0), SymbolRangeError, BAD),
    ("find_phf-q", lambda x: gf.find_phf(4, x, 4, seed=0), SymbolRangeError, BAD),
    ("find_phf-ell_max", lambda x: gf.find_phf(4, 2, x, seed=0), MessageLengthError, BAD),
    ("verify_phf-N", lambda x: codes.verify_phf(x, 2, [(0, 1)]), SymbolRangeError, BAD),
    ("verify_phf-q", lambda x: codes.verify_phf(2, x, [(0, 1)]), SymbolRangeError, BAD),
    ("verify_phf-value", lambda x: codes.verify_phf(2, 2, [(0, x)]), SymbolRangeError, BAD),
    ("collision_number-cap", lambda x: gf.collision_number(RS, x), CapExceededError,
     NOT_NONE),
    # maxcover
    ("MaxCoverInstance-v-part", lambda x: gf.MaxCoverInstance([x], [1], []),
     IndexRangeError, BAD),
    ("MaxCoverInstance-w-part", lambda x: gf.MaxCoverInstance([1], [x], []),
     EmptyPartError, BAD),
    ("MaxCoverInstance-v-id", lambda x: gf.MaxCoverInstance([2], [2], [(x, 2)]),
     IndexRangeError, BAD),
    ("MaxCoverInstance-w-id", lambda x: gf.MaxCoverInstance([1], [2], [(0, x)]),
     IndexRangeError, BAD),
    ("from_masks", lambda x: gf.MaxCoverInstance.from_masks([1], [2], [(x,)]),
     IndexRangeError, BAD),
    ("covered-j", lambda x: INSTANCE.covered((0, 0), x), IndexRangeError, BAD),
    ("covered-labeling", lambda x: INSTANCE.covered((x, 0), 0), IndexRangeError, BAD),
    ("covered_count", lambda x: INSTANCE.covered_count((x, 0)), IndexRangeError, BAD),
    ("v_global-i", lambda x: INSTANCE.v_global(x, 0), IndexRangeError, BAD),
    ("v_global-rank", lambda x: INSTANCE.v_global(0, x), IndexRangeError, BAD),
    ("w_global-j", lambda x: INSTANCE.w_global(x, 0), IndexRangeError, BAD),
    ("w_global-rank", lambda x: INSTANCE.w_global(0, x), IndexRangeError, BAD),
    ("w_part_of", lambda x: INSTANCE.w_part_of(x), IndexRangeError, BAD),
    ("maxcover-adjacent-v", lambda x: INSTANCE.adjacent(x, 3), IndexRangeError, BAD),
    ("maxcover-adjacent-w", lambda x: INSTANCE.adjacent(0, x), IndexRangeError, BAD),
    ("neighbors_in_part-v", lambda x: INSTANCE.neighbors_in_part(x, 0), IndexRangeError, BAD),
    ("neighbors_in_part-j", lambda x: INSTANCE.neighbors_in_part(0, x), IndexRangeError, BAD),
    ("compose_gap_k2_bounded-d", lambda x: gf.compose_gap_k2_bounded(INSTANCE, RS, x),
     DegreeBoundError, BAD),
    ("maxcover_value-cap", lambda x: gf.maxcover_value(INSTANCE, x), CapExceededError, BAD),
    # setcover and threshold
    ("match_parts", lambda x: gf.compose_setcover(BASE, RS, [[0, x], [0]]),
     MatchingOverflowError, BAD),
    ("compose_gap-matching", lambda x: gf.compose_gap(INSTANCE, RS, [[0, x], [0]]),
     MatchingOverflowError, BAD),
    ("SetCoverInstance-universe", lambda x: gf.SetCoverInstance(x, [[{0}]]),
     IndexRangeError, BAD),
    ("SetCoverInstance-element", lambda x: gf.SetCoverInstance(2, [[{x}]]),
     IndexRangeError, BAD),
    ("min_cover_size-cap", lambda x: gf.min_cover_size(BASE, x), CapExceededError, BAD),
    ("min_cover-cap", lambda x: COMPOSED.min_cover(x), CapExceededError, BAD),
    ("contains-i", lambda x: COMPOSED.contains((0, 0), (x, [0] * 9)), IndexRangeError, BAD),
    ("contains-f", lambda x: COMPOSED.contains((0, 0), (0, [x] + [0] * 8)),
     IndexRangeError, BAD),
    ("ThresholdGraph-t", lambda x: gf.build_threshold(RS, x), IndexRangeError, BAD),
    ("a_rank", lambda x: GRAPH.a_rank((0, x)), IndexRangeError, BAD),
    ("a_tuple", lambda x: GRAPH.a_tuple(x), IndexRangeError, BAD),
    ("threshold-adjacent-j", lambda x: gf.adjacent(GRAPH, (x, 0), (0, (0, 0))),
     IndexRangeError, BAD),
    ("threshold-adjacent-m", lambda x: gf.adjacent(GRAPH, (0, x), (0, (0, 0))),
     IndexRangeError, BAD),
    ("threshold-adjacent-i", lambda x: gf.adjacent(GRAPH, (0, 0), (x, (0, 0))),
     IndexRangeError, BAD),
    ("threshold-adjacent-symbol", lambda x: gf.adjacent(GRAPH, (0, 0), (0, (x, 0))),
     IndexRangeError, BAD),
    ("common_neighbor-rank", lambda x: gf.common_neighbor(GRAPH, (x, 0), 0),
     IndexRangeError, BAD),
    ("common_neighbor-i", lambda x: gf.common_neighbor(GRAPH, (0, 0), x),
     IndexRangeError, BAD),
    ("verify_threshold-cap", lambda x: gf.verify_threshold(GRAPH, x), CapExceededError, BAD),
    # frontends
    ("Graph-n", lambda x: gf.Graph(x, frozenset()), IndexRangeError, BAD),
    ("Graph-edge", lambda x: gf.Graph(3, frozenset({(0, x)})), IndexRangeError, BAD),
    ("PartitionedGraph-part", lambda x: gf.PartitionedGraph(((0,), (x,)), frozenset()),
     IndexRangeError, BAD),
    ("PartitionedGraph-edge",
     lambda x: gf.PartitionedGraph(((0,), (1,)), frozenset({(0, x)})), IndexRangeError, BAD),
    ("part_of", lambda x: PARTITIONED.part_of(x), IndexRangeError, BAD),
    ("Cnf3-num_vars", lambda x: gf.Cnf3(x, ((1,),)), IndexRangeError, BAD),
    ("Cnf3-literal", lambda x: gf.Cnf3(2, ((1, x),)), IndexRangeError, BAD),
    ("colorful_lift-t", lambda x: gf.colorful_lift(gf.make_graph(2, [(0, 1)]), x),
     IndexRangeError, BAD),
    ("clique-parts-t", lambda x: gf.wone_pipeline(PARTITIONED, x), IndexRangeError, BAD),
    ("sat_to_maxcover-k", lambda x: gf.sat_to_maxcover(CNF, x), IndexRangeError, BAD),
    # pipeline
    ("smallest_workable_prime-t", lambda x: pipeline.smallest_workable_prime(x, 4),
     RankRangeError, BAD),
    ("smallest_workable_prime-max_w", lambda x: pipeline.smallest_workable_prime(2, x),
     RankRangeError, BAD),
    ("wone_pipeline-q", lambda x: gf.wone_pipeline(PARTITIONED, 2, x), NotPrimeError,
     NOT_NONE),
]


@pytest.mark.parametrize("call,error,values", [entry[1:] for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_non_integer_arguments_raise_the_sites_error(call, error, values):
    for value in values:
        with pytest.raises(error):
            call(value)


def test_checked_int_bounds():
    check = errors.checked_int
    assert check(2, 0, 3, "x", IndexRangeError) == 2
    assert check(0, 0, None, "x", IndexRangeError) == 0
    assert check(True, 0, 2, "x", IndexRangeError) == 1
    assert check(-5, -5, -4, "x", IndexRangeError) == -5
    for value, start, stop in ((3, 0, 3), (-1, 0, 3), (-1, 0, None), (2.0, 0, 3)):
        with pytest.raises(IndexRangeError):
            check(value, start, stop, "x", IndexRangeError)
    with pytest.raises(MessageRangeError, match=r"rank must be an integer in \[0, 9\), got 9"):
        check(9, 0, 9, "rank", MessageRangeError)
    with pytest.raises(CapExceededError, match="cap must be an integer, got 'x'"):
        check("x", 0, None, "cap", CapExceededError)
    # a bound or value past the int-to-text digit limit is still a message
    with pytest.raises(IndexRangeError, match=r"or more\), got 2\*\*"):
        check(10 ** 5000, 0, 10 ** 4999, "x", IndexRangeError)


def test_covered_part_checked_against_t():
    # k = 1 left part and t = 2 right parts, and the other way round
    one_left = gf.MaxCoverInstance([1], [1, 1], [(0, 2)])
    assert one_left.covered((0,), 1) is True and one_left.covered((0,), 0) is False
    one_right = gf.MaxCoverInstance([1, 1], [1], [(0, 2), (1, 2)])
    assert one_right.covered((0, 0), 0) is True
    with pytest.raises(IndexRangeError):
        one_right.covered((0, 0), 1)


def test_cached_prime_is_checked_per_type():
    # a float must not hit the cache entry of the equal int
    assert pipeline.smallest_workable_prime(2, 4) == 3
    with pytest.raises(GapforgeError):
        pipeline.smallest_workable_prime(2, 4.0)
