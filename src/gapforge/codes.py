"""Error-correcting codes at desk scale: construction and exact measurement.

Covers Reed-Solomon codes over prime fields, seeded random codes, codes
derived from perfect hash families, and explicit table codes, together with
exact relative distance, exact collision number by exhaustive subset search,
and the pigeonhole/distance bounds that bracket the collision number.

A code packs each stored codeword once, when it is built, as ell one-hot
fields of q bits (Code.packed); this is the one codeword layout.  The
collision search, the threshold soundness check and the MaxCover
composition read those words and pack nothing themselves.  The collision
search walks subsets depth-first, in increasing size and lexicographic
order within a size, so a subset's collision test is a few integer
operations.  It prunes by the paper's counting fact: two distinct
codewords agree on at most ell * (1 - delta) coordinates, so a prefix
whose remaining pairs cannot cover the coordinates it lacks is dropped,
at every depth (see _first_collision).  Its counters count every subset
visited, prefixes included.  The same search, over one copy of the words
per B-part, decides the threshold graph's collision property (see
threshold.verify_threshold), and over a hash family's packed columns it
decides whether the family is perfect (verify_phf, find_phf).  find_phf
packs each candidate family in one pass and rejects one with two equal
columns before any search: those two points collide under every function.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, product

from .errors import (
    DEFAULT_ENUM_CAP,
    DEFAULT_SUBSET_BUDGET,
    BudgetExceededError,
    CapExceededError,
    GapforgeError,
    IndexRangeError,
    MatchingOverflowError,
    MessageLengthError,
    MessageRangeError,
    NotPrimeError,
    PhfNotFoundError,
    RankRangeError,
    SymbolRangeError,
)
from .errors import ParseError, SchemaVersionError, checked_size_cap, count_text
from .serialize import FORMAT_TAG, check_format, require_ints, require_keys

INFINITE = float("inf")

KIND_REED_SOLOMON = "reed_solomon"
KIND_RANDOM = "random"
KIND_PHF = "phf"
KIND_EXPLICIT = "explicit"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def next_prime(n: int) -> int:
    """The smallest prime >= n."""
    while not is_prime(n):
        n += 1
    return n


def _rank_of_symbols(symbols, q: int) -> int:
    """Big-endian base-q rank; lexicographic tuple order equals rank order."""
    rank = 0
    for s in symbols:
        rank = rank * q + s
    return rank


def _symbols_of_rank(rank: int, q: int, length: int) -> tuple[int, ...]:
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        out[pos] = rank % q
        rank //= q
    return tuple(out)


def _check_table_size(size: int, ell: int) -> None:
    """A stored table's rule: at most DEFAULT_ENUM_CAP symbols, size * ell."""
    if size * ell > DEFAULT_ENUM_CAP:
        raise CapExceededError(f"{count_text(size)} codewords of length {ell} exceed cap "
                               f"{DEFAULT_ENUM_CAP}")


def _check_shape(q: int, ell: int, r: int = 1) -> None:
    """A code's shape rule: q >= 2, r >= 1 and ell >= 1 (table codes derive r >= 1)."""
    if q < 2:
        raise SymbolRangeError(f"alphabet size must be >= 2, got {q}")
    if r < 1 or ell < 1:
        raise MessageLengthError(f"need r >= 1 and ell >= 1, got r={r}, ell={ell}")


class Code:
    """A q-ary code: alphabet [q], message length r, block length ell.

    Codewords are indexed by message rank (lexicographic message order).
    A code is its table, checked once, in __init__: first the table's own
    checks (block length, alphabet, distinct words), then its size against
    DEFAULT_ENUM_CAP, and only then is it packed: packed(rank) is codeword
    rank as ell one-hot fields of q bits (see _field_packing), and the
    masks of that layout are kept for the collision search.  Only
    reed_solomon() builds Reed-Solomon codes, whose measurements rely on
    linearity, and only they may omit the table (see _ReedSolomonCode).
    Nothing is written after __init__ but the memo of default-matching
    words per right-part shape (maxcover._matched_words), a value of (code,
    shape) alone: racing threads write equal values, so sharing is safe.
    """

    __slots__ = ("q", "r", "ell", "kind", "seed", "_size", "_table", "_pack", "_low", "_top",
                 "_packed", "_default_words")

    def __init__(self, q, r, ell, kind, table, *, seed=None):
        _check_shape(q, ell, r)
        if (kind == KIND_REED_SOLOMON or table is None) and type(self) is not _ReedSolomonCode:
            raise GapforgeError("a code needs a table; only reed_solomon() builds RS codes")
        self.q = q
        self.r = r
        self.ell = ell
        self.kind = kind
        self.seed = seed
        self._table = None
        self._size = q ** r
        if table is not None:
            self._table = tuple(tuple(word) for word in table)
            self._size = len(self._table)
            # before the packing, whose cost grows with ell
            self._validate_table()
            _check_table_size(self._size, ell)
        self._pack, self._low, self._top = _field_packing((q,) * ell)
        self._packed = None if self._table is None else tuple(map(self._pack, self._table))
        self._default_words = {}

    def _validate_table(self) -> None:
        for word in self._table:
            if len(word) != self.ell:
                raise MessageLengthError(
                    f"codeword length {len(word)} != block length {self.ell}")
            for s in word:
                if not 0 <= s < self.q:
                    raise SymbolRangeError(f"symbol {s} outside alphabet [{self.q}]")
        if len(set(self._table)) != len(self._table):
            raise GapforgeError("encoder is not injective: duplicate codewords")

    @property
    def size(self) -> int:
        """Number of codewords (len(table), or q**r for Reed-Solomon codes)."""
        return self._size

    def codeword(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self._size:
            raise MessageRangeError(f"message rank {rank} outside [0, {self._size})")
        if self._table is not None:
            return self._table[rank]
        return self._encode(rank)

    def packed(self, rank: int) -> int:
        """codeword(rank) packed: bit i * q + symbol is set for each coordinate i."""
        if self._packed is None or not 0 <= rank < self._size:
            return self._pack(self.codeword(rank))  # codeword() raises for a bad rank
        return self._packed[rank]

    def codewords(self):
        """Iterate codewords in message-rank order."""
        for rank in range(self._size):
            yield self.codeword(rank)

    def table(self) -> tuple[tuple[int, ...], ...]:
        """The stored table; a Reed-Solomon code stored without one raises CapExceededError."""
        if self._table is None:
            raise CapExceededError(f"{count_text(self._size)} codewords of length {self.ell} "
                                   f"exceed RS({self.q},{self.r})'s cap: it stores no table")
        return self._table

    def message_of(self, rank: int) -> tuple[int, ...]:
        return _symbols_of_rank(rank, self.q, self.r)

    def rank_of(self, message) -> int:
        return _rank_of_symbols(message, self.q)

    def __repr__(self):
        return f"Code({self.kind}, q={self.q}, r={self.r}, ell={self.ell}, size={self._size})"


def encode(code: Code, message) -> tuple[int, ...]:
    """Encode a length-r symbol sequence; deterministic and total."""
    message = tuple(message)
    if len(message) != code.r:
        raise MessageLengthError(f"message length {len(message)} != r={code.r}")
    for s in message:
        if not isinstance(s, int) or not 0 <= s < code.q:
            raise SymbolRangeError(f"symbol {s!r} outside alphabet [{code.q}]")
    return code.codeword(code.rank_of(message))


def _match_parts(code: Code, sizes, matching=None) -> tuple[tuple[int, ...], ...]:
    """Injective matching of parts of the given sizes into codeword ranks.

    By default part j takes ranks 0..sizes[j]-1.  A given matching must
    hold, per part, one injection of the part into [code.size].
    """
    if matching is None:
        for j, size in enumerate(sizes):
            if size > code.size:
                raise MatchingOverflowError(
                    f"part {j} has {size} members, the code has {code.size} codewords")
        return tuple(tuple(range(size)) for size in sizes)
    matching = tuple(tuple(m) for m in matching)
    if len(matching) != len(sizes):
        raise MatchingOverflowError("matching must give one injection per part")
    for j, inj in enumerate(matching):
        if len(inj) != sizes[j] or len(set(inj)) != len(inj) \
                or any(not 0 <= m < code.size for m in inj):
            raise MatchingOverflowError(f"matching for part {j} is not injective into the code")
    return matching


# ---------------------------------------------------------------------------
# Reed-Solomon codes over prime fields


def _poly_eval(coeffs, x: int, q: int) -> int:
    """Evaluate sum(coeffs[i] * x**i) mod q by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _poly_from_roots(roots, q: int) -> list[int]:
    """Coefficients (ascending degree) of prod(x - root) mod q."""
    coeffs = [1]
    for root in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] = (coeffs[i] - root * coeffs[i + 1]) % q
    return coeffs


def reed_solomon(q: int, r: int, *, cap: int = DEFAULT_ENUM_CAP) -> Code:
    """Reed-Solomon code: evaluations of degree-<r polynomials at 0..q-1.

    Message symbol i is the coefficient of x**i.  Prime fields only.  Past
    min(cap, DEFAULT_ENUM_CAP) symbols no table is stored: table() raises
    CapExceededError and each codeword is encoded when read.  So a cap
    above DEFAULT_ENUM_CAP stores no more than the default does.
    """
    if not is_prime(q):
        raise NotPrimeError(f"q={q} is not prime")
    if not 1 <= r <= q:
        raise RankRangeError(f"need 1 <= r <= q, got r={r}, q={q}")
    return _ReedSolomonCode(q, r, cap)


class _ReedSolomonCode(Code):
    """The only class that may carry the Reed-Solomon kind or omit its table."""

    __slots__ = ()

    def __init__(self, q: int, r: int, cap: int):
        self.q, self.r = q, r  # _encode reads them before Code.__init__ runs
        stored = q ** r * q <= min(cap, DEFAULT_ENUM_CAP)
        table = [self._encode(rank) for rank in range(q ** r)] if stored else None
        super().__init__(q, r, q, KIND_REED_SOLOMON, table)

    def _encode(self, rank: int) -> tuple[int, ...]:
        q = self.q
        msg = _symbols_of_rank(rank, q, self.r)
        return tuple(_poly_eval(msg, x, q) for x in range(q))


def random_code(q: int, r: int, ell: int, seed: int) -> Code:
    """Code whose q**r codewords are i.i.d. uniform in [q]**ell.

    Deterministic function of the seed: symbols are drawn row-major from
    CPython's Mersenne Twister, each exactly as
    random.Random(seed).randrange(q) draws it (see _draw_symbols), which is
    stable across platforms and supported Python versions.  Colliding rows
    are redrawn in place so the table is injective, preserving determinism;
    ell < r leaves q**ell < q**r words, too few for that, and raises
    GapforgeError.  Every check runs before the first draw.
    """
    _check_shape(q, ell, r)
    size = q ** r
    _check_table_size(size, ell)
    if ell < r:
        raise GapforgeError(f"{q}**{ell} words cannot hold q**r = {size} distinct codewords")
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    table = []
    for _ in range(size):
        word = tuple(_draw_symbols(rng, q, ell))
        while word in seen:
            word = tuple(_draw_symbols(rng, q, ell))
        seen.add(word)
        table.append(word)
    return Code(q, r, ell, KIND_RANDOM, table, seed=seed)


def _draw_symbols(rng: random.Random, q: int, count: int) -> list[int]:
    """count symbols of [q], each drawn exactly as rng.randrange(q) draws it.

    randrange(q) takes q.bit_length() bits from the Mersenne Twister and
    draws again while the value is >= q.  Doing the same without its
    argument handling yields the same symbols and leaves rng in the same
    state, at a fraction of the cost per symbol.
    """
    bits = q.bit_length()
    getrandbits = rng.getrandbits
    symbols = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= q:
            r = getrandbits(bits)
        symbols.append(r)
    return symbols


def explicit_code(q: int, ell: int, table) -> Code:
    """Wrap an explicit codeword table (lexicographic message order)."""
    _check_shape(q, ell)
    table = tuple(tuple(w) for w in table)
    return Code(q, _table_message_length(q, len(table)), ell, KIND_EXPLICIT, table)


def _table_message_length(q: int, size: int) -> int:
    """A table code's r: the smallest r >= 1 with q**r >= size (q >= 2)."""
    r = 1
    while q ** r < size:
        r += 1
    return r


# ---------------------------------------------------------------------------
# Relative distance


@dataclass(frozen=True)
class DistanceReport:
    """Exact relative distance with a witness pair of message ranks.

    pairs_examined counts the codeword pairs compared.  For method "pairs"
    that is every pair, C(|C|, 2).  For method "rs_certified" it is the
    witness pair plus the 20 spot-checked message pairs, so 21 at any q, r.
    """

    delta: Fraction
    witness: tuple[int, int]
    pairs_examined: int
    method: str


def _distance_between(x, y, ell: int) -> Fraction:
    return Fraction(sum(1 for a, b in zip(x, y) if a != b), ell)


def relative_distance(code: Code) -> DistanceReport:
    """Exact minimum relative distance over all distinct codeword pairs.

    Reed-Solomon codes take the certified measurement, which stays exact
    far beyond the enumeration cap (see _rs_certified_distance); every
    other code takes the pair scan over its stored table, which needs its
    C(|C|, 2) pairs within DEFAULT_SUBSET_BUDGET, and raises
    BudgetExceededError before scanning otherwise.
    """
    if code.kind == KIND_REED_SOLOMON:
        return _rs_certified_distance(code)

    table = code.table()
    if len(table) < 2:
        raise GapforgeError("distance undefined for codes with a single codeword")
    pairs = math.comb(len(table), 2)
    if pairs > DEFAULT_SUBSET_BUDGET:
        raise BudgetExceededError(f"{pairs} codeword pairs exceed budget "
                                  f"{DEFAULT_SUBSET_BUDGET}")
    best, witness = Fraction(2), None  # above every distance
    for a, b in combinations(range(len(table)), 2):
        d = _distance_between(table[a], table[b], code.ell)
        if d < best:
            best, witness = d, (a, b)
    return DistanceReport(best, witness, pairs, "pairs")


def _rs_certified_distance(code: Code) -> DistanceReport:
    """Measure the exact RS distance without enumerating codeword pairs.

    Two distinct codewords agree exactly where their difference polynomial
    (nonzero, degree < r) vanishes, so the minimum distance is q minus the
    largest root count.  That count is at most r - 1: a polynomial's values
    at r points are its coefficients times the r x r Vandermonde matrix of
    the points, whose determinant is the product of x_b - x_a over a < b.
    reed_solomon() evaluates at 0..q-1, which are distinct mod the prime q,
    so every such matrix is invertible and only the zero polynomial
    vanishes on r points.  The measurement then has two computed parts:

    1. a witness polynomial with r-1 distinct roots is built and its
       codeword's agreement count with the zero codeword is measured, so
       the bound is attained;
    2. linearity of the encoder (difference of codewords is the codeword of
       the message difference) is spot-checked on 20 sampled message pairs.
    """
    q, r = code.q, code.r
    witness_coeffs = _poly_from_roots(range(r - 1), q)
    witness_msg = tuple(witness_coeffs[i] if i < len(witness_coeffs) else 0
                        for i in range(r))
    witness_rank = code.rank_of(witness_msg)
    zero_word = code.codeword(0)
    witness_word = code.codeword(witness_rank)
    measured = _distance_between(zero_word, witness_word, code.ell)
    expected = Fraction(q - (r - 1), q)
    if measured != expected:
        raise GapforgeError("RS witness codeword does not achieve the certified distance")

    checks = 1  # the witness pair
    rng = random.Random(0)
    for _ in range(20):
        m1 = tuple(rng.randrange(q) for _ in range(r))
        m2 = tuple(rng.randrange(q) for _ in range(r))
        diff = tuple((a - b) % q for a, b in zip(m1, m2))
        w1, w2, wd = encode(code, m1), encode(code, m2), encode(code, diff)
        checks += 1
        if any((a - b) % q != c for a, b, c in zip(w1, w2, wd)):
            raise GapforgeError("RS encoder failed the linearity spot-check")

    return DistanceReport(expected, (0, witness_rank), checks, "rs_certified")


# ---------------------------------------------------------------------------
# Collision number


@dataclass(frozen=True)
class CollisionReport:
    """Exact collision number by exhaustive subset search.

    status is "finite" (value + lexicographically-first witness of message
    ranks), "infinite" (some coordinate has no agreeing pair at all, so no
    subset of any size collides there), or "unknown_above" (nothing found up
    to the size cap, which was below |C|).  Finiteness of the bounds:
    lower_bound is ceil(sqrt(2/(1-delta))) (INFINITE when delta = 1) and
    upper_bound is q+1, defined only when |C| >= q+1.  subsets_examined
    counts the subsets the pruned search visited, prefixes and complete
    subsets alike.
    """

    value: int | float | None
    status: str
    witness: tuple[int, ...] | None
    lower_bound: int | float
    upper_bound: int | None
    size_cap: int
    subsets_examined: int

    @property
    def is_infinite(self) -> bool:
        return self.status == "infinite"


def ceil_sqrt_ratio(num: int, den: int) -> int:
    """Smallest integer n with n*n >= num/den > 0, in exact arithmetic.

    n*n is whole, so n*n >= num/den iff n*n >= m = ceil(num/den), and the
    smallest such n is isqrt(m - 1) + 1.
    """
    return math.isqrt(-(-num // den) - 1) + 1


def col_bounds(code: Code):
    """(lower, upper) bracket for the collision number, delta measured here.

    lower = ceil(sqrt(2/(1-delta))), INFINITE when delta = 1; upper = q+1,
    None when |C| < q+1 (the pigeonhole argument needs q+1 codewords).
    """
    return _col_bracket(code, relative_distance(code).delta)


def _col_bracket(code: Code, distance: Fraction):
    """col_bounds' bracket from the relative distance of code."""
    num, den = distance.numerator, distance.denominator  # 2 / (1 - delta) = 2 den / (den - num)
    lower = INFINITE if num == den else ceil_sqrt_ratio(2 * den, den - num)
    return lower, (code.q + 1 if code.size >= code.q + 1 else None)


def _field_packing(widths):
    """(pack, low, top) for ints made of fields of the given bit widths.

    Field i holds the widths[i] bits from sum(widths[:i]) up, and
    pack(word) sets bit word[i] of field i, one-hot per symbol.  low holds
    every bit of a field but its top one, and top the top bits.  For x
    made of such fields, ((x & low) + low | x) & top has the top bit of
    exactly the nonzero fields of x: adding low carries into a field's top
    bit iff one of its lower bits is set, without reaching the next field,
    and OR-ing x adds the top bit itself.  A field of width 1 has no low
    bits; its one bit is its top.  top is read from its binary digits, most
    significant field first, and low is every other bit, so the masks take
    time linear in sum(widths).
    """
    starts = (0, *accumulate(widths))
    top = int("".join("1" + "0" * (w - 1) for w in reversed(widths)) or "0", 2)
    low = ((1 << starts[-1]) - 1) ^ top

    def pack(word) -> int:
        return sum(1 << (s + w) for s, w in zip(starts, word))

    return pack, low, top


def _first_collision(words, parts: int, size: int, anchored: bool, low: int, top: int,
                     agree: int, examined: int, budget: int):
    """Depth-first search for the lexicographically-first colliding subset.

    words holds parts copies of the n packed codewords, index p * n + m
    for word m in copy p.  Visits, in lexicographic order, the size-subsets
    of range(parts * n) that take a word from every copy (only those
    holding 0 when anchored): a subset ascends, so it uses every copy iff
    it starts in copy 0, never skips a copy and ends in the last, and a
    depth only offers the indices that can still do so.  A depth keeps
    seen, the OR of the chosen words of its copy, reset where the next
    copy starts, and dup, the OR of the pairwise ANDs of same-copy words;
    a subset collides on every coordinate iff every field of its dup is
    nonzero.  With one copy these are all size-subsets of the words.

    Two distinct words agree on at most agree coordinates, so each pair
    still to be formed fills at most agree of the fields dup lacks.  A
    prefix of d words is dropped when the C(size, 2) - C(d, 2) pairs that
    involve a word not yet chosen cannot fill them: ell - covered > agree *
    (C(size, 2) - C(d, 2)), covered counting the nonzero fields of dup.  At
    d = 0 that refutes the whole size unless C(size, 2) * agree >= ell.
    Across copies, pairs in different copies fill nothing, so the bound
    holds there too.  Only prefixes that cannot complete are dropped, so
    the first colliding subset of the unpruned order is kept.  Returns
    (witness or None, examined), examined counting the subsets visited,
    prefixes and complete subsets alike; the one numbered budget + 1
    raises BudgetExceededError untested.
    """
    n = len(words) // parts
    total = len(words)
    ell = top.bit_count()  # one top bit per field
    pairs = math.comb(size, 2)
    if agree * pairs < ell:
        return None, examined
    # need[d]: the fewest nonzero fields of dup that d chosen words must have
    need = [ell - agree * (pairs - math.comb(d, 2)) for d in range(size)]
    chosen = []

    def extend(start: int, copy_end: int, unopened: int, seen: int, dup: int):
        # the next word goes on in the current copy, [start, copy_end), or
        # opens the next copy with seen reset; either way the copies left
        # unopened must fit the slots left after it
        nonlocal examined
        depth = len(chosen)
        if depth == size - 1:
            # one slot left: it opens the last copy or stays in it
            if unopened:
                start, copy_end, seen = copy_end, copy_end + n, 0
            stop = min(copy_end, start + budget - examined)
            for m in range(start, stop):
                d = dup | seen & words[m]
                if ((d & low) + low | d) & top == top:
                    examined += m - start + 1
                    return (*chosen, m)
            examined += stop - start
            if stop < copy_end:
                raise BudgetExceededError(
                    f"collision search exceeded budget {budget} at size {size}")
            return None
        stop = 1 if anchored and depth == 0 else total - size + depth + 1
        floor = need[depth + 1]
        for lo, hi, prior, left in ((start, copy_end, seen, unopened),
                                    (copy_end, copy_end + n, 0, unopened - 1)):
            if not 0 <= left < size - depth:
                continue
            for m in range(lo, min(hi, stop)):
                examined += 1
                if examined > budget:
                    raise BudgetExceededError(
                        f"collision search exceeded budget {budget} at size {size}")
                c = words[m]
                d = dup | prior & c
                if (((d & low) + low | d) & top).bit_count() < floor:
                    continue
                chosen.append(m)
                witness = extend(m + 1, hi, left, prior | c, d)
                if witness is not None:
                    return witness
                chosen.pop()
        return None

    return extend(0, 0, parts, 0, 0), examined


def _collision_search(code: Code, sizes, parts: int, agree: int, budget: int):
    """(size, witness, examined) for the first size in sizes with a collision.

    The one collision search: _first_collision over parts copies of the
    code's packed words, size by size; (None, None, examined) when no size
    has one.  agree is the most coordinates on which two distinct
    codewords agree, ell * (1 - delta), which the search's prune rests on.
    collision_number runs it on one copy, and threshold.verify_threshold on
    one copy per B-part.  It owns the Reed-Solomon anchor: on those codes
    only subsets holding rank 0 of copy 0, the zero word, are searched.
    Translating every member by a copy-0 member's codeword keeps the
    agreements inside each copy and puts the zero word in copy 0, so no
    size is lost (collision_number says why its witness stays the first).
    """
    words = [code.packed(m) for m in range(code.size)] * parts
    anchored = code.kind == KIND_REED_SOLOMON
    examined = 0
    for s in sizes:
        witness, examined = _first_collision(words, parts, s, anchored, code._low, code._top,
                                             agree, examined, budget)
        if witness is not None:
            return s, witness, examined
    return None, None, examined


def collision_number(code: Code, size_cap: int | None = None, *,
                     budget: int = DEFAULT_SUBSET_BUDGET,
                     distance: Fraction | None = None) -> CollisionReport:
    """Smallest subset of codewords colliding on every coordinate.

    Searches subsets in increasing size, lexicographically within a size,
    so the witness is minimal and lexicographically first.  If some
    coordinate has pairwise-distinct values across the whole code, no
    subset collides there and the collision number is INFINITE.

    The search is pruned by counting: two distinct codewords agree on at
    most A = ell * (1 - delta) coordinates, so a colliding s-set needs
    C(s, 2) * A >= ell, and a prefix is dropped once the pairs it may still
    form cannot cover the coordinates it lacks (see _first_collision).  The
    prune drops only prefixes that cannot complete, so the value and
    witness are those of the unpruned search.

    Reed-Solomon codes are searched only over subsets holding rank 0, the
    zero word.  This is exact: the code is linear, so for c in a colliding
    set S, S - c is a set of codewords of the same size that agrees exactly
    where S agrees and holds 0, and it precedes S when 0 is not in S.  So
    the lexicographically-first minimal witness holds 0.  Random, PHF and
    explicit codes are searched over all subsets.  Below Col the anchor
    saves nothing when the prune refutes each size at its root, as it does
    on every RS code measured; the threshold search above Col is where it
    saves visits.

    subsets_examined counts the subsets visited, prefixes and complete
    subsets alike; budget bounds it.  A given distance must be the code's
    exact delta: a larger one would make the prune drop colliding sets.
    One for which ell * (1 - delta) is not an integer in [0, ell] raises
    GapforgeError.  A negative or non-integer size_cap raises
    CapExceededError before the code is read.
    """
    if size_cap is not None:
        size_cap = checked_size_cap(size_cap, "collision size cap")
    table = code.table()
    n = len(table)
    if size_cap is None:
        size_cap = n
    if distance is None:
        distance = relative_distance(code).delta
    agree, rest = divmod(code.ell * (distance.denominator - distance.numerator),
                         distance.denominator)
    if rest or not 0 <= agree <= code.ell:
        raise GapforgeError(f"distance {distance} is no relative distance of a code "
                            f"of block length {code.ell}")
    lower, upper = _col_bracket(code, distance)

    for i in range(code.ell):
        if len({word[i] for word in table}) == n:
            return CollisionReport(INFINITE, "infinite", None, lower, upper, size_cap, 0)

    s, witness, examined = _collision_search(code, range(2, min(size_cap, n) + 1), 1,
                                             agree, budget)
    if witness is not None:
        return CollisionReport(s, "finite", witness, lower, upper, size_cap, examined)
    # every coordinate has an agreeing pair, so the whole code collides;
    # reaching here means the cap stopped the search early
    return CollisionReport(None, "unknown_above", None, lower, upper,
                           size_cap, examined)


# ---------------------------------------------------------------------------
# Perfect hash families


@dataclass(frozen=True)
class PerfectHashFamily:
    """ell functions [N] -> [q] separating every subset of size <= q."""

    domain_size: int
    q: int
    functions: tuple[tuple[int, ...], ...]

    @property
    def ell(self) -> int:
        return len(self.functions)


def _phf_subset_size(domain_size: int, q: int) -> int:
    """min(q, N), the size of the subsets a perfect hash family must separate.

    Raises SymbolRangeError unless N, q >= 1, and BudgetExceededError when
    more than DEFAULT_SUBSET_BUDGET such subsets would have to be checked.
    """
    if domain_size < 1 or q < 1:
        raise SymbolRangeError("domain_size and q must be positive")
    size = min(q, domain_size)
    if math.comb(domain_size, size) > DEFAULT_SUBSET_BUDGET:
        raise BudgetExceededError(f"C({domain_size},{size}) subsets exceed verification "
                                  f"budget {DEFAULT_SUBSET_BUDGET}")
    return size


def _check_function_lengths(domain_size: int, functions) -> None:
    """Every function of a family takes one value per point of [N], else IndexRangeError."""
    for f, h in enumerate(functions):
        if len(h) != domain_size:
            raise IndexRangeError(f"function {f} has {len(h)} values for a domain of "
                                  f"{domain_size} points")


def _phf_packing(domain_size: int, q: int, ell: int):
    """(columns, low, top) for families of ell functions [N] -> [q].

    columns(symbols) packs the family whose function f is symbols[f * N:
    (f + 1) * N] into its N columns.  Column x is codeword x of
    phf_to_code's table, packed as Code.packed packs it: bit f * q + h_f(x)
    set in field f.  One pass makes the one-hot int of every symbol, and
    column x sums every N-th of them from x, one per function.  low and top
    are the masks of _field_packing((q,) * ell).
    """
    _, low, top = _field_packing((q,) * ell)
    bases = [f * q for f in range(ell) for _ in range(domain_size)]

    def columns(symbols) -> list[int]:
        ones = [1 << b + s for b, s in zip(bases, symbols)]
        return [sum(ones[x::domain_size]) for x in range(domain_size)]

    return columns, low, top


def _first_unseparated(columns, size: int, low: int, top: int):
    """The first size-subset of [N] on which no function is injective, or None.

    columns are the family's packed columns (see _phf_packing).  No
    function is injective on a subset iff its columns collide on every
    field, so this is the collision search over the columns at the one
    size, in combinations order.  Its prune is idle, agree = ell (one top
    bit per function) being the trivial bound, and its budget is every
    node of the search tree, C(N + 1, size) - 1, which a perfect family's
    search visits in full; so the budget _phf_subset_size checked is the
    only one.
    """
    witness, _ = _first_collision(columns, 1, size, False, low, top, top.bit_count(), 0,
                                  math.comb(len(columns) + 1, size) - 1)
    return witness


def verify_phf(domain_size: int, q: int, functions):
    """(ok, first failing subset) for a family of functions [N] -> [q].

    The family is perfect iff none of its min(q, N)-subsets of [N] collides
    under every function, i.e. iff no min(q, N) columns of phf_to_code's
    table collide on every coordinate: a function injective on T is
    injective on every subset of T, so that one size suffices.  The first
    failing subset is the first in itertools.combinations order, found by
    the one collision search over the columns _phf_packing packs (see
    _first_unseparated).  N, q >= 1, every function of length N and every
    value an int in [q] are checked first (SymbolRangeError,
    IndexRangeError); more than DEFAULT_SUBSET_BUDGET subsets raise
    BudgetExceededError before any is searched.
    """
    size = _phf_subset_size(domain_size, q)
    functions = tuple(tuple(h) for h in functions)
    _check_function_lengths(domain_size, functions)
    for f, h in enumerate(functions):
        for s in h:
            if not isinstance(s, int) or not 0 <= s < q:
                raise SymbolRangeError(f"value {s!r} of function {f} outside [{q}]")
    columns, low, top = _phf_packing(domain_size, q, len(functions))
    packed = columns([s for h in functions for s in h])
    witness = _first_unseparated(packed, size, low, top)
    return (True, None) if witness is None else (False, witness)


def find_phf(domain_size: int, q: int, ell_max: int, seed: int) -> PerfectHashFamily:
    """Randomized search for a perfect hash family, verified exhaustively.

    Samples 64 families of each size ell = 1..ell_max and returns the first
    perfect one: none of its min(q, N)-subsets collides under every
    function (see verify_phf).  A family's ell * N values are drawn at
    once, function by function, h(0), .., h(N - 1) each, every value
    exactly as random.Random(seed).randrange(q) would draw it (see
    _draw_symbols), so the family is a deterministic function of the
    arguments.  A family with two equal columns is rejected without a
    search when min(q, N) >= 2: its two points collide under every
    function, and so does every min(q, N)-subset holding both.  Any other
    family goes to the collision search, which only has to say whether a
    failing subset exists.  BudgetExceededError, when C(N, min(q, N))
    exceeds the verification budget, is raised before the first draw.
    """
    size = _phf_subset_size(domain_size, q)
    rng = random.Random(seed)
    for ell in range(1, ell_max + 1):
        columns, low, top = _phf_packing(domain_size, q, ell)
        for _ in range(64):
            symbols = _draw_symbols(rng, q, ell * domain_size)
            packed = columns(symbols)
            if size >= 2 and len(set(packed)) < domain_size:
                continue
            if _first_unseparated(packed, size, low, top) is None:
                return PerfectHashFamily(domain_size, q, tuple(
                    tuple(symbols[i:i + domain_size])
                    for i in range(0, ell * domain_size, domain_size)))
    raise PhfNotFoundError(ell_max)


def phf_to_code(phf: PerfectHashFamily) -> Code:
    """Interpret a PHF as a code: codeword x has i-th coordinate h_i(x).

    The message space is re-indexed as [N]; the nominal message length is
    ceil(log_q N) and the table length N is authoritative.  A function
    with other than N values raises IndexRangeError.
    """
    _check_shape(phf.q, phf.ell)
    _check_function_lengths(phf.domain_size, phf.functions)
    table = tuple(tuple(h[x] for h in phf.functions) for x in range(phf.domain_size))
    return Code(phf.q, _table_message_length(phf.q, phf.domain_size), phf.ell, KIND_PHF, table)


# ---------------------------------------------------------------------------
# Serialization


def code_to_json(code: Code) -> dict:
    """JSON document with the table in lexicographic message order."""
    doc = {
        "format": FORMAT_TAG,
        "q": code.q,
        "r": code.r,
        "ell": code.ell,
        "kind": code.kind,
        "table": [list(word) for word in code.table()],
    }
    if code.seed is not None:
        doc["seed"] = code.seed
    return doc


def code_from_json(doc: dict) -> Code:
    check_format(doc)
    require_keys(doc, ("q", "r", "ell", "kind", "table"), "code")
    for key, depth in (("q", 0), ("r", 0), ("ell", 0), ("table", 2)):
        require_ints(doc[key], depth, f"code {key}")
    q, r, ell, kind = doc["q"], doc["r"], doc["ell"], doc["kind"]
    if kind not in (KIND_REED_SOLOMON, KIND_RANDOM, KIND_PHF, KIND_EXPLICIT):
        raise ParseError(f"unknown code kind {kind!r}")
    if "seed" in doc:
        require_ints(doc["seed"], 0, "code seed")
    table = tuple(tuple(word) for word in doc["table"])
    if kind == KIND_REED_SOLOMON:
        code = reed_solomon(q, r)
        if code.table() != table or code.ell != ell:
            raise SchemaVersionError("reed_solomon table does not match its parameters")
        return code
    code = Code(q, r, ell, kind, table, seed=doc.get("seed"))
    # r is the one phf_to_code and explicit_code give; a random code has
    # exactly q**r words
    fit = _table_message_length(q, code.size)
    if r != fit or (kind == KIND_RANDOM and q ** r != code.size):
        raise ParseError(f"code r={r} does not fit its table of {code.size} words over [{q}]")
    return code
