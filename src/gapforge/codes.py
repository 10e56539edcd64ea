"""Error-correcting codes at desk scale: construction and exact measurement.

Covers Reed-Solomon codes over prime fields, seeded random codes, codes
derived from perfect hash families, and explicit table codes, together with
exact relative distance, exact collision number by exhaustive subset search,
and the pigeonhole/distance bounds that bracket the collision number.

The collision search packs each codeword as ell one-hot fields of q bits
and walks subsets depth-first, in increasing size and lexicographic order
within a size, so a subset's collision test is a few integer operations.
On Reed-Solomon codes it searches only subsets holding the zero word; by
linearity that loses no witness (see collision_number).
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
    MatchingOverflowError,
    MessageLengthError,
    MessageRangeError,
    NotPrimeError,
    PhfNotFoundError,
    RankRangeError,
    SymbolRangeError,
)
from .errors import ParseError, SchemaVersionError
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


class Code:
    """A q-ary code: alphabet [q], message length r, block length ell.

    Codewords are indexed by message rank (lexicographic message order).
    Structured codes (Reed-Solomon) may stay unmaterialized; table access is
    guarded by the enumeration cap.  A Reed-Solomon code comes only from
    reed_solomon(): its measurements rely on linearity, which a table does
    not promise.  Instances are immutable and safe to share across threads.
    """

    __slots__ = ("q", "r", "ell", "kind", "seed", "_size", "_table", "_encode_fn")

    def __init__(self, q, r, ell, kind, *, table=None, encode_fn=None, seed=None,
                 size=None, cap=DEFAULT_ENUM_CAP):
        if q < 2:
            raise SymbolRangeError(f"alphabet size must be >= 2, got {q}")
        if r < 1 or ell < 1:
            raise MessageLengthError(f"need r >= 1 and ell >= 1, got r={r}, ell={ell}")
        if table is None and encode_fn is None:
            raise GapforgeError("a code needs a table or an encoder")
        if table is not None and kind == KIND_REED_SOLOMON:
            raise GapforgeError("Reed-Solomon codes are built by reed_solomon(), not from a table")
        self.q = q
        self.r = r
        self.ell = ell
        self.kind = kind
        self.seed = seed
        self._encode_fn = encode_fn
        if table is not None:
            table = tuple(tuple(word) for word in table)
            self._size = len(table)
        else:
            self._size = q ** r if size is None else size
        self._table = table
        if self._size <= cap and table is None and encode_fn is not None:
            self._table = tuple(encode_fn(rank) for rank in range(self._size))
        if self._table is not None:
            self._validate_table()

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
        """Number of codewords (q**r for structured codes, len(table) otherwise)."""
        return self._size

    def codeword(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self._size:
            raise MessageRangeError(f"message rank {rank} outside [0, {self._size})")
        if self._table is not None:
            return self._table[rank]
        return self._encode_fn(rank)

    def codewords(self):
        """Iterate codewords in message-rank order."""
        for rank in range(self._size):
            yield self.codeword(rank)

    def table(self, cap: int = DEFAULT_ENUM_CAP) -> tuple[tuple[int, ...], ...]:
        if self._table is not None:
            return self._table
        if self._size > cap:
            raise CapExceededError(
                f"materializing {self._size} codewords exceeds cap {cap}")
        return tuple(self._encode_fn(rank) for rank in range(self._size))

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

    Message symbol i is the coefficient of x**i.  Prime fields only.
    """
    if not is_prime(q):
        raise NotPrimeError(f"q={q} is not prime")
    if not 1 <= r <= q:
        raise RankRangeError(f"need 1 <= r <= q, got r={r}, q={q}")

    def encode_rank(rank: int, _q=q, _r=r) -> tuple[int, ...]:
        msg = _symbols_of_rank(rank, _q, _r)
        return tuple(_poly_eval(msg, x, _q) for x in range(_q))

    return Code(q, r, q, KIND_REED_SOLOMON, encode_fn=encode_rank, cap=cap)


def random_code(q: int, r: int, ell: int, seed: int, *, cap: int = DEFAULT_ENUM_CAP) -> Code:
    """Code whose q**r codewords are i.i.d. uniform in [q]**ell.

    Deterministic function of the seed: symbols are drawn row-major from
    CPython's Mersenne Twister (random.Random(seed).randrange(q)), which is
    stable across platforms and supported Python versions.  Colliding rows
    are redrawn in place so the table is injective, preserving determinism.
    """
    size = q ** r
    if size > cap:
        raise CapExceededError(f"q**r = {size} exceeds enumeration cap {cap}")
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    table = []
    for _ in range(size):
        word = tuple(rng.randrange(q) for _ in range(ell))
        while word in seen:
            word = tuple(rng.randrange(q) for _ in range(ell))
        seen.add(word)
        table.append(word)
    return Code(q, r, ell, KIND_RANDOM, table=table, seed=seed)


def explicit_code(q: int, ell: int, table, *, r: int | None = None) -> Code:
    """Wrap an explicit codeword table (lexicographic message order)."""
    table = tuple(tuple(w) for w in table)
    if r is None:
        r = 1
        while q ** r < len(table):
            r += 1
    return Code(q, r, ell, KIND_EXPLICIT, table=table)


# ---------------------------------------------------------------------------
# Relative distance


@dataclass(frozen=True)
class DistanceReport:
    """Exact relative distance with a witness pair of message ranks."""

    delta: Fraction
    witness: tuple[int, int]
    pairs_examined: int
    method: str


def _distance_between(x, y, ell: int) -> Fraction:
    return Fraction(sum(1 for a, b in zip(x, y) if a != b), ell)


def relative_distance(code: Code, *, method: str = "auto",
                      cap: int = DEFAULT_ENUM_CAP) -> DistanceReport:
    """Exact minimum relative distance over all distinct codeword pairs.

    method="pairs" scans every pair (requires q**r within the cap);
    method="rs" runs the certified Reed-Solomon measurement, which stays
    exact far beyond the pair-scan cap; "auto" picks "rs" for Reed-Solomon
    codes and "pairs" otherwise.
    """
    if method == "auto":
        method = "rs" if code.kind == KIND_REED_SOLOMON else "pairs"
    if method == "rs":
        if code.kind != KIND_REED_SOLOMON:
            raise GapforgeError("certified method applies to Reed-Solomon codes only")
        return _rs_certified_distance(code)
    if method != "pairs":
        raise GapforgeError(f"unknown distance method {method!r}")

    table = code.table(cap)
    n = len(table)
    best = Fraction(1)
    witness = (0, 1)
    examined = 0
    found = False
    for a, b in combinations(range(n), 2):
        examined += 1
        d = _distance_between(table[a], table[b], code.ell)
        if not found or d < best:
            best, witness, found = d, (a, b), True
    if not found:
        raise GapforgeError("distance undefined for codes with a single codeword")
    return DistanceReport(best, witness, examined, "pairs")


def _modinv(a: int, q: int) -> int:
    return pow(a, q - 2, q)


def _det_mod(matrix: list[list[int]], q: int) -> int:
    """Determinant mod prime q by Gaussian elimination."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = 1
    for col in range(n):
        pivot = next((row for row in range(col, n) if m[row][col] % q), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det % q
        det = det * m[col][col] % q
        inv = _modinv(m[col][col], q)
        for row in range(col + 1, n):
            factor = m[row][col] * inv % q
            if factor:
                for j in range(col, n):
                    m[row][j] = (m[row][j] - factor * m[col][j]) % q
    return det % q


def _rs_certified_distance(code: Code) -> DistanceReport:
    """Measure the exact RS distance without enumerating codeword pairs.

    Two distinct codewords agree exactly where their difference polynomial
    (nonzero, degree < r) vanishes, so the minimum distance is q minus the
    largest root count.  The measurement has three computed parts:

    1. for every r-subset of evaluation points, the r x r evaluation matrix
       is verified invertible mod q, so only the zero polynomial vanishes on
       r points and no nonzero codeword difference has >= r roots;
    2. a witness polynomial with r-1 distinct roots is built and its
       codeword's agreement count with the zero codeword is measured;
    3. linearity of the encoder (difference of codewords is the codeword of
       the message difference) is spot-checked on sampled message pairs.
    """
    q, r = code.q, code.r
    checks = 0
    for points in combinations(range(q), r):
        matrix = [[pow(x, j, q) for j in range(r)] for x in points]
        if _det_mod(matrix, q) == 0:
            raise GapforgeError(
                f"evaluation matrix singular at points {points}; RS certificate failed")
        checks += 1

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
    upper_bound is q+1, defined only when |C| >= q+1.
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
    """Smallest integer n with n*n >= num/den, in exact arithmetic."""
    n = math.isqrt((num + den - 1) // den)
    while n * n * den < num:
        n += 1
    while n >= 1 and (n - 1) * (n - 1) * den >= num:
        n -= 1
    return n


def col_bounds(code: Code, *, distance: Fraction | None = None):
    """(lower, upper) bracket for the collision number.

    lower = ceil(sqrt(2/(1-delta))), INFINITE when delta = 1; upper = q+1,
    None when |C| < q+1 (the pigeonhole argument needs q+1 codewords).
    """
    if distance is None:
        distance = relative_distance(code).delta
    if distance == 1:
        lower: int | float = INFINITE
    else:
        ratio = 2 / (1 - distance)
        lower = ceil_sqrt_ratio(ratio.numerator, ratio.denominator)
    upper = code.q + 1 if code.size >= code.q + 1 else None
    return lower, upper


def _field_packing(widths):
    """(pack, low, top) for ints made of fields of the given bit widths.

    Field i holds the widths[i] bits from sum(widths[:i]) up, and
    pack(word) sets bit word[i] of field i, one-hot per symbol.  low holds
    every bit of a field but its top one, and top the top bits.  For x
    made of such fields, ((x & low) + low | x) & top has the top bit of
    exactly the nonzero fields of x: adding low carries into a field's top
    bit iff one of its lower bits is set, without reaching the next field,
    and OR-ing x adds the top bit itself.  A field of width 1 has no low
    bits; its one bit is its top.
    """
    starts = (0, *accumulate(widths))
    low = sum(((1 << (w - 1)) - 1) << s for s, w in zip(starts, widths))
    top = sum(1 << (s + w - 1) for s, w in zip(starts, widths))

    def pack(word) -> int:
        return sum(1 << (s + w) for s, w in zip(starts, word))

    return pack, low, top


def _first_collision(words, size: int, anchored: bool, low: int, top: int,
                     examined: int, budget: int):
    """Depth-first search for the lexicographically-first colliding subset.

    Visits the size-subsets of range(len(words)) in lexicographic order
    (only those holding 0 when anchored).  A depth keeps seen, the OR of
    the chosen words, and dup, the OR of their pairwise ANDs; a subset
    collides on every coordinate iff every field of its dup is nonzero.
    Returns (witness or None, examined), examined counting complete
    subsets; the subset numbered budget + 1 raises BudgetExceededError
    untested.
    """
    n = len(words)
    chosen = []

    def extend(start: int, seen: int, dup: int):
        nonlocal examined
        depth = len(chosen)
        if depth == size - 1:
            stop = min(n, start + budget - examined)
            for m in range(start, stop):
                d = dup | seen & words[m]
                if ((d & low) + low | d) & top == top:
                    examined += m - start + 1
                    return (*chosen, m)
            examined += stop - start
            if stop < n:
                raise BudgetExceededError(
                    f"collision search exceeded budget {budget} at size {size}")
            return None
        stop = 1 if anchored and depth == 0 else n - size + depth + 1
        for m in range(start, stop):
            c = words[m]
            chosen.append(m)
            witness = extend(m + 1, seen | c, dup | seen & c)
            if witness is not None:
                return witness
            chosen.pop()
        return None

    return extend(0, 0, 0), examined


def collision_number(code: Code, size_cap: int | None = None, *,
                     budget: int = DEFAULT_SUBSET_BUDGET,
                     cap: int = DEFAULT_ENUM_CAP,
                     distance: Fraction | None = None) -> CollisionReport:
    """Smallest subset of codewords colliding on every coordinate.

    Searches subsets in increasing size, lexicographically within a size,
    so the witness is minimal and lexicographically first.  If some
    coordinate has pairwise-distinct values across the whole code, no
    subset collides there and the collision number is INFINITE.

    Reed-Solomon codes are searched only over subsets holding rank 0, the
    zero word.  This is exact: the code is linear, so for c in a colliding
    set S, S - c is a set of codewords of the same size that agrees exactly
    where S agrees and holds 0, and it precedes S when 0 is not in S.  So
    the lexicographically-first minimal witness holds 0.  Random, PHF and
    explicit codes are searched in full.  subsets_examined counts the
    complete subsets tested; budget bounds it.
    """
    if size_cap is not None and size_cap < 0:
        raise CapExceededError(f"collision size cap must be >= 0, got {size_cap}")
    table = code.table(cap)
    n = len(table)
    if size_cap is None:
        size_cap = n
    if distance is None:
        distance = relative_distance(code).delta
    lower, upper = col_bounds(code, distance=distance)

    examined = 0
    for i in range(code.ell):
        if len({word[i] for word in table}) == n:
            return CollisionReport(INFINITE, "infinite", None, lower, upper,
                                   size_cap, examined)

    pack, low, top = _field_packing((code.q,) * code.ell)
    words = [pack(word) for word in table]
    anchored = code.kind == KIND_REED_SOLOMON
    for s in range(2, min(size_cap, n) + 1):
        witness, examined = _first_collision(words, s, anchored, low, top,
                                             examined, budget)
        if witness is not None:
            return CollisionReport(s, "finite", witness, lower, upper,
                                   size_cap, examined)
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


def verify_phf(domain_size: int, q: int, functions, *,
               budget: int = DEFAULT_SUBSET_BUDGET):
    """Exhaustively check the separation property.

    Subsets of size exactly min(q, N) suffice: a function injective on T is
    injective on every subset of T.  Returns (ok, first failing subset).
    """
    size = min(q, domain_size)
    if math.comb(domain_size, size) > budget:
        raise CapExceededError(
            f"C({domain_size},{size}) subsets exceed verification budget {budget}")
    for subset in combinations(range(domain_size), size):
        if not any(len({h[x] for x in subset}) == size for h in functions):
            return False, subset
    return True, None


def find_phf(domain_size: int, q: int, ell_max: int, seed: int, *,
             attempts_per_ell: int = 64,
             budget: int = DEFAULT_SUBSET_BUDGET) -> PerfectHashFamily:
    """Randomized search for a perfect hash family, verified exhaustively.

    Samples families of growing size ell = 1..ell_max (deterministic in the
    seed) and returns the first family passing verification.
    """
    if domain_size < 1 or q < 1:
        raise SymbolRangeError("domain_size and q must be positive")
    rng = random.Random(seed)
    for ell in range(1, ell_max + 1):
        for _ in range(attempts_per_ell):
            functions = tuple(
                tuple(rng.randrange(q) for _ in range(domain_size))
                for _ in range(ell))
            ok, _ = verify_phf(domain_size, q, functions, budget=budget)
            if ok:
                return PerfectHashFamily(domain_size, q, functions)
    raise PhfNotFoundError(ell_max)


def phf_to_code(phf: PerfectHashFamily) -> Code:
    """Interpret a PHF as a code: codeword x has i-th coordinate h_i(x).

    The message space is re-indexed as [N]; the nominal message length is
    ceil(log_q N) and the table length N is authoritative.
    """
    table = tuple(tuple(h[x] for h in phf.functions) for x in range(phf.domain_size))
    r = 1
    while phf.q ** r < phf.domain_size:
        r += 1
    return Code(phf.q, r, phf.ell, KIND_PHF, table=table)


# ---------------------------------------------------------------------------
# Serialization


def code_to_json(code: Code, *, cap: int = DEFAULT_ENUM_CAP) -> dict:
    """JSON document with the table in lexicographic message order."""
    doc = {
        "format": FORMAT_TAG,
        "q": code.q,
        "r": code.r,
        "ell": code.ell,
        "kind": code.kind,
        "table": [list(word) for word in code.table(cap)],
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
        if code.table() != table:
            raise SchemaVersionError("reed_solomon table does not match its parameters")
        return code
    return Code(q, r, ell, kind, table=table, seed=doc.get("seed"))
