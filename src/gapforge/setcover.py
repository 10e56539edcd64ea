"""Partitioned SetCover instances, exact cover search, and the threshold
composition that turns a no-gap instance into one whose soundness threshold
is the code's collision number.

The composed universe is {(i, f) : i in [ell], f : A_i -> U} with f encoded
as a length-q**k sequence over U in lexicographic A-vertex order; the
composed set for S (matched to codeword m(S) in collection j) contains
(i, f) iff some a in A_i has a_j = C(m(S))_i and f(a) in S.  That one rule
is kept as one packed slot vector per base set (ComposedSetCover), which
membership, covers and the cover search all read; so nothing but export
(materialize, capped at DEFAULT_UNIVERSE_CAP elements) enumerates the
universe.

The base minimum, the base one-set-per-collection cover and the composed
minimum are all found by one pruned depth-first search, _first_cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product

from .codes import Code, _field_packing, _match_parts, _set_bits, collision_number
from .errors import (
    DEFAULT_SUBSET_BUDGET,
    DEFAULT_UNIVERSE_CAP,
    BudgetExceededError,
    CapExceededError,
    EmptyPartError,
    GapforgeError,
    IndexRangeError,
    InstanceMismatchError,
    UniverseCapError,
    checked_int,
    count_text,
)
from .serialize import (
    COMPLETENESS_OK,
    FORMAT_TAG,
    SOUNDNESS_OK,
    VACUOUS_OK,
    VERDICT_VIOLATION,
    _optional_str,
    check_format,
    require_ints,
    require_keys,
)
from .threshold import _intent_mask


class SetCoverInstance:
    """Universe [n] plus k collections of subsets, with bitset membership."""

    __slots__ = ("universe_size", "collections", "provenance", "_masks")

    def __init__(self, universe_size: int, collections, provenance: str = ""):
        universe_size = checked_int(universe_size, 1, None, "universe size", IndexRangeError)
        if universe_size > DEFAULT_UNIVERSE_CAP:
            raise UniverseCapError(f"universe of {count_text(universe_size)} elements "
                                   f"exceeds cap {DEFAULT_UNIVERSE_CAP}")
        try:
            colls = tuple(tuple(frozenset(s) for s in coll) for coll in collections)
        except TypeError as exc:
            raise IndexRangeError(f"malformed SetCover instance: {exc}") from None
        if not colls or any(not coll for coll in colls):
            raise EmptyPartError("every collection must contain at least one set")
        for coll in colls:
            for s in coll:
                for e in s:
                    checked_int(e, 0, universe_size, "element", IndexRangeError)
        self.universe_size = universe_size
        self.collections = colls
        self.provenance = provenance
        self._masks = {}
        for j, coll in enumerate(colls):
            for idx, s in enumerate(coll):
                self._masks[(j, idx)] = sum(1 << e for e in s)

    @property
    def k(self) -> int:
        return len(self.collections)

    @property
    def full_mask(self) -> int:
        return (1 << self.universe_size) - 1

    def mask(self, ref) -> int:
        return _lookup(self._masks, ref)

    def all_refs(self) -> tuple[tuple[int, int], ...]:
        return tuple((j, idx) for j, coll in enumerate(self.collections)
                     for idx in range(len(coll)))

    def __repr__(self):
        sizes = [len(c) for c in self.collections]
        return f"SetCoverInstance(|U|={self.universe_size}, k={self.k}, sets={sizes})"


def _lookup(table: dict, ref):
    """table[ref] for a (collection, index) ref; IndexRangeError if it names no set."""
    try:
        return table[ref]
    except (KeyError, TypeError):
        raise IndexRangeError(f"no set {ref!r} in the base instance") from None


@dataclass(frozen=True)
class CoverReport:
    """Exact minimum cover up to a cap, plus the partitioned-cover answer.

    min_size is None when no cover of size <= cap exists; the witness is the
    lexicographically-first minimum cover over (collection, index) refs.
    The partitioned witness is the first one-set-per-collection cover in
    product order.  subsets_examined counts the prefixes both searches visit.
    """

    min_size: int | None
    witness: tuple[tuple[int, int], ...] | None
    cap: int
    partitioned_exists: bool
    partitioned_witness: tuple[tuple[int, int], ...] | None
    subsets_examined: int


def _first_cover(refs, vectors, missing, window_lists, examined: int = 0):
    """First covering choice of refs in the windows' order; (refs or None, examined).

    vectors[p] packs ref p's base mask into every slot it reaches, and a
    choice covers iff missing(OR of its vectors) is 0.  For each window list in
    turn, depth d takes the position p in [max(lo_d, previous + 1), hi_d) of
    its window (lo_d, hi_d): windows (0, n - s + d + 1) visit
    combinations(refs, s) in order, and one window per collection visits
    the product of the collections.  A prefix is dropped when it stays
    uncovered even after OR-ing in every later vector, so the first
    covering choice of the unpruned order is kept.  examined counts the
    prefixes visited; the prefix numbered DEFAULT_SUBSET_BUDGET + 1 raises.
    """
    later = [0]
    for vec in reversed(vectors):
        later.append(vec | later[-1])
    later.reverse()

    if missing(later[0]):
        return None, examined
    for windows in window_lists:
        # depth d: the union of the refs chosen above it, and its next position
        prefixes, nexts = [0], [windows[0][0]]
        while nexts:
            d, p = len(nexts) - 1, nexts[-1]
            if p >= windows[d][1]:
                prefixes.pop()
                nexts.pop()
                continue
            nexts[d] = p + 1
            examined += 1
            if examined > DEFAULT_SUBSET_BUDGET:
                raise BudgetExceededError(f"cover search exceeded budget {DEFAULT_SUBSET_BUDGET}")
            state = prefixes[d] | vectors[p]
            if d + 1 == len(windows):
                if not missing(state):
                    return tuple(refs[n - 1] for n in nexts), examined
            elif not missing(state | later[p + 1]):
                prefixes.append(state)
                nexts.append(max(windows[d + 1][0], p + 1))
    return None, examined


def _size_windows(n: int, cap: int):
    """Windows of combinations(range(n), s) for s = 1 .. min(cap, n)."""
    cap = checked_int(cap, 0, None, "cover size cap", CapExceededError)
    return ([(0, n - s + d + 1) for d in range(s)] for s in range(1, min(cap, n) + 1))


def min_cover_size(instance: SetCoverInstance, cap: int) -> CoverReport:
    """Exhaustive minimum-cover search over unions of <= cap sets."""
    refs = instance.all_refs()
    vectors = [instance.mask(ref) for ref in refs]
    missing = instance.full_mask.__xor__
    found, examined = _first_cover(refs, vectors, missing, _size_windows(len(refs), cap))
    ends = list(accumulate(len(coll) for coll in instance.collections))
    per_collection = list(zip([0] + ends, ends))
    part, examined = _first_cover(refs, vectors, missing, [per_collection], examined)
    return CoverReport(len(found) if found else None, found, cap,
                       part is not None, part, examined)


# ---------------------------------------------------------------------------
# Composition


class ComposedSetCover:
    """Oracle-backed composed instance over universe {(i, f) : f : A_i -> U}.

    Each base set keeps one packed slot vector, built here: bits from
    |U| * s on hold slot s = i * q**k + a, the base set itself when vertex
    a of A_i is adjacent to the set's codeword and nothing otherwise.  So
    (i, f) lies in the set iff the vector has bit f(a) of some slot (i, a),
    and sets cover part i iff the OR of their vectors has a full slot there.
    Membership, covers, the cover search and export read only these vectors.
    matching=None takes the default rank matching; a given one is checked.
    """

    __slots__ = ("base", "code", "matching", "ell", "k", "fsize",
                 "universe_size", "provenance", "_vectors", "_layout")

    def __init__(self, base: SetCoverInstance, code: Code, matching=None):
        self.matching = _match_parts(code, [len(coll) for coll in base.collections], matching)
        self.base = base
        self.code = code
        self.k = base.k
        self.ell = code.ell
        self.fsize = code.q ** base.k
        self.universe_size = code.ell * base.universe_size ** self.fsize
        self.provenance = (f"compose_setcover({base.provenance or 'instance'}; "
                           f"{code.kind} q={code.q} r={code.r} ell={code.ell})")

        u = base.universe_size
        part_bits = u * self.fsize
        # spread[j][symbol]: bit |U| * a of every A-vertex a with a_j == symbol,
        # read off the set bits of that symbol's intent mask in B_j
        spread = [[sum(1 << u * a for a in _set_bits(_intent_mask(code.q, base.k, j, symbol)))
                   for symbol in range(code.q)] for j in range(base.k)]
        self._vectors = {}
        for ref in base.all_refs():
            word = code.codeword(self.matching[ref[0]][ref[1]])
            slots = sum(spread[ref[0]][symbol] << part_bits * i
                        for i, symbol in enumerate(word))
            self._vectors[ref] = base.mask(ref) * slots
        # slot fields of |U| bits, then part fields of q**k slots (see _field_packing)
        _, low, top = _field_packing((u,) * (code.ell * self.fsize))
        _, part_low, part_top = _field_packing((part_bits,) * code.ell)
        self._layout = (low | top, low, top, part_low, part_top)

    def _element_bits(self, element) -> int:
        """The bits of element (i, f): bit f(a) of slot (i, a) for every a.  Unchecked."""
        u = self.base.universe_size
        i, f = element
        first = u * self.fsize * i
        return sum(1 << first + u * a + x for a, x in enumerate(f))

    def contains(self, ref, element) -> bool:
        """Membership oracle: element = (i, f) with f a length-q**k sequence.

        i must be an int in [ell] and each f(a) an int in [|U|], else
        IndexRangeError, as is an element of any other shape.
        """
        u = self.base.universe_size
        try:
            i, f = element
            f = [checked_int(x, 0, u, "element value f(a)", IndexRangeError) for x in f]
        except (TypeError, ValueError):
            raise IndexRangeError(f"element {element!r} is not a pair (i, f)") from None
        if len(f) != self.fsize:
            raise IndexRangeError(f"element needs f of length {self.fsize}, got {len(f)}")
        i = checked_int(i, 0, self.ell, "element part i", IndexRangeError)
        return bool(_lookup(self._vectors, ref) & self._element_bits((i, f)))

    def iter_universe(self):
        values = range(self.base.universe_size)
        return ((i, f) for i in range(self.ell) for f in product(values, repeat=self.fsize))

    def _uncovered(self, state) -> int:
        """The top bit of part i's field is set iff state has no full slot there.

        Two nonzero-field tests (see _field_packing): a slot is full iff its
        gaps, ~state within the slots, make a zero field, and a part has a
        full slot iff its field of full-slot top bits is nonzero.
        """
        slot_bits, low, top, part_low, part_top = self._layout
        gaps = state ^ slot_bits
        full = top ^ ((gaps & low) + low | gaps) & top
        return part_top ^ ((full & part_low) + part_low | full) & part_top

    def covers(self, refs):
        """(True, None) if the refs cover the universe, else (False, witness).

        (i, f) lies in no ref's set exactly when f(a) avoids, for every a in
        A_i, the union of the base sets of the refs adjacent to a (Thm 5.1).
        So part i is covered iff some vertex's union is all of U, and
        otherwise the witness, the first uncovered element in enumeration
        order, takes the lowest element missing from each vertex's union.
        """
        state = 0
        for ref in refs:
            state |= _lookup(self._vectors, ref)
        missing = self._uncovered(state)
        if not missing:
            return True, None
        u, full = self.base.universe_size, self.base.full_mask
        i = (missing & -missing).bit_length() // (u * self.fsize) - 1
        unions = (state >> u * (i * self.fsize + a) & full for a in range(self.fsize))
        return False, (i, tuple((~x & x + 1).bit_length() - 1 for x in unions))

    def min_cover(self, cap: int):
        """Exhaustive minimum-cover search over the composed sets.

        Returns (size, refs, examined): the first minimum cover of at most
        cap sets in combinations order, or (None, None, examined).
        """
        refs = self.base.all_refs()
        found, examined = _first_cover(refs, [self._vectors[ref] for ref in refs],
                                       self._uncovered, _size_windows(len(refs), cap))
        return (len(found) if found else None), found, examined

    def materialize(self) -> SetCoverInstance:
        """Explicit composed instance; element n is the n-th of iter_universe.

        Tests every element against every vector: the one library path that
        enumerates the universe, so DEFAULT_UNIVERSE_CAP, which bounds every
        stored universe, is checked before the first element.
        """
        if self.universe_size > DEFAULT_UNIVERSE_CAP:
            raise UniverseCapError(f"composed universe of {count_text(self.universe_size)} "
                                   f"elements exceeds export cap {DEFAULT_UNIVERSE_CAP}")
        collections = [[set() for _ in coll] for coll in self.base.collections]
        for n, element in enumerate(self.iter_universe()):
            bits = self._element_bits(element)
            for (j, idx), vector in self._vectors.items():
                if vector & bits:
                    collections[j][idx].add(n)
        return SetCoverInstance(self.universe_size, collections,
                                provenance=self.provenance + "; materialized")

    def describe(self) -> dict:
        return {"universe": self.universe_size, "k": self.k,
                "set_counts": [len(c) for c in self.base.collections],
                "fsize": self.fsize, "ell": self.ell, "provenance": self.provenance}


def compose_setcover(base: SetCoverInstance, code: Code, matching=None) -> ComposedSetCover:
    """Compose with the threshold graph of (code, t=k).

    Sets of collection j are matched injectively to codewords (default by
    rank within the collection).  Completeness carries one-per-collection
    covers over; if the base has no k-set cover at all, every composed cover
    needs at least Col(code) sets.  A composition is no base: compose its
    materialize() instead.
    """
    if isinstance(base, ComposedSetCover):
        raise GapforgeError("a composed SetCover instance is no base; compose its "
                            "materialize() instead")
    return ComposedSetCover(base, code, matching)


# ---------------------------------------------------------------------------
# Certificate


@dataclass(frozen=True)
class SetCoverCertificate:
    """Checks Completeness and the Col(C) soundness threshold on one composition."""

    verdict: str
    base_partitioned: bool
    base_has_k_cover: bool
    collision_threshold: int | float
    composed_cover_size: int | None
    witness: tuple | None

    def to_json(self) -> dict:
        threshold = self.collision_threshold
        return {
            "format": FORMAT_TAG,
            "verdict": self.verdict,
            "base_partitioned": self.base_partitioned,
            "base_has_k_cover": self.base_has_k_cover,
            "collision_threshold": "infinite" if threshold == float("inf") else threshold,
            "composed_cover_size": self.composed_cover_size,
            "witness": _jsonable(self.witness),
        }


def _jsonable(obj):
    if isinstance(obj, tuple):
        return [_jsonable(x) for x in obj]
    return obj


def setcover_certificate(base: SetCoverInstance,
                         composed: ComposedSetCover) -> SetCoverCertificate:
    """Verify the composition's completeness and soundness implications.

    completeness_ok: the base has a partitioned cover and its matched
    composed tuple covers every part of the composed universe (decided by
    ComposedSetCover.covers, part by part).  soundness_ok:
    the base has no cover of size k and no composed cover smaller than
    Col(code) exists (exhaustive search).  vacuous_ok: the base satisfies
    neither hypothesis.  The search covers every size below Col(code).
    Each search runs within DEFAULT_SUBSET_BUDGET.
    """
    if composed.base is not base:
        raise InstanceMismatchError("the composition was built from another base instance")
    k = base.k
    base_report = min_cover_size(base, k)
    part_ok, part_wit = base_report.partitioned_exists, base_report.partitioned_witness
    has_k_cover = base_report.min_size is not None
    col = collision_number(composed.code)
    threshold = col.value if col.status == "finite" else float("inf")

    if part_ok:
        ok, uncovered = composed.covers(part_wit)
        if ok:
            return SetCoverCertificate(COMPLETENESS_OK, True, True, threshold, k, part_wit)
        return SetCoverCertificate(VERDICT_VIOLATION, True, True, threshold, None, uncovered)
    if not has_k_cover:
        max_size = len(base.all_refs()) if threshold == float("inf") else int(threshold) - 1
        size, combo, _ = composed.min_cover(max_size)
        if size is None:
            return SetCoverCertificate(SOUNDNESS_OK, False, False, threshold, None, None)
        return SetCoverCertificate(VERDICT_VIOLATION, False, False, threshold, size, combo)
    return SetCoverCertificate(VACUOUS_OK, False, True, threshold, None, None)


# ---------------------------------------------------------------------------
# Serialization


def setcover_to_json(instance: SetCoverInstance) -> dict:
    return {
        "format": FORMAT_TAG,
        "universe": instance.universe_size,
        "collections": [[sorted(s) for s in coll] for coll in instance.collections],
        "provenance": instance.provenance,
    }


def setcover_from_json(doc: dict) -> SetCoverInstance:
    check_format(doc)
    require_keys(doc, ("universe", "collections"), "setcover")
    return SetCoverInstance(require_ints(doc["universe"], 0, "setcover universe"),
                            require_ints(doc["collections"], 3, "setcover collections"),
                            provenance=_optional_str(doc, "provenance", "setcover"))
