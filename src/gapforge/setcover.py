"""Partitioned SetCover instances, exact cover search, and the threshold
composition that turns a no-gap instance into one whose soundness threshold
is the code's collision number.

The composed universe is {(i, f) : i in [ell], f : A_i -> U} with f encoded
as a length-q**k sequence over U in lexicographic A-vertex order; the
composed set for S (matched to codeword m(S) in collection j) contains
(i, f) iff some a in A_i has a_j = C(m(S))_i and f(a) in S.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .codes import Code, _match_parts, _rank_of_symbols, _symbols_of_rank, collision_number
from .errors import (
    DEFAULT_SUBSET_BUDGET,
    DEFAULT_UNIVERSE_CAP,
    BudgetExceededError,
    CapExceededError,
    EmptyPartError,
    GapforgeError,
    IndexRangeError,
    UniverseCapError,
)
from .serialize import (
    COMPLETENESS_OK,
    FORMAT_TAG,
    SOUNDNESS_OK,
    VACUOUS_OK,
    VERDICT_VIOLATION,
    check_format,
    require_ints,
    require_keys,
)


class SetCoverInstance:
    """Universe [n] plus k collections of subsets, with bitset membership."""

    __slots__ = ("universe_size", "collections", "provenance", "_masks")

    def __init__(self, universe_size: int, collections, provenance: str = ""):
        if universe_size < 1:
            raise IndexRangeError("universe must be non-empty")
        colls = tuple(tuple(frozenset(s) for s in coll) for coll in collections)
        if not colls or any(not coll for coll in colls):
            raise EmptyPartError("every collection must contain at least one set")
        for coll in colls:
            for s in coll:
                for e in s:
                    if not 0 <= e < universe_size:
                        raise IndexRangeError(f"element {e} outside [0, {universe_size})")
        self.universe_size = universe_size
        self.collections = colls
        self.provenance = provenance
        self._masks = {}
        for j, coll in enumerate(colls):
            for idx, s in enumerate(coll):
                mask = 0
                for e in s:
                    mask |= 1 << e
                self._masks[(j, idx)] = mask

    @property
    def k(self) -> int:
        return len(self.collections)

    @property
    def full_mask(self) -> int:
        return (1 << self.universe_size) - 1

    def mask(self, ref) -> int:
        return self._masks[ref]

    def all_refs(self) -> tuple[tuple[int, int], ...]:
        return tuple((j, idx) for j, coll in enumerate(self.collections)
                     for idx in range(len(coll)))

    def __repr__(self):
        sizes = [len(c) for c in self.collections]
        return f"SetCoverInstance(|U|={self.universe_size}, k={self.k}, sets={sizes})"


@dataclass(frozen=True)
class CoverReport:
    """Exact minimum cover up to a cap, plus the partitioned-cover answer.

    min_size is None when no cover of size <= cap exists; the witness is the
    lexicographically-first minimum cover over (collection, index) refs.
    """

    min_size: int | None
    witness: tuple[tuple[int, int], ...] | None
    cap: int
    partitioned_exists: bool
    partitioned_witness: tuple[tuple[int, int], ...] | None
    subsets_examined: int


def has_partitioned_cover(instance: SetCoverInstance, *,
                          budget: int = DEFAULT_SUBSET_BUDGET):
    """Exact check for one-set-per-collection covers; returns (bool, witness)."""
    total = 1
    for coll in instance.collections:
        total *= len(coll)
    if total > budget:
        raise BudgetExceededError(f"{total} partitioned tuples exceed budget {budget}")
    full = instance.full_mask
    for choice in product(*(range(len(c)) for c in instance.collections)):
        union = 0
        for j, idx in enumerate(choice):
            union |= instance.mask((j, idx))
        if union == full:
            return True, tuple((j, idx) for j, idx in enumerate(choice))
    return False, None


def min_cover_size(instance: SetCoverInstance, cap: int, *,
                   budget: int = DEFAULT_SUBSET_BUDGET) -> CoverReport:
    """Exhaustive minimum-cover search over unions of <= cap sets."""
    refs = instance.all_refs()
    full = instance.full_mask
    examined = 0
    found: int | None = None
    witness = None
    for size in range(1, min(cap, len(refs)) + 1):
        for combo in combinations(refs, size):
            examined += 1
            if examined > budget:
                raise BudgetExceededError(f"cover search exceeded budget {budget}")
            union = 0
            for ref in combo:
                union |= instance.mask(ref)
            if union == full:
                found, witness = size, combo
                break
        if found is not None:
            break
    part_ok, part_wit = has_partitioned_cover(instance, budget=budget)
    return CoverReport(found, witness, cap, part_ok, part_wit, examined)


# ---------------------------------------------------------------------------
# Composition


class ComposedSetCover:
    """Oracle-backed composed instance over universe {(i, f) : f : A_i -> U}."""

    __slots__ = ("base", "code", "matching", "ell", "k", "fsize",
                 "universe_size", "provenance", "_adj_ranks", "_member_cache", "_fmatrix")

    def __init__(self, base: SetCoverInstance, code: Code, matching,
                 universe_cap: int = DEFAULT_UNIVERSE_CAP):
        self.base = base
        self.code = code
        self.matching = matching
        self.k = base.k
        self.ell = code.ell
        self.fsize = code.q ** base.k

        size = 1
        for _ in range(self.fsize):
            size *= base.universe_size
            if size * code.ell > universe_cap:
                raise UniverseCapError(
                    f"composed universe exceeds cap {universe_cap}")
        self.universe_size = code.ell * size
        self.provenance = (f"compose_setcover({base.provenance or 'instance'}; "
                           f"{code.kind} q={code.q} r={code.r} ell={code.ell})")

        q = code.q
        self._adj_ranks = {}
        for j, coll in enumerate(base.collections):
            for idx in range(len(coll)):
                word = code.codeword(matching[j][idx])
                per_i = []
                for i in range(code.ell):
                    ranks = tuple(
                        self.a_rank(rest[:j] + (word[i],) + rest[j:])
                        for rest in product(range(q), repeat=base.k - 1))
                    per_i.append(ranks)
                self._adj_ranks[(j, idx)] = tuple(per_i)
        self._member_cache = {}
        self._fmatrix = None

    def a_rank(self, v) -> int:
        return _rank_of_symbols(v, self.code.q)

    def contains(self, ref, element) -> bool:
        """Membership oracle: element = (i, f) with f a length-q**k sequence."""
        i, f = element
        if not 0 <= i < self.ell:
            raise IndexRangeError(f"part index {i} outside [0, {self.ell})")
        if len(f) != self.fsize:
            raise IndexRangeError(f"function must have length {self.fsize}")
        if ref not in self._adj_ranks:
            raise IndexRangeError(f"no set {ref!r} in the base instance")
        base_set = self.base.collections[ref[0]][ref[1]]
        return any(f[a] in base_set for a in self._adj_ranks[ref][i])

    def element_of_index(self, index: int):
        """Decode the canonical enumeration (i ascending, f lexicographic)."""
        per_part = self.universe_size // self.ell
        i, rank = divmod(index, per_part)
        return (i, _symbols_of_rank(rank, self.base.universe_size, self.fsize))

    def iter_universe(self):
        u = self.base.universe_size
        for i in range(self.ell):
            for f in product(range(u), repeat=self.fsize):
                yield (i, f)

    def _functions_matrix(self):
        if self._fmatrix is None:
            u = self.base.universe_size
            if u > 127:
                raise UniverseCapError("universe too large for int8 enumeration")
            self._fmatrix = np.array(
                list(product(range(u), repeat=self.fsize)), dtype=np.int8)
        return self._fmatrix

    def membership_array(self, ref) -> np.ndarray:
        """Full membership table of one composed set, in enumeration order."""
        if ref not in self._member_cache:
            fmat = self._functions_matrix()
            base_set = self.base.collections[ref[0]][ref[1]]
            in_set = np.zeros(self.base.universe_size, dtype=bool)
            for e in base_set:
                in_set[e] = True
            chunks = []
            for i in range(self.ell):
                cols = self._adj_ranks[ref][i]
                if cols and base_set:
                    chunks.append(in_set[fmat[:, cols]].any(axis=1))
                else:
                    chunks.append(np.zeros(len(fmat), dtype=bool))
            self._member_cache[ref] = np.concatenate(chunks)
        return self._member_cache[ref]

    def _first_uncovered(self, refs):
        """First uncovered element in enumeration order, or None (Thm 5.1).

        (i, f) lies in no ref's set exactly when f(a) avoids, for every a in
        A_i, the union of the base sets of the refs adjacent to a.  So part
        i is covered iff some vertex's union is all of U, and otherwise the
        lexicographically first uncovered f takes the lowest element
        missing from each vertex's union.
        """
        full = self.base.full_mask
        masks = [(self._adj_ranks[ref], self.base.mask(ref)) for ref in refs]
        for i in range(self.ell):
            unions = [0] * self.fsize
            for adj, mask in masks:
                for a in adj[i]:
                    unions[a] |= mask
            if full not in unions:
                return (i, tuple(_lowest_missing(u) for u in unions))
        return None

    def covers(self, refs):
        """(True, None) if the refs cover the universe, else (False, witness).

        Decided part by part from the base masks of the refs adjacent to
        each A_i vertex, without enumerating the universe; the witness is
        the first uncovered element in enumeration order.
        """
        element = self._first_uncovered(refs)
        return element is None, element

    def uncovered_witness_adversarial(self, refs):
        """Uncovered element built like the soundness argument, or None.

        For a part i where no A_i vertex sees refs whose base sets union to
        U, picking f(a) outside each vertex's union yields an element no ref
        contains; the element is re-verified through the membership oracle.
        """
        element = self._first_uncovered(refs)
        if element is not None and any(self.contains(ref, element) for ref in refs):
            raise GapforgeError("adversarial witness failed re-verification")
        return element

    def min_cover(self, cap: int, *, budget: int = DEFAULT_SUBSET_BUDGET):
        """Exhaustive minimum-cover search over the composed sets."""
        refs = self.base.all_refs()
        examined = 0
        for size in range(1, min(cap, len(refs)) + 1):
            for combo in combinations(refs, size):
                examined += 1
                if examined > budget:
                    raise BudgetExceededError(
                        f"composed cover search exceeded budget {budget}")
                ok, _ = self.covers(combo)
                if ok:
                    return size, combo, examined
        return None, None, examined

    def materialize(self) -> SetCoverInstance:
        """Explicit composed instance over the enumerated universe."""
        collections = []
        for j, coll in enumerate(self.base.collections):
            sets = []
            for idx in range(len(coll)):
                arr = self.membership_array((j, idx))
                sets.append(frozenset(int(x) for x in np.nonzero(arr)[0]))
            collections.append(sets)
        return SetCoverInstance(self.universe_size, collections,
                                provenance=self.provenance + "; materialized")

    def describe(self) -> dict:
        return {
            "universe": self.universe_size,
            "k": self.k,
            "set_counts": [len(c) for c in self.base.collections],
            "fsize": self.fsize,
            "ell": self.ell,
            "provenance": self.provenance,
        }


def _lowest_missing(mask: int) -> int:
    e = 0
    while mask >> e & 1:
        e += 1
    return e


def compose_setcover(base: SetCoverInstance, code: Code, matching=None, *,
                     universe_cap: int = DEFAULT_UNIVERSE_CAP) -> ComposedSetCover:
    """Compose with the threshold graph of (code, t=k).

    Sets of collection j are matched injectively to codewords (default by
    rank within the collection).  Completeness carries one-per-collection
    covers over; if the base has no k-set cover at all, every composed cover
    needs at least Col(code) sets.
    """
    matching = _match_parts(code, [len(coll) for coll in base.collections], matching)
    return ComposedSetCover(base, code, matching, universe_cap)


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


def setcover_certificate(base: SetCoverInstance, composed: ComposedSetCover,
                         cap: int | None = None, *,
                         budget: int = DEFAULT_SUBSET_BUDGET) -> SetCoverCertificate:
    """Verify the composition's completeness and soundness implications.

    completeness_ok: the base has a partitioned cover and its matched
    composed tuple covers every part of the composed universe (decided by
    ComposedSetCover.covers, part by part).  soundness_ok:
    the base has no cover of size k and no composed cover smaller than
    Col(code) exists (exhaustive search).  vacuous_ok: the base satisfies
    neither hypothesis.  cap is the caller's composed cover-search cap; it
    must be at least Col(code) for the soundness check to be conclusive, so
    a smaller cap raises CapExceededError.  The search itself covers every
    size below Col(code).
    """
    k = base.k
    base_report = min_cover_size(base, k, budget=budget)
    part_ok, part_wit = base_report.partitioned_exists, base_report.partitioned_witness
    has_k_cover = base_report.min_size is not None
    col = collision_number(composed.code)
    threshold = col.value if col.status == "finite" else float("inf")
    if cap is not None and threshold != float("inf") and cap < threshold:
        raise CapExceededError(
            f"certificate needs a cover-search cap >= Col = {threshold}, got {cap}")

    if part_ok:
        ok, uncovered = composed.covers(part_wit)
        if ok:
            return SetCoverCertificate(COMPLETENESS_OK, True, True, threshold,
                                       k, part_wit)
        return SetCoverCertificate(VERDICT_VIOLATION, True, True, threshold,
                                   None, uncovered)
    if not has_k_cover:
        refs = base.all_refs()
        max_size = len(refs) if threshold == float("inf") else min(int(threshold) - 1, len(refs))
        size, combo, _ = composed.min_cover(max_size, budget=budget)
        if size is None:
            return SetCoverCertificate(SOUNDNESS_OK, False, False, threshold,
                                       None, None)
        return SetCoverCertificate(VERDICT_VIOLATION, False, False, threshold,
                                   size, combo)
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
                            provenance=doc.get("provenance", ""))
