"""Partitioned MaxCover instances, the exact solver, and gap compositions.

An instance is a bipartite graph with left super-nodes V_1..V_k and right
super-nodes W_1..W_t; its value is the maximal fraction of right
super-nodes that admit a joint neighbor of one chosen vertex per left
super-node.  Explicit instances carry an edge list.  The composed instances
of both gap routes (Thm 4.2 and Appendix B) are oracle-backed: per base
vertex and column they keep one int packing, for all ell parts, the
symbols the vertex allows, so adjacency is one bit test per column and a
labeling's coverage of every part is one AND and one constant-time field
test per column.  All values are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .codes import Code, _match_parts, _symbols_of_rank, relative_distance
from .errors import (
    DEFAULT_EDGE_CAP,
    DEFAULT_LABELING_CAP,
    CapExceededError,
    DegreeBoundError,
    EmptyPartError,
    GapforgeError,
    IndexRangeError,
    NotPseudoProjectionError,
    NotTwoPartsError,
    ParseError,
)
from .serialize import (
    COMPLETENESS_OK,
    FORMAT_TAG,
    SOUNDNESS_OK,
    VERDICT_VIOLATION,
    check_format,
    require_ints,
    require_keys,
)

PROJECTION = "projection"
FULL = "full"
VIOLATION = "violation"


class MaxCoverInstance:
    """Explicit instance with global vertex ids.

    V-vertices are 0..|V|-1 in part order and W-vertices follow,
    |V|..|V|+|W|-1.  Per-vertex neighborhoods are kept as one int bitmask
    per right super-node.  Immutable after construction.
    """

    __slots__ = ("v_parts", "w_parts", "edges", "provenance",
                 "_v_offsets", "_w_offsets", "_masks")

    def __init__(self, v_parts, w_parts, edges, provenance: str = ""):
        self.v_parts = tuple(v_parts)
        self.w_parts = tuple(w_parts)
        if not self.v_parts or not self.w_parts:
            raise EmptyPartError("need at least one left and one right super-node")
        if any(s < 0 for s in self.v_parts):
            raise IndexRangeError("negative part size")
        if any(s < 1 for s in self.w_parts):
            raise EmptyPartError("right super-nodes must be non-empty")
        self._v_offsets = _offsets(self.v_parts)
        self._w_offsets = _offsets(self.w_parts)
        num_v, num_w = sum(self.v_parts), sum(self.w_parts)
        masks = [[0] * self.t for _ in range(num_v)]
        cleaned = set()
        for vg, wg in edges:
            _check_ids(vg, wg, num_v, num_w)
            j, local = self.w_part_of(wg)
            masks[vg][j] |= 1 << local
            cleaned.add((vg, wg))
        self.edges = tuple(sorted(cleaned))
        self._masks = masks
        self.provenance = provenance

    @property
    def k(self) -> int:
        return len(self.v_parts)

    @property
    def t(self) -> int:
        return len(self.w_parts)

    @property
    def num_v(self) -> int:
        return self._v_offsets[-1]

    @property
    def num_w(self) -> int:
        return self._w_offsets[-1]

    def v_global(self, i: int, rank: int) -> int:
        return self._v_offsets[i] + rank

    def w_global(self, j: int, rank: int) -> int:
        return self.num_v + self._w_offsets[j] + rank

    def w_part_of(self, wg: int) -> tuple[int, int]:
        local = wg - self.num_v
        for j, off in enumerate(self._w_offsets[1:]):
            if local < off:
                return j, local - self._w_offsets[j]
        raise IndexRangeError(f"W id {wg} out of range")

    def adjacent(self, vg: int, wg: int) -> bool:
        _check_ids(vg, wg, self.num_v, self.num_w)
        j, local = self.w_part_of(wg)
        return bool(self._masks[vg][j] >> local & 1)

    def neighbors_in_part(self, vg: int, j: int) -> tuple[int, ...]:
        mask = self._masks[vg][j]
        return tuple(p for p in range(self.w_parts[j]) if mask >> p & 1)

    def covered(self, labeling, j: int) -> bool:
        acc = -1
        for i, rank in enumerate(labeling):
            acc &= self._masks[self._v_offsets[i] + rank][j]
            if not acc:
                return False
        return True

    def covered_count(self, labeling) -> int:
        rows = [self._masks[self._v_offsets[i] + rank]
                for i, rank in enumerate(labeling)]
        count = 0
        for j in range(self.t):
            acc = rows[0][j]
            for row in rows[1:]:
                acc &= row[j]
                if not acc:
                    break
            if acc:
                count += 1
        return count

    def __repr__(self):
        return (f"MaxCoverInstance(k={self.k}, t={self.t}, "
                f"|V|={self.num_v}, |W|={self.num_w}, |E|={len(self.edges)})")


def _check_ids(vg: int, wg: int, num_v: int, num_w: int) -> None:
    if not 0 <= vg < num_v:
        raise IndexRangeError(f"V id {vg} outside [0, {num_v})")
    if not num_v <= wg < num_v + num_w:
        raise IndexRangeError(f"W id {wg} outside [{num_v}, {num_v + num_w})")


def _offsets(sizes) -> tuple[int, ...]:
    out = [0]
    for s in sizes:
        out.append(out[-1] + s)
    return tuple(out)


@dataclass(frozen=True)
class MaxCoverResult:
    """Exact optimum with the lexicographically-first optimal labeling."""

    value: Fraction
    labeling: tuple[int, ...] | None
    labelings_examined: int


def maxcover_value(instance, labeling_cap: int = DEFAULT_LABELING_CAP) -> MaxCoverResult:
    """Enumerate all labelings and return the exact MaxCover value.

    Labelings are scanned in lexicographic order and only strict
    improvements are kept, so the reported labeling is the
    lexicographically-first maximizer.  An instance with an empty left
    super-node has no labeling and value 0.
    """
    sizes = instance.v_parts
    t = instance.t
    total = math.prod(sizes)
    if total > labeling_cap:
        raise CapExceededError(f"{total} labelings exceed cap {labeling_cap}")
    if total == 0:
        return MaxCoverResult(Fraction(0), None, 0)
    best = -1
    best_labeling = None
    examined = 0
    for labeling in product(*(range(s) for s in sizes)):
        examined += 1
        covered = instance.covered_count(labeling)
        if covered > best:
            best, best_labeling = covered, labeling
            if best == t:
                break
    return MaxCoverResult(Fraction(best, t), best_labeling, examined)


# ---------------------------------------------------------------------------
# Pseudo-projection profile


@dataclass(frozen=True)
class ProjectionProfile:
    """Per-(left, right) classification; entries[i][j] for V_i vs W_j."""

    entries: tuple[tuple[str, ...], ...]

    def entry(self, i: int, j: int) -> str:
        return self.entries[i][j]

    @property
    def is_pseudo_projection(self) -> bool:
        return all(e != VIOLATION for row in self.entries for e in row)

    def violations(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, row in enumerate(self.entries)
                     for j, e in enumerate(row) if e == VIOLATION)


def projection_profile(instance, *, scan_cap: int = DEFAULT_EDGE_CAP) -> ProjectionProfile:
    """Classify every (V_i, W_j) pair as PROJECTION, FULL, or VIOLATION.

    PROJECTION (every vertex of V_i has exactly one W_j neighbor) is
    checked first; a 1 x 1 complete pair therefore reports PROJECTION.
    Entries with an empty V_i are vacuously FULL.  Oracle-backed instances
    are scanned only when |V| * |W| is within scan_cap.
    """
    if not isinstance(instance, MaxCoverInstance):
        num_w = sum(instance.w_parts)
        if sum(instance.v_parts) * num_w > scan_cap:
            raise CapExceededError("profile scan of an oracle instance exceeds cap")
    rows = []
    v_off = 0
    for i, vi in enumerate(instance.v_parts):
        row = []
        for j, wj in enumerate(instance.w_parts):
            degs = [_part_degree(instance, v_off + r, j, wj) for r in range(vi)]
            if vi == 0:
                row.append(FULL)
            elif all(d == 1 for d in degs):
                row.append(PROJECTION)
            elif all(d == wj for d in degs):
                row.append(FULL)
            else:
                row.append(VIOLATION)
        rows.append(tuple(row))
        v_off += vi
    return ProjectionProfile(tuple(rows))


def _part_degree(instance, vg: int, j: int, wj: int) -> int:
    if isinstance(instance, MaxCoverInstance):
        return instance._masks[vg][j].bit_count()
    w0 = sum(instance.v_parts) + sum(instance.w_parts[:j])
    return sum(1 for p in range(wj) if instance.adjacent(vg, w0 + p))


# ---------------------------------------------------------------------------
# Gap compositions (Thm 4.2 and Appendix B)


class ComposedMaxCover:
    """Oracle-backed composition of a base instance with a code.

    Left super-nodes are carried over; right super-nodes are the ell parts
    of the threshold graph, each a copy of [q]**t.  v is adjacent to
    a = (l, tup) iff for every column j some W_j-neighbor of v has a
    matched codeword with symbol tup[j] at coordinate l.  Both gap routes
    build this graph; they differ only in their hypotheses and soundness.

    A codeword packs into one int of ell fields of q bits, field l holding
    its symbol at coordinate l one-hot.  _cols[v][j] is the OR of the packed
    codewords of v's W_j-neighbors, so its field l is the set of symbols v
    allows at coordinate l.
    """

    __slots__ = ("base", "code", "matching", "provenance", "v_parts", "w_parts",
                 "_v_offsets", "_a_size", "_cols", "_low", "_top")

    def __init__(self, base: MaxCoverInstance, code: Code, matching, provenance: str):
        self.base = base
        self.code = code
        self.matching = matching
        self.provenance = provenance
        q = code.q
        self._a_size = q ** base.t
        self._v_offsets = base._v_offsets
        self.v_parts = base.v_parts
        self.w_parts = (self._a_size,) * code.ell
        starts = range(0, code.ell * q, q)
        # every bit of a field but its top one, and the top ones
        self._low = sum(((1 << (q - 1)) - 1) << s for s in starts)
        self._top = sum(1 << (s + q - 1) for s in starts)
        packed = [[sum(1 << (s + w) for s, w in zip(starts, code.codeword(m)))
                   for m in inj] for inj in matching]
        cols = []
        for row in base._masks:
            out = []
            for words, mask in zip(packed, row):
                col = 0
                for p, word in enumerate(words):
                    if mask >> p & 1:
                        col |= word
                out.append(col)
            cols.append(tuple(out))
        self._cols = cols

    @property
    def k(self) -> int:
        return len(self.v_parts)

    @property
    def t(self) -> int:
        return self.code.ell

    @property
    def num_v(self) -> int:
        return self.base.num_v

    @property
    def num_w(self) -> int:
        return self.code.ell * self._a_size

    def a_tuple(self, rank: int) -> tuple[int, ...]:
        return _symbols_of_rank(rank, self.code.q, self.base.t)

    def adjacent_ref(self, vg: int, l: int, tup) -> bool:
        start = l * self.code.q
        return all(col >> (start + s) & 1 for col, s in zip(self._cols[vg], tup))

    def adjacent(self, vg: int, wg: int) -> bool:
        _check_ids(vg, wg, self.num_v, self.num_w)
        l, rank = divmod(wg - self.num_v, self._a_size)
        return self.adjacent_ref(vg, l, self.a_tuple(rank))

    def _covered_fields(self, labeling) -> int:
        """The top bit of field l is set iff the labeling covers part l."""
        rows = [self._cols[off + rank] for off, rank in zip(self._v_offsets, labeling)]
        low = self._low
        hit = self._top
        for col in zip(*rows):
            acc = col[0]
            for mask in col[1:]:
                acc &= mask
            # adding low carries into a field's top bit iff one of its
            # lower bits is set, without reaching the next field; OR-ing
            # acc adds the top bit itself, so the top bit marks a nonzero field
            hit &= ((acc & low) + low) | acc
            if not hit:
                break
        return hit

    def covered(self, labeling, l: int) -> bool:
        if not 0 <= l < self.t:
            raise IndexRangeError(f"part {l} outside [0, {self.t})")
        q = self.code.q
        return bool(self._covered_fields(labeling) >> (l * q + q - 1) & 1)

    def covered_count(self, labeling) -> int:
        return self._covered_fields(labeling).bit_count()

    def materialize(self, *, cap: int = DEFAULT_EDGE_CAP) -> MaxCoverInstance:
        pairs = self.num_v * self.num_w
        if pairs > cap:
            raise CapExceededError(f"materializing {pairs} candidate edges exceeds cap {cap}")
        edges = [(vg, wg) for vg in range(self.num_v)
                 for wg in range(self.num_v, self.num_v + self.num_w)
                 if self.adjacent(vg, wg)]
        return MaxCoverInstance(self.v_parts, self.w_parts, edges,
                                provenance=self.provenance + "; materialized")

    def describe(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "v_parts": list(self.v_parts),
            "w_parts": list(self.w_parts),
            "oracle": True,
            "provenance": self.provenance,
        }


def compose_gap(base: MaxCoverInstance, code: Code, matching=None) -> ComposedMaxCover:
    """Gap-creating composition with the threshold graph of (code, t=base.t).

    Requires the pseudo-projection property and an injective matching of
    every W_j into the codewords (default: lexicographic ranks).  Value 1
    is preserved; any value below 1 drops to at most 1 - delta.
    """
    profile = projection_profile(base)
    if not profile.is_pseudo_projection:
        raise NotPseudoProjectionError(
            f"instance violates pseudo-projection at {profile.violations()}")
    matching = _match_parts(code, base.w_parts, matching)
    return ComposedMaxCover(base, code, matching, (
        f"compose_gap({base.provenance or 'instance'}; "
        f"{code.kind} q={code.q} r={code.r} ell={code.ell})"))


def compose_gap_k2_bounded(base: MaxCoverInstance, code: Code, d: int,
                           matching=None) -> ComposedMaxCover:
    """Degree-bounded composition: completeness preserved, soundness d**2 * (1-delta)."""
    if base.k != 2:
        raise NotTwoPartsError(f"degree-bounded composition needs k=2, got k={base.k}")
    for vg in range(base.num_v):
        for j in range(base.t):
            deg = len(base.neighbors_in_part(vg, j))
            if deg > d:
                raise DegreeBoundError(
                    f"vertex {vg} has {deg} neighbors in W_{j}, bound d={d}")
    matching = _match_parts(code, base.w_parts, matching)
    return ComposedMaxCover(base, code, matching, (
        f"compose_gap_k2_bounded({base.provenance or 'instance'}; "
        f"{code.kind} q={code.q} r={code.r} ell={code.ell}; d={d})"))


# ---------------------------------------------------------------------------
# Gap certificate


@dataclass(frozen=True)
class GapCertificate:
    """Pass/fail record for one composition against the gap guarantees.

    violation iff value 1 was not preserved, or a value-<1 input composed to
    something above bound_factor * (1 - delta).  The witness is the
    composed instance's optimal labeling.
    """

    value_before: Fraction
    value_after: Fraction
    delta: Fraction
    bound_factor: Fraction
    verdict: str
    witness: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "format": FORMAT_TAG,
            "value_before": str(self.value_before),
            "value_after": str(self.value_after),
            "delta": str(self.delta),
            "bound_factor": str(self.bound_factor),
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def gap_certificate(base, composed, delta: Fraction, bound_factor=1, *,
                    labeling_cap: int = DEFAULT_LABELING_CAP) -> GapCertificate:
    """Solve both sides exactly and check the composition guarantees."""
    bound_factor = Fraction(bound_factor)
    before = maxcover_value(base, labeling_cap)
    after = maxcover_value(composed, labeling_cap)
    if before.value == 1:
        verdict = COMPLETENESS_OK if after.value == 1 else VERDICT_VIOLATION
    else:
        bound = bound_factor * (1 - Fraction(delta))
        verdict = SOUNDNESS_OK if after.value <= bound else VERDICT_VIOLATION
    return GapCertificate(before.value, after.value, Fraction(delta),
                          bound_factor, verdict, after.labeling)


def certify_composition(base: MaxCoverInstance, code: Code, *, d: int | None = None,
                        labeling_cap: int = DEFAULT_LABELING_CAP) -> GapCertificate:
    """Compose and certify in one step; d switches to the k=2 bounded route."""
    delta = relative_distance(code).delta
    if d is None:
        composed = compose_gap(base, code)
        factor = 1
    else:
        composed = compose_gap_k2_bounded(base, code, d)
        factor = d * d
    return gap_certificate(base, composed, delta, factor, labeling_cap=labeling_cap)


# ---------------------------------------------------------------------------
# Serialization


def maxcover_to_json(instance: MaxCoverInstance) -> dict:
    return {
        "format": FORMAT_TAG,
        "k": instance.k,
        "t": instance.t,
        "v_parts": list(instance.v_parts),
        "w_parts": list(instance.w_parts),
        "edges": [list(e) for e in instance.edges],
        "provenance": instance.provenance,
    }


def maxcover_from_json(doc: dict) -> MaxCoverInstance:
    check_format(doc)
    require_keys(doc, ("k", "t", "v_parts", "w_parts", "edges"), "maxcover")
    for key, depth in (("k", 0), ("t", 0), ("v_parts", 1), ("w_parts", 1), ("edges", 2)):
        require_ints(doc[key], depth, f"maxcover {key}")
    if doc["k"] != len(doc["v_parts"]) or doc["t"] != len(doc["w_parts"]):
        raise GapforgeError("part counts disagree with k/t fields")
    if any(len(e) != 2 for e in doc["edges"]):
        raise ParseError("maxcover edges: every edge must be a pair [v, w]")
    return MaxCoverInstance(doc["v_parts"], doc["w_parts"],
                            [tuple(e) for e in doc["edges"]],
                            provenance=doc.get("provenance", ""))
