"""Partitioned MaxCover instances, the exact solver, and gap compositions.

An instance is a bipartite graph with left super-nodes V_1..V_k and right
super-nodes W_1..W_t; its value is the maximal fraction of right
super-nodes that admit a joint neighbor of one chosen vertex per left
super-node.  Explicit instances are built from an edge list, from
per-part neighbor masks, or, by the front-ends, straight from packed
rows; the composed instances of both gap routes (Thm 4.2 and Appendix B)
are oracle-backed.  Both kinds keep one packed int row per left vertex,
made of fields, one per right super-node in each of one or more blocks,
so a labeling's coverage of every super-node is one AND of its rows, one
word-wide nonzero-field test and, for composed instances, one AND per
extra block.  The rows are the only layout; an explicit instance's edge
list is derived from them for export.  A layout (field starts and the
masks of the coverage test and the profile) depends on the shape alone and
is built once per shape.  The pseudo-projection profile tests every field
of a whole row at once.  A composed row ORs the packed codewords of its
base row's set bits, and a full base field takes the OR of its whole
part; for the default matching those words and ORs are built once per
(code, right part sizes).  All values are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .codes import Code, _field_packing, _match_parts, _symbols_of_rank, relative_distance
from .errors import (
    DEFAULT_EDGE_CAP,
    DEFAULT_LABELING_CAP,
    DEFAULT_UNIVERSE_CAP,
    CapExceededError,
    DegreeBoundError,
    EmptyPartError,
    GapforgeError,
    IndexRangeError,
    InstanceMismatchError,
    NotPseudoProjectionError,
    NotTwoPartsError,
    ParseError,
    count_text,
)
from .serialize import (
    COMPLETENESS_OK,
    FORMAT_TAG,
    SOUNDNESS_OK,
    VERDICT_VIOLATION,
    _optional_str,
    check_format,
    require_ints,
    require_keys,
)

PROJECTION = "projection"
FULL = "full"
VIOLATION = "violation"


class _PackedRows:
    """Instance members shared by both kinds: one packed int row per V vertex.

    A row is blocks of fields, every block with the same field widths, and
    field j of a block belongs to right part j.  A labeling covers part j
    iff field j of the AND of its rows is nonzero in every block.  base is
    the instance a composition was built from, kept when it is
    materialized, and None on any other instance.
    """

    __slots__ = ("v_parts", "w_parts", "provenance", "base", "_v_offsets", "_rows",
                 "_low", "_top", "_ones", "_fields", "_block_starts")

    def _lay_out(self, widths: tuple[int, ...], blocks: int) -> None:
        """Lay rows out as blocks copies of fields of the given widths.

        Sets the masks of the coverage rule (see _field_packing) and of the
        projection profile, shared by every instance of the same shape
        (_layout).
        """
        (self._block_starts, self._low, self._top, self._ones,
         self._fields) = _layout(widths, blocks)

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
        return sum(self.w_parts)

    def _part_field(self, vg: int, j: int, shift: int = 0) -> int:
        """Field j of V-vertex vg's row, in the block that starts at bit shift."""
        start, width = self._fields[j]
        return self._rows[vg] >> (shift + start) & ((1 << width) - 1)

    def _covered_fields(self, labeling) -> int:
        """The top bit of field j of block 0 is set iff the labeling covers part j.

        Unchecked: labeling must hold one in-range rank per left part.
        """
        rows = self._rows
        acc = -1
        for off, rank in zip(self._v_offsets, labeling):
            acc &= rows[off + rank]
        low = self._low
        # the top bit of each nonzero field of acc (see _field_packing)
        hit = ((acc & low) + low | acc) & self._top
        # AND every block into block 0; with b blocks, block i > 0 meets
        # block i + b - 1 of hit, past the end of the row, and clears
        fields = -1
        for start in self._block_starts:
            fields &= hit >> start
        return fields

    def _check_labeling(self, labeling) -> None:
        if len(labeling) != self.k or not all(
                0 <= rank < size for rank, size in zip(labeling, self.v_parts)):
            raise IndexRangeError(f"labeling {tuple(labeling)!r} needs one rank per "
                                  f"left part, in range of part sizes {self.v_parts}")

    def covered(self, labeling, j: int) -> bool:
        _check_index("part", j, self.t)
        self._check_labeling(labeling)
        start, width = self._fields[j]
        return bool(self._covered_fields(labeling) >> (start + width - 1) & 1)

    def covered_count(self, labeling) -> int:
        self._check_labeling(labeling)
        return self._covered_fields(labeling).bit_count()


class MaxCoverInstance(_PackedRows):
    """Explicit instance with global vertex ids.

    V-vertices are 0..|V|-1 in part order and W-vertices follow,
    |V|..|V|+|W|-1.  The row of V-vertex v has bit wg - |V| set for each
    neighbor wg, so it has one block whose field j is v's neighborhood in
    W_j as a part-local mask.  The front-ends build those rows themselves
    (_from_rows), generators hand part-local masks to from_masks, and the
    edge-list constructor takes global ids; all three end in one core,
    which checks that every row fits in |W| bits.  edges is derived from
    the rows for export.  Immutable after construction.
    """

    __slots__ = ()

    def __init__(self, v_parts, w_parts, edges, provenance: str = ""):
        v_parts, w_parts = _checked_parts(v_parts, w_parts)
        num_v, num_w = sum(v_parts), sum(w_parts)
        rows = [0] * num_v
        for vg, wg in edges:
            _check_ids(vg, wg, num_v, num_w)
            rows[vg] |= 1 << (wg - num_v)
        self._set_rows(v_parts, w_parts, rows, provenance)

    def _set_rows(self, v_parts: tuple[int, ...], w_parts: tuple[int, ...], rows,
                  provenance: str) -> None:
        """The constructor core: adopt one packed row per V vertex, in id order.

        Takes parts checked by _checked_parts; rows must be a list with one
        int per V vertex, each fitting in num_w bits.
        """
        self.v_parts, self.w_parts = v_parts, w_parts
        self._v_offsets = _offsets(v_parts)
        num_v, num_w = self._v_offsets[-1], sum(w_parts)
        if len(rows) != num_v:
            raise IndexRangeError(f"{len(rows)} rows or mask tuples for {num_v} V vertices")
        if rows and (min(rows) < 0 or max(rows) >> num_w):
            vg = next(vg for vg, row in enumerate(rows) if row < 0 or row >> num_w)
            raise IndexRangeError(f"row {rows[vg]} of V vertex {vg} does not fit "
                                  f"{num_w} W vertices")
        self._rows = rows
        self._lay_out(w_parts, 1)
        self.provenance = provenance
        self.base = None

    @classmethod
    def _from_rows(cls, v_parts, w_parts, rows, provenance: str = ""):
        """Instance whose V-vertex vg has the packed row rows[vg] (see the class doc)."""
        inst = cls.__new__(cls)
        inst._set_rows(*_checked_parts(v_parts, w_parts), rows, provenance)
        return inst

    @classmethod
    def from_masks(cls, v_parts, w_parts, masks, provenance: str = ""):
        """Instance whose V-vertex vg meets the members of W_j set in masks[vg][j].

        masks holds one sequence of t part-local bitmasks per V vertex, in
        V id order; bit p of masks[vg][j] stands for rank p of W_j.  Each
        mask is checked against its part's size and packed into its row.
        """
        v_parts, w_parts = _checked_parts(v_parts, w_parts)
        t = len(w_parts)
        fields = tuple(zip(_offsets(w_parts), w_parts))
        rows = []
        for vg, part_masks in enumerate(masks):
            if len(part_masks) != t:
                raise IndexRangeError(f"V vertex {vg} has {len(part_masks)} masks, "
                                      f"expected one per right part ({t})")
            row = 0
            for j, ((start, width), mask) in enumerate(zip(fields, part_masks)):
                if not 0 <= mask < 1 << width:
                    raise IndexRangeError(f"mask {mask} of V vertex {vg} does not fit "
                                          f"W_{j} of size {width}")
                row |= mask << start
            rows.append(row)
        return cls._from_rows(v_parts, w_parts, rows, provenance)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(V id, W id) pairs read off the rows' set bits, in ascending order."""
        num_v = self.num_v
        edges = []
        for vg, row in enumerate(self._rows):
            while row:
                bit = row & -row
                edges.append((vg, num_v + bit.bit_length() - 1))
                row ^= bit
        return tuple(edges)

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self._rows)

    def v_global(self, i: int, rank: int) -> int:
        _check_index("left part", i, self.k)
        _check_index(f"rank in left part {i}", rank, self.v_parts[i])
        return self._v_offsets[i] + rank

    def w_global(self, j: int, rank: int) -> int:
        _check_index("part", j, self.t)
        _check_index(f"rank in part {j}", rank, self.w_parts[j])
        return self.num_v + self._fields[j][0] + rank

    def w_part_of(self, wg: int) -> tuple[int, int]:
        local = wg - self.num_v
        if local >= 0:
            for j, (start, width) in enumerate(self._fields):
                if local < start + width:
                    return j, local - start
        raise IndexRangeError(f"W id {wg} outside [{self.num_v}, {self.num_v + self.num_w})")

    def adjacent(self, vg: int, wg: int) -> bool:
        _check_ids(vg, wg, self.num_v, self.num_w)
        return bool(self._rows[vg] >> (wg - self.num_v) & 1)

    def neighbors_in_part(self, vg: int, j: int) -> tuple[int, ...]:
        _check_index("V id", vg, self.num_v)
        _check_index("part", j, self.t)
        mask = self._part_field(vg, j)
        return tuple(p for p in range(self.w_parts[j]) if mask >> p & 1)

    def __repr__(self):
        return (f"MaxCoverInstance(k={self.k}, t={self.t}, "
                f"|V|={self.num_v}, |W|={self.num_w}, |E|={self.num_edges})")


def _check_index(name: str, value: int, end: int) -> None:
    if not 0 <= value < end:
        raise IndexRangeError(f"{name} {value} outside [0, {end})")


def _check_ids(vg: int, wg: int, num_v: int, num_w: int) -> None:
    if not 0 <= vg < num_v:
        raise IndexRangeError(f"V id {vg} outside [0, {num_v})")
    if not num_v <= wg < num_v + num_w:
        raise IndexRangeError(f"W id {wg} outside [{num_v}, {num_v + num_w})")


def _checked_parts(v_parts, w_parts) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The part sizes as tuples, once they are known to describe an instance."""
    v_parts, w_parts = tuple(v_parts), tuple(w_parts)
    if not v_parts or not w_parts:
        raise EmptyPartError("need at least one left and one right super-node")
    if any(s < 0 for s in v_parts):
        raise IndexRangeError("negative part size")
    if any(s < 1 for s in w_parts):
        raise EmptyPartError("right super-nodes must be non-empty")
    if max(sum(v_parts), sum(w_parts)) > DEFAULT_UNIVERSE_CAP:
        raise CapExceededError(f"a side exceeds the cap of {DEFAULT_UNIVERSE_CAP} vertices")
    return v_parts, w_parts


def _offsets(sizes) -> tuple[int, ...]:
    out = [0]
    for s in sizes:
        out.append(out[-1] + s)
    return tuple(out)


# Layouts are keyed on shape, not on input, and a job meets few shapes.
_LAYOUT_CACHE_SIZE = 256


@lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _layout(widths: tuple[int, ...], blocks: int):
    """(block starts, low, top, ones, fields) of rows of blocks copies of the widths.

    fields holds (start, width) per field of one block; low and top are
    the masks of _field_packing over every field of the row and ones the
    bottom bit of every field.  A field's bottom bit is the one above the
    previous field's top bit, so ones is top shifted up a bit, the first
    field's bottom bit added and the bit past the row dropped: linear time,
    like the masks.
    """
    _, low, top = _field_packing(widths * blocks)
    offsets = _offsets(widths)
    block = offsets[-1]
    starts = tuple(range(0, block * blocks, block))
    ones = (top << 1 | 1) & (low | top)
    return starts, low, top, ones, tuple(zip(offsets, widths))


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
        raise CapExceededError(f"{count_text(total)} labelings exceed cap {labeling_cap}")
    if total == 0:
        return MaxCoverResult(Fraction(0), None, 0)
    best = -1
    best_labeling = None
    examined = 0
    for labeling in product(*(range(s) for s in sizes)):
        examined += 1
        covered = instance._covered_fields(labeling).bit_count()
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


def projection_profile(instance) -> ProjectionProfile:
    """Classify every (V_i, W_j) pair as PROJECTION, FULL, or VIOLATION.

    PROJECTION (every vertex of V_i has exactly one W_j neighbor) is
    checked first; a 1 x 1 complete pair therefore reports PROJECTION.
    Entries with an empty V_i are vacuously FULL.  Each entry is read from
    the fields of V_i's packed rows that belong to W_j, one per block, so
    no W vertex is scanned: a vertex meets exactly one member of W_j iff
    each such field has one bit set, and every member iff each is all
    ones.  Both are tested on whole rows with the nonzero-field test of
    _covered_fields, nz(x) = ((x & low) + low | x) & top:
    - x & ((x | top) - ones) is x with the lowest set bit of every field
      cleared, so a field has two or more bits iff nz of it is set.  OR-ing
      top first makes every field at least its bottom bit, so subtracting
      ones borrows within no field, not even a zero one, into the next.
    - a field is all ones iff nz(~x & (low | top)) is clear there.
    The per-field answers are ANDed over V_i's rows and then over the
    blocks, as _covered_fields does.
    """
    rows, offsets = instance._rows, instance._v_offsets
    low, top, ones = instance._low, instance._top, instance._ones
    field_bits = low | top
    entries = []
    for i, vi in enumerate(instance.v_parts):
        if vi == 0:
            entries.append((FULL,) * instance.t)
            continue
        # top bits of the fields that have one bit / all bits in every row
        single = full = top
        for x in rows[offsets[i]:offsets[i + 1]]:
            rest = x & ((x | top) - ones)
            gaps = ~x & field_bits
            single &= ((x & low) + low | x) & ~((rest & low) + low | rest)
            full &= ~((gaps & low) + low | gaps)
        # AND every block into block 0, as in _covered_fields
        one_bit = all_bits = -1
        for start in instance._block_starts:
            one_bit &= single >> start
            all_bits &= full >> start
        row = []
        for start, width in instance._fields:
            bit = 1 << (start + width - 1)
            row.append(PROJECTION if one_bit & bit else FULL if all_bits & bit else VIOLATION)
        entries.append(tuple(row))
    return ProjectionProfile(tuple(entries))


# ---------------------------------------------------------------------------
# Gap compositions (Thm 4.2 and Appendix B)


class ComposedMaxCover(_PackedRows):
    """Oracle-backed composition of a base instance with a code.

    Left super-nodes are carried over; right super-nodes are the ell parts
    of the threshold graph, each a copy of [q]**t.  v is adjacent to
    a = (l, tup) iff for every column j some W_j-neighbor of v has a
    matched codeword with symbol tup[j] at coordinate l.  Both gap routes
    build this graph; they differ only in their hypotheses and soundness.

    A block has the layout of the code's packed words (Code.packed): ell
    fields of q bits, field l holding a symbol at coordinate l one-hot.
    The row of v has t such blocks, block j the OR of the packed codewords
    of v's W_j-neighbors, so field l of block j is the set of symbols v
    allows at coordinate l in column j.  A v adjacent to all of W_j takes
    block j from the OR of every matched codeword of W_j, computed once.
    matching=None takes the default rank matching, whose words come from
    _default_words; a given matching is checked and builds its own.
    """

    __slots__ = ("code", "matching")

    def __init__(self, base: MaxCoverInstance, code: Code, matching, provenance: str):
        self.base = base
        self.code = code
        self.provenance = provenance
        self._v_offsets = base._v_offsets
        self.v_parts = base.v_parts
        self.w_parts = (code.q ** base.t,) * code.ell
        self._lay_out((code.q,) * code.ell, base.t)
        if matching is None:
            self.matching, words, full_fields = _default_words(code, base.w_parts)
        else:
            self.matching = _match_parts(code, base.w_parts, matching)
            words, full_fields = _matched_words(code, base.w_parts, self.matching)
        self._rows = []
        for base_row in base._rows:
            row = 0
            for field, part_or in full_fields:
                if base_row & field == field:
                    row |= part_or
                    base_row ^= field
            while base_row:
                bit = base_row & -base_row
                row |= words[bit.bit_length() - 1]
                base_row ^= bit
            self._rows.append(row)

    def a_tuple(self, rank: int) -> tuple[int, ...]:
        return _symbols_of_rank(rank, self.code.q, self.base.t)

    def adjacent_ref(self, vg: int, l: int, tup) -> bool:
        q, ell = self.code.q, self.code.ell
        if not (0 <= vg < self.num_v and 0 <= l < ell
                and len(tup) == self.base.t and min(tup) >= 0 and max(tup) < q):
            raise IndexRangeError(f"adjacent_ref({vg}, {l}, {tup!r}) needs a V id in "
                                  f"[0, {self.num_v}), a part in [0, {ell}) "
                                  f"and a vertex of [{q}]**{self.base.t}")
        return all(self._part_field(vg, l, start) >> s & 1
                   for start, s in zip(self._block_starts, tup))

    def adjacent(self, vg: int, wg: int) -> bool:
        _check_ids(vg, wg, self.num_v, self.num_w)
        l, rank = divmod(wg - self.num_v, self.w_parts[0])
        return self.adjacent_ref(vg, l, self.a_tuple(rank))

    def materialize(self) -> MaxCoverInstance:
        """The explicit instance, keeping the base; tests every (v, w) pair,
        and raises CapExceededError first if they exceed DEFAULT_EDGE_CAP."""
        pairs = self.num_v * self.num_w
        if pairs > DEFAULT_EDGE_CAP:
            raise CapExceededError(f"{count_text(pairs)} candidate edges exceed cap "
                                   f"{DEFAULT_EDGE_CAP}")
        edges = [(vg, wg) for vg in range(self.num_v)
                 for wg in range(self.num_v, self.num_v + self.num_w)
                 if self.adjacent(vg, wg)]
        explicit = MaxCoverInstance(self.v_parts, self.w_parts, edges,
                                    provenance=self.provenance + "; materialized")
        explicit.base = self.base
        return explicit

    def describe(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "v_parts": list(self.v_parts),
            "w_parts": list(self.w_parts),
            "oracle": True,
            "provenance": self.provenance,
        }


def _matched_words(code: Code, w_parts: tuple[int, ...], matching):
    """(words, full_fields) of a composition's rows for a checked matching.

    Word b is the packed codeword matched to base W-vertex b, in the block
    of its part; full_fields pairs each base field's mask with the OR of
    its part's words, which a base row whose field is full takes at once.
    """
    block = code.q * code.ell
    words = tuple(code.packed(m) << (j * block)
                  for j, inj in enumerate(matching) for m in inj)
    full_fields = []
    for start, width in zip(_offsets(w_parts), w_parts):
        part_or = 0
        for word in words[start:start + width]:
            part_or |= word
        full_fields.append((((1 << width) - 1) << start, part_or))
    return words, tuple(full_fields)


@lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _default_words(code: Code, w_parts: tuple[int, ...]):
    """(matching, words, full_fields) for the default rank matching.

    Keyed on the shape of a composition (the code and the base's right
    part sizes), like _layout; a job composes few shapes.
    """
    matching = _match_parts(code, w_parts)
    return (matching, *_matched_words(code, w_parts, matching))


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
    return ComposedMaxCover(base, code, matching, (
        f"compose_gap({base.provenance or 'instance'}; "
        f"{code.kind} q={code.q} r={code.r} ell={code.ell})"))


def compose_gap_k2_bounded(base: MaxCoverInstance, code: Code, d: int) -> ComposedMaxCover:
    """Degree-bounded composition: completeness preserved, soundness d**2 * (1-delta)."""
    if base.k != 2:
        raise NotTwoPartsError(f"degree-bounded composition needs k=2, got k={base.k}")
    for vg in range(base.num_v):
        for j in range(base.t):
            deg = base._part_field(vg, j).bit_count()
            if deg > d:
                raise DegreeBoundError(
                    f"vertex {vg} has {deg} neighbors in W_{j}, bound d={d}")
    return ComposedMaxCover(base, code, None, (
        f"compose_gap_k2_bounded({base.provenance or 'instance'}; "
        f"{code.kind} q={code.q} r={code.r} ell={code.ell}; d={d})"))


# ---------------------------------------------------------------------------
# Gap certificate


@dataclass(frozen=True)
class GapCertificate:
    """Pass/fail record for one composition against the gap guarantees.

    This is the one gap rule; the pipelines take their verdict from it.
    violation iff value 1 was not preserved, or a value-<1 input composed to
    something above bound_factor * (1 - delta).  The witness is the
    composed instance's optimal labeling, and labelings_examined counts the
    labelings the composed solve evaluated (not part of to_json).
    """

    value_before: Fraction
    value_after: Fraction
    delta: Fraction
    bound_factor: Fraction
    verdict: str
    witness: tuple[int, ...] | None
    labelings_examined: int

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


def gap_certificate(base, composed, delta: Fraction, bound_factor=1) -> GapCertificate:
    """Solve both sides exactly and check the composition guarantees.

    Each solve is capped at DEFAULT_LABELING_CAP labelings.  A composition,
    materialized or not, must have been built from base; an explicit
    instance with no base (say, an edited copy) is taken as given.
    """
    if composed.base is not None and composed.base is not base:
        raise InstanceMismatchError("the composition was built from another base instance")
    if not isinstance(delta, Fraction):
        delta = Fraction(delta)
    if not isinstance(bound_factor, Fraction):
        bound_factor = Fraction(bound_factor)
    before = maxcover_value(base)
    after = maxcover_value(composed)
    if before.value == 1:
        verdict = COMPLETENESS_OK if after.value == 1 else VERDICT_VIOLATION
    else:
        bound = bound_factor * (1 - delta)
        verdict = SOUNDNESS_OK if after.value <= bound else VERDICT_VIOLATION
    return GapCertificate(before.value, after.value, delta, bound_factor,
                          verdict, after.labeling, after.labelings_examined)


def certify_composition(base: MaxCoverInstance, code: Code, *,
                        d: int | None = None) -> GapCertificate:
    """Compose and certify in one step; d switches to the k=2 bounded route."""
    delta = relative_distance(code).delta
    if d is None:
        composed = compose_gap(base, code)
        factor = 1
    else:
        composed = compose_gap_k2_bounded(base, code, d)
        factor = d * d
    return gap_certificate(base, composed, delta, factor)


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
                            provenance=_optional_str(doc, "provenance", "maxcover"))
