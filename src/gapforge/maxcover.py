"""Partitioned MaxCover instances, the exact solver, and gap compositions.

An instance is a bipartite graph with left super-nodes V_1..V_k and right
super-nodes W_1..W_t; its value is the maximal fraction of right
super-nodes that admit a joint neighbor of one chosen vertex per left
super-node.  MaxCoverInstance is the one instance type, with one edge
rule: a V vertex keeps one packed int row of blocks copies of one field
per right super-node, so a labeling's coverage of every super-node is one
AND of its rows, one word-wide nonzero-field test and one AND per extra
block.  Explicit instances have one block, the compositions of both gap
routes (Thm 4.2 and Appendix B) one per right super-node of their base.
The edge list is derived from the rows for export.  A layout depends on
the shape alone and is built once per shape; a code keeps its default
matching's shifted codewords per right-part shape, never evicted.  All
values are exact rationals.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import or_

from .codes import Code, _field_packing, _match_parts, _set_bits, relative_distance
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
    checked_int,
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


class MaxCoverInstance:
    """A MaxCover instance with global vertex ids and one packed int row per V vertex.

    V-vertices are 0..|V|-1 and W-vertices follow, each side in part order.
    A row is blocks copies of fields of the widths, field j for part j, and
    W_j has widths[j] ** blocks vertices: the one of rank p meets v iff, in
    every block b, field j of v's row has bit d_b set, d being p's
    big-endian base-widths[j] digits.  An explicit instance has one block
    (d = (p,)), whose field j is v's neighbor mask in W_j; the front-ends
    (_from_rows), generators (from_masks) and the edge-list constructor end
    in one core that checks every row fits in |W| bits.  A composition
    (_composed) keeps base, code and matching, an explicit instance None
    for each (materialize() keeps the base).  Immutable after construction.
    """

    __slots__ = ("v_parts", "w_parts", "provenance", "base", "code", "matching",
                 "_v_offsets", "_w_offsets", "_rows", "_low", "_top", "_ones", "_fields",
                 "_block_starts")

    def __init__(self, v_parts, w_parts, edges, provenance: str = ""):
        v_parts, w_parts = _checked_parts(v_parts, w_parts)
        num_v, num_w = sum(v_parts), sum(w_parts)
        rows = [0] * num_v
        for vg, wg in edges:
            vg = checked_int(vg, 0, num_v, "V id", IndexRangeError)
            wg = checked_int(wg, num_v, num_v + num_w, "W id", IndexRangeError)
            rows[vg] |= 1 << (wg - num_v)
        self._set_rows(v_parts, w_parts, rows, provenance)

    def _lay_out(self, widths: tuple[int, ...], blocks: int) -> None:
        """Lay rows out as blocks copies of fields of the given widths (_layout)."""
        (self._block_starts, self._low, self._top, self._ones, self._fields,
         self.w_parts, self._w_offsets) = _layout(widths, blocks)

    def _set_rows(self, v_parts: tuple[int, ...], w_parts: tuple[int, ...], rows,
                  provenance: str) -> None:
        """The one-block constructor core: adopt one packed row per V vertex, in id
        order, from parts checked by _checked_parts, once each row fits |W| bits."""
        self.v_parts = v_parts
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
        self.base = self.code = self.matching = None

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
                row |= checked_int(mask, 0, 1 << width, f"mask of V vertex {vg} in W_{j}",
                                   IndexRangeError) << start
            rows.append(row)
        return cls._from_rows(v_parts, w_parts, rows, provenance)

    @classmethod
    def _composed(cls, base: MaxCoverInstance, code: Code, matching, provenance: str):
        """The composition of base with the threshold graph of (code, t=base.t).

        v meets (l, tup) of A_l = [q]**t iff for every column j some
        W_j-neighbor of v has a matched codeword with symbol tup[j] at
        coordinate l.  Block j of v's row ORs the packed codewords
        (Code.packed) of v's W_j-neighbors, so the class rule, with tup as
        the rank's digits, is that edge rule; a full base field takes its
        part's OR at once.  matching=None takes the rank matching the code keeps.
        """
        inst = cls.__new__(cls)
        inst.v_parts, inst._v_offsets = base.v_parts, base._v_offsets
        inst._lay_out((code.q,) * code.ell, base.t)
        matching, words, full_fields = _matched_words(code, base.w_parts, matching)
        inst._rows = []
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
            inst._rows.append(row)
        inst.provenance, inst.base, inst.code, inst.matching = provenance, base, code, matching
        return inst

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

    def _checked_labeling(self, labeling) -> tuple[int, ...]:
        """labeling as one rank per left part, each an int in range, else IndexRangeError."""
        labeling = tuple(labeling)
        if len(labeling) != self.k:
            raise IndexRangeError(f"labeling {labeling!r} needs one rank per left part, "
                                  f"in range of part sizes {self.v_parts}")
        return tuple(checked_int(rank, 0, size, f"rank in left part {i}", IndexRangeError)
                     for i, (rank, size) in enumerate(zip(labeling, self.v_parts)))

    def covered(self, labeling, j: int) -> bool:
        j = checked_int(j, 0, self.t, "part", IndexRangeError)
        start, width = self._fields[j]
        return bool(self._covered_fields(self._checked_labeling(labeling))
                    >> (start + width - 1) & 1)

    def covered_count(self, labeling) -> int:
        return self._covered_fields(self._checked_labeling(labeling)).bit_count()

    def _one_block_rows(self) -> list[int]:
        """The same graph's rows in one block (bit wg - |V| set iff v meets wg).

        More blocks can hold far more edges than row bits, so their |V|·|W|
        candidate pairs must fit DEFAULT_EDGE_CAP before any field's ranks
        are read off its set bits (_ranks).
        """
        if len(self._block_starts) == 1:
            return self._rows
        pairs = self.num_v * self.num_w
        if pairs > DEFAULT_EDGE_CAP:
            raise CapExceededError(f"{count_text(pairs)} candidate edges exceed cap "
                                   f"{DEFAULT_EDGE_CAP}")
        # part j's ranks as a mask, shifted to W_j's offset
        blocks = self._block_starts
        return [sum(sum(1 << rank for rank in _ranks(row, field, blocks)) << offset
                    for field, offset in zip(self._fields, self._w_offsets))
                for row in self._rows]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(V id, W id) pairs in ascending order: the set bits of _one_block_rows,
        in O(|V| + |E|) big-int steps."""
        num_v = self.num_v
        return tuple((vg, num_v + w) for vg, row in enumerate(self._one_block_rows())
                     for w in _set_bits(row))

    @property
    def num_edges(self) -> int:
        """Σ popcount(row) with one block; with more, v meets the product over
        blocks of field j's popcounts in W_j."""
        if len(self._block_starts) == 1:
            return sum(row.bit_count() for row in self._rows)
        return sum(math.prod(self._part_field(vg, j, shift).bit_count()
                             for shift in self._block_starts)
                   for vg in range(self.num_v) for j in range(self.t))

    def v_global(self, i: int, rank: int) -> int:
        i = checked_int(i, 0, self.k, "left part", IndexRangeError)
        rank = checked_int(rank, 0, self.v_parts[i], f"rank in left part {i}", IndexRangeError)
        return self._v_offsets[i] + rank

    def w_global(self, j: int, rank: int) -> int:
        j = checked_int(j, 0, self.t, "part", IndexRangeError)
        rank = checked_int(rank, 0, self.w_parts[j], f"rank in part {j}", IndexRangeError)
        return self.num_v + self._w_offsets[j] + rank

    def w_part_of(self, wg: int) -> tuple[int, int]:
        local = checked_int(wg, self.num_v, self.num_v + self.num_w, "W id",
                            IndexRangeError) - self.num_v
        j = bisect_right(self._w_offsets, local) - 1
        return j, local - self._w_offsets[j]

    def adjacent(self, vg: int, wg: int) -> bool:
        """The class rule: the last block holds the least significant digit."""
        vg = checked_int(vg, 0, self.num_v, "V id", IndexRangeError)
        j, rank = self.w_part_of(wg)
        width = self._fields[j][1]
        for shift in reversed(self._block_starts):
            rank, digit = divmod(rank, width)
            if not self._part_field(vg, j, shift) >> digit & 1:
                return False
        return True

    def neighbors_in_part(self, vg: int, j: int) -> tuple[int, ...]:
        """Ranks of vg's neighbors in W_j, ascending: the set bits of field j
        of each block are the rank's digits in that block."""
        vg = checked_int(vg, 0, self.num_v, "V id", IndexRangeError)
        j = checked_int(j, 0, self.t, "part", IndexRangeError)
        return tuple(_ranks(self._rows[vg], self._fields[j], self._block_starts))

    def materialize(self) -> MaxCoverInstance:
        """The same graph as a one-block instance, keeping the base (_one_block_rows)."""
        explicit = MaxCoverInstance._from_rows(self.v_parts, self.w_parts,
                                               self._one_block_rows(),
                                               self.provenance + "; materialized")
        explicit.base = self.base
        return explicit

    def describe(self) -> dict:
        return {"k": self.k, "t": self.t, "v_parts": list(self.v_parts),
                "w_parts": list(self.w_parts), "oracle": self.code is not None,
                "provenance": self.provenance}

    def __repr__(self):
        return (f"MaxCoverInstance(k={self.k}, t={self.t}, "
                f"|V|={self.num_v}, |W|={self.num_w}, |E|={self.num_edges})")


def _ranks(row: int, field: tuple[int, int], block_starts) -> list[int]:
    """The ranks, ascending, whose digit in each block is a set bit of row's
    field (start, width) there: the class rule, read off the set bits."""
    start, width = field
    ranks = [0]
    for shift in block_starts:
        digits = list(_set_bits(row >> (shift + start) & ((1 << width) - 1)))
        ranks = [rank * width + digit for rank in ranks for digit in digits]
    return ranks


def _checked_parts(v_parts, w_parts) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The part sizes as tuples of ints, once they are known to describe an instance."""
    v_parts = tuple([checked_int(s, 0, None, "left part size", IndexRangeError) for s in v_parts])
    w_parts = tuple([checked_int(s, 1, None, "right part size", EmptyPartError) for s in w_parts])
    if not v_parts or not w_parts:
        raise EmptyPartError("need at least one left and one right super-node")
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
    """(block starts, low, top, ones, fields, w_parts, W offsets) of rows of blocks
    copies of fields of the widths.

    fields holds (start, width) per field of one block; low and top are the
    masks of _field_packing over every field of the row and ones the bottom
    bit of every field: top shifted up a bit, the first field's bottom bit
    added and the bit past the row dropped, in linear time like the masks.
    Part j has widths[j] ** blocks W vertices, placed at running offsets.
    """
    _, low, top = _field_packing(widths * blocks)
    offsets = _offsets(widths)
    block = offsets[-1]
    starts = tuple(range(0, block * blocks, block))
    ones = (top << 1 | 1) & (low | top)
    w_parts = tuple(width ** blocks for width in widths)
    return starts, low, top, ones, tuple(zip(offsets, widths)), w_parts, _offsets(w_parts)


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
    super-node has no labeling and value 0.  A negative or non-integer
    labeling_cap raises CapExceededError before any labeling is evaluated.
    """
    labeling_cap = checked_int(labeling_cap, 0, None, "labeling cap", CapExceededError)
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


def _projection_masks(instance) -> list[tuple[int, int]]:
    """(one_bit, all_bits) per left part V_i: field j's top bit in block 0 is
    set iff every vertex of V_i meets exactly one / every member of W_j.

    An empty V_i has one_bit 0 and every field in all_bits.  No W vertex is
    scanned: a vertex meets exactly one member of W_j iff each of its
    fields for W_j, one per block, has one bit set, and every member iff
    each is all ones.  Both are tested on whole rows with the nonzero-field
    test of _covered_fields, nz(x) = ((x & low) + low | x) & top:
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
    masks = []
    for lo, hi in zip(offsets, offsets[1:]):
        # top bits of the fields that have one bit / all bits in every row
        single = full = top
        for x in rows[lo:hi]:
            rest = x & ((x | top) - ones)
            gaps = ~x & field_bits
            single &= ((x & low) + low | x) & ~((rest & low) + low | rest)
            full &= ~((gaps & low) + low | gaps)
        # AND every block into block 0, as in _covered_fields
        one_bit = all_bits = -1
        for start in instance._block_starts:
            one_bit &= single >> start
            all_bits &= full >> start
        masks.append((one_bit if hi > lo else 0, all_bits))
    return masks


def projection_profile(instance) -> ProjectionProfile:
    """Classify every (V_i, W_j) pair as PROJECTION, FULL, or VIOLATION.

    PROJECTION (every vertex of V_i has exactly one W_j neighbor) is
    checked first; a 1 x 1 complete pair therefore reports PROJECTION.
    Entries with an empty V_i are vacuously FULL (see _projection_masks).
    """
    bits = [1 << (start + width - 1) for start, width in instance._fields]
    return ProjectionProfile(tuple(
        tuple(PROJECTION if one_bit & bit else FULL if all_bits & bit else VIOLATION
              for bit in bits)
        for one_bit, all_bits in _projection_masks(instance)))


# ---------------------------------------------------------------------------
# Gap compositions (Thm 4.2 and Appendix B)


def _matched_words(code: Code, w_parts: tuple[int, ...], matching=None):
    """(matching, words, full_fields) of a composition's rows, the matching checked.

    Word b is the packed codeword matched to base W-vertex b, in the block
    of its part; full_fields pairs each base field's mask with the OR of
    its part's words, which a base row whose field is full takes at once.
    The default rank matching's triple (matching=None) is kept on the code.
    """
    default = matching is None
    if default and w_parts in code._default_words:
        return code._default_words[w_parts]
    matching = _match_parts(code, w_parts, matching)
    block = code.q * code.ell
    words = tuple(code.packed(m) << (j * block)
                  for j, inj in enumerate(matching) for m in inj)
    full_fields = tuple((((1 << width) - 1) << start, reduce(or_, words[start:start + width]))
                        for start, width in zip(_offsets(w_parts), w_parts))
    if default:
        code._default_words[w_parts] = matching, words, full_fields
    return matching, words, full_fields


def _check_one_block(base: MaxCoverInstance) -> None:
    """A composition reads its base row's set bits as W vertices, so its base
    must have one block: a composition's materialize() composes, it does not."""
    if len(base._block_starts) > 1:
        raise GapforgeError(f"the base has {len(base._block_starts)} blocks per row, so its "
                            f"row bits are not W vertices; compose base.materialize() instead")


def compose_gap(base: MaxCoverInstance, code: Code, matching=None) -> MaxCoverInstance:
    """Gap-creating composition with the threshold graph of (code, t=base.t).

    Requires a one-block base (an explicit instance), the pseudo-projection
    property, tested on each left part's masks (_projection_masks, with a
    profile only to name violations), and an injective matching of every
    W_j into the codewords (default: lexicographic ranks).  Value 1 is
    preserved; any value below 1 drops to at most 1 - delta.  The result
    has base.t blocks (see MaxCoverInstance._composed).
    """
    _check_one_block(base)
    if any((one_bit | all_bits) != base._top for one_bit, all_bits in _projection_masks(base)):
        raise NotPseudoProjectionError(f"instance violates pseudo-projection at "
                                       f"{projection_profile(base).violations()}")
    return MaxCoverInstance._composed(base, code, matching, (
        f"compose_gap({base.provenance or 'instance'}; "
        f"{code.kind} q={code.q} r={code.r} ell={code.ell})"))


def compose_gap_k2_bounded(base: MaxCoverInstance, code: Code, d: int) -> MaxCoverInstance:
    """Degree-bounded composition: completeness preserved, soundness d**2 * (1-delta).

    Requires a one-block base with k = 2, checked before the degree bound,
    and d an int >= 0 (DegreeBoundError).
    """
    d = checked_int(d, 0, None, "degree bound d", DegreeBoundError)
    if base.k != 2:
        raise NotTwoPartsError(f"degree-bounded composition needs k=2, got k={base.k}")
    _check_one_block(base)
    for vg in range(base.num_v):
        for j in range(base.t):
            deg = base._part_field(vg, j).bit_count()
            if deg > d:
                raise DegreeBoundError(
                    f"vertex {vg} has {deg} neighbors in W_{j}, bound d={d}")
    return MaxCoverInstance._composed(base, code, None, (
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
        # after <= bound_factor * (1 - delta), over the positive denominators
        value, den = after.value, delta.denominator
        sound = value.numerator * bound_factor.denominator * den <= \
            value.denominator * bound_factor.numerator * (den - delta.numerator)
        verdict = SOUNDNESS_OK if sound else VERDICT_VIOLATION
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
