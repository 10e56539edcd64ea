"""Partitioned MaxCover instances, the exact solver, and gap compositions.

An instance is a bipartite graph with left super-nodes V_1..V_k and right
super-nodes W_1..W_t; its value is the maximal fraction of right
super-nodes that admit a joint neighbor of one chosen vertex per left
super-node.  Explicit instances are built from per-part neighbor masks or
from an edge list; the composed instances of both gap routes (Thm 4.2 and
Appendix B) are oracle-backed.  Both kinds keep one packed int row per
left vertex, made of fields, one per right super-node in each of one or
more blocks, so a labeling's coverage of every super-node is one AND of
its rows, one word-wide nonzero-field test and, for composed instances,
one AND per extra block.  The rows are the only layout; an explicit
instance's edge list is derived from them for export.  All values are
exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .codes import Code, _field_packing, _match_parts, _symbols_of_rank, relative_distance
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
    iff field j of the AND of its rows is nonzero in every block.
    """

    __slots__ = ("v_parts", "w_parts", "provenance", "_v_offsets", "_rows",
                 "_low", "_top", "_fields", "_block_starts")

    def _lay_out(self, widths, blocks: int) -> None:
        """Lay rows out as blocks copies of fields of the given widths.

        Sets the masks of the coverage rule (see _field_packing).
        """
        _, low, top = _field_packing(widths)
        block = sum(widths)
        self._block_starts = tuple(range(0, block * blocks, block))
        copies = sum(1 << start for start in self._block_starts)
        self._low, self._top = low * copies, top * copies
        self._fields = tuple(zip(_offsets(widths), widths))

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
    W_j as a part-local mask.  Builders hand those masks to from_masks; the
    edge-list constructor takes global ids, and edges is derived from the
    rows for export.  Immutable after construction.
    """

    __slots__ = ()

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
        num_v, num_w = self.num_v, self.num_w
        rows = [0] * num_v
        for vg, wg in edges:
            _check_ids(vg, wg, num_v, num_w)
            rows[vg] |= 1 << (wg - num_v)
        self._rows = rows
        self._lay_out(self.w_parts, 1)
        self.provenance = provenance

    @classmethod
    def from_masks(cls, v_parts, w_parts, masks, provenance: str = ""):
        """Instance whose V-vertex vg meets the members of W_j set in masks[vg][j].

        masks holds one sequence of t part-local bitmasks per V vertex, in
        V id order; bit p of masks[vg][j] stands for rank p of W_j.
        """
        inst = cls(v_parts, w_parts, (), provenance)
        if len(masks) != inst.num_v:
            raise IndexRangeError(f"{len(masks)} mask tuples for {inst.num_v} V vertices")
        rows = inst._rows
        for vg, part_masks in enumerate(masks):
            if len(part_masks) != inst.t:
                raise IndexRangeError(f"V vertex {vg} has {len(part_masks)} masks, "
                                      f"expected one per right part ({inst.t})")
            row = 0
            for j, ((start, width), mask) in enumerate(zip(inst._fields, part_masks)):
                if not 0 <= mask < 1 << width:
                    raise IndexRangeError(f"mask {mask} of V vertex {vg} does not fit "
                                          f"W_{j} of size {width}")
                row |= mask << start
            rows[vg] = row
        return inst

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """(V id, W id) pairs read off the rows, in ascending order."""
        num_v = self.num_v
        return tuple((vg, num_v + b) for vg, row in enumerate(self._rows)
                     for b in range(row.bit_length()) if row >> b & 1)

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
    each such field is a power of two, and every member iff each is all
    ones.
    """
    rows = instance._rows
    shifts = instance._block_starts
    entries = []
    for i, vi in enumerate(instance.v_parts):
        if vi == 0:
            entries.append((FULL,) * instance.t)
            continue
        part_rows = rows[instance._v_offsets[i]:instance._v_offsets[i + 1]]
        row = []
        for start, width in instance._fields:
            full = (1 << width) - 1
            fields = {r >> (shift + start) & full for r in part_rows for shift in shifts}
            if all(f and not f & (f - 1) for f in fields):
                row.append(PROJECTION)
            elif fields == {full}:
                row.append(FULL)
            else:
                row.append(VIOLATION)
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
    allows at coordinate l in column j.
    """

    __slots__ = ("base", "code", "matching")

    def __init__(self, base: MaxCoverInstance, code: Code, matching, provenance: str):
        self.base = base
        self.code = code
        self.matching = matching
        self.provenance = provenance
        self._v_offsets = base._v_offsets
        self.v_parts = base.v_parts
        self.w_parts = (code.q ** base.t,) * code.ell
        self._lay_out((code.q,) * code.ell, base.t)
        # word b places the matched codeword of base W-vertex b in its block
        words = [code.packed(m) << start
                 for start, inj in zip(self._block_starts, matching) for m in inj]
        self._rows = []
        for base_row in base._rows:
            row = 0
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
            deg = base._part_field(vg, j).bit_count()
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

    Each solve is capped at DEFAULT_LABELING_CAP labelings.
    """
    if not isinstance(delta, Fraction):
        delta = Fraction(delta)
    if not isinstance(bound_factor, Fraction):
        bound_factor = Fraction(bound_factor)
    before = maxcover_value(base)
    after = maxcover_value(composed)
    if before.value == 1:
        verdict = COMPLETENESS_OK if after.value == 1 else VERDICT_VIOLATION
    else:
        bound = 1 - delta if bound_factor == 1 else bound_factor * (1 - delta)
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
