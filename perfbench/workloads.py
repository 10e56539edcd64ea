"""The four gapforge benchmark workloads.

A workload turns a seed into a fixed list of items.  An item calls the
program once; that call is the only thing the benchmark times.  Afterwards,
outside the timing, the item's result is checked against an oracle that
shares no code with the call it checks, and reduced to a canonical string
of values, witnesses and verdicts (never work counters or times) that feeds
the run's digest.

Inputs depend only on the seed and the scale, never on the machine, so a
fixed seed reproduces the items, their verdicts and the digest exactly.
"""

from __future__ import annotations

import json
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
EXPECTED_CODE_SEARCH = HERE / "expected_code_search.json"


@dataclass
class Item:
    """One timed program call plus its untimed oracle check."""

    label: str
    run: Callable[[], Any]
    canon: Callable[[Any], str]
    check: Callable[[Any], str | None]  # None when the oracle agrees


@dataclass
class Job:
    """What one set-up produces: the items, plus set-up timings by layer."""

    items: list[Item]
    setup_layers: dict[str, float] = field(default_factory=dict)
    # A measured pass calls an item back to back until about this long has
    # gone by, so that short items get many samples even when passes are
    # long and few.
    min_call_s: float = 0.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


STRATA = HERE / "strata.json"
STRATA_FACTOR = 16
FIXED_OFFSET = STRATA_FACTOR // 2  # where the heaviest blocks are picked, for every seed


def stratum(pool: str, seed: int, count: int, scale: float, fixed: int) -> list[int]:
    """Indices into a pool of STRATA_FACTOR * count candidates, for one seed.

    The generators' costs are heavy-tailed, so a plain seeded draw would let
    a few large inputs set a run's throughput and tail.  Instead each pool
    is ranked once by its work at the program's parent commit
    (record_expected.py writes strata.json), and a seed takes every
    STRATA_FACTOR-th candidate in that order, from offset seed % STRATA_FACTOR.
    Every seed then gets nearly the same mix of small and large inputs.
    Only the top of a heavy tail is too steep for that: the costs of
    adjacent ranks there differ by more than a benchmark bound, and the few
    inputs there alone set a run's tail.  So the last `fixed` picks take
    offset FIXED_OFFSET for every seed.  The tail then compares the same
    inputs across seeds, and the seed varies the rest of the mix.
    """
    order = json.loads(STRATA.read_text())[pool]  # cheapest first
    blocks = len(order) // STRATA_FACTOR
    offset = seed % STRATA_FACTOR
    picks = [order[b * STRATA_FACTOR + (offset if b < blocks - fixed else FIXED_OFFSET)]
             for b in range(blocks)]
    n = _scaled(count, scale)
    return sorted(picks[i * len(picks) // n] for i in range(n))


# ---------------------------------------------------------------------------
# pipeline_corpus: the criterion-10 corpus through both pipelines

CORPUS_VERTICES = 7
CORPUS_PARTS = 3
CORPUS_STRIDE = 100
CORPUS_CNFS = 200
CORPUS_CNFS_FIXED = 16  # the CNFs set the tail; about 11 of the 16 heaviest do
CNF_MAX_VARS = 12


def corpus_blocks(generators, max_vertices: int, t: int):
    """Blocks of enumerate_partitioned_graphs(max_vertices, t), in its order.

    Each block is (first index, parts, cross pairs) for one vector of part
    sizes; the block holds one graph per subset of its cross pairs.  This
    lets the benchmark build the i-th corpus graph without building the
    graphs before it.  The smoke test checks it against the generator.
    """
    blocks = []
    start = 0
    for m in range(t, max_vertices + 1):
        for sizes in generators.compositions_sorted(m, t):
            parts = []
            offset = 0
            for s in sizes:
                parts.append(tuple(range(offset, offset + s)))
                offset += s
            pairs = [(u, v) for a, b in combinations(range(t), 2)
                     for u in parts[a] for v in parts[b]]
            blocks.append((start, tuple(parts), pairs))
            start += 1 << len(pairs)
    return blocks, start


def corpus_graph(frontends, blocks, starts, index: int):
    first, parts, pairs = blocks[bisect_right(starts, index) - 1]
    mask = index - first
    edges = frozenset(pairs[p] for p in range(len(pairs)) if mask >> p & 1)
    return frontends.PartitionedGraph(parts, edges)


def _canon_pipeline(report) -> str:
    r = report
    return (f"{r.verdict}|{r.decided_no}|{r.code_q},{r.code_r},{r.code_ell}|"
            f"{r.delta_exact}|{r.delta_bound}|{r.value_before}|{r.value_after}|"
            f"{r.gap}|{r.vacuous_gap}")


def _check_pipeline(report, yes: bool) -> str | None:
    if report.verdict == "VIOLATION":
        return "pipeline reported VIOLATION"
    if (report.verdict == "YES") != yes:
        return f"verdict {report.verdict}, oracle says {'YES' if yes else 'NO'}"
    if report.decided_no:
        return None
    if (report.value_before == 1) != yes:
        return "front-end value disagrees with the oracle"
    if report.verdict == "NO" and (report.gap is None or report.gap < report.delta_exact
                                   or report.gap < report.delta_bound):
        return "gap below delta"
    return None


def cnf_candidate(mods, j: int):
    return mods.generators.random_cnf3(random.Random(f"pipeline_corpus/cnf/{j}"),
                                       max_vars=CNF_MAX_VARS)


def setup_pipeline_corpus(mods, seed: int, scale: float) -> Job:
    pipeline, oracles = mods.pipeline, mods.oracles
    blocks, total = corpus_blocks(mods.generators, CORPUS_VERTICES, CORPUS_PARTS)
    starts = [b[0] for b in blocks]
    offset = seed % CORPUS_STRIDE
    count = _scaled(total // CORPUS_STRIDE, scale)
    build_s = 0.0
    graphs = []
    for n in range(count):
        t0 = time.perf_counter()
        graph = corpus_graph(mods.frontends, blocks, starts, offset + n * CORPUS_STRIDE)
        build_s += time.perf_counter() - t0
        graphs.append((offset + n * CORPUS_STRIDE, graph))
    cnfs = [cnf_candidate(mods, j)
            for j in stratum("pipeline_corpus/cnf", seed, CORPUS_CNFS, scale,
                             CORPUS_CNFS_FIXED)]

    items = []
    for index, graph in graphs:
        items.append(Item(
            f"graph{index}",
            lambda g=graph: pipeline.wone_pipeline(g, CORPUS_PARTS),
            _canon_pipeline,
            lambda r, g=graph: _check_pipeline(r, oracles.has_colorful_clique(g))))
    for n, cnf in enumerate(cnfs):
        items.append(Item(
            f"cnf{n}",
            lambda c=cnf: pipeline.eth_pipeline(c, 2),
            _canon_pipeline,
            lambda r, c=cnf: _check_pipeline(r, oracles.cnf_satisfiable(c))))
    return Job(items, {"frontends.graph_build_s": build_s})


# ---------------------------------------------------------------------------
# gap_solve: Thm 4.2 and Appendix B compositions, decided by gap_certificate

PROJECTION_INSTANCES = 300
PROJECTION_FIXED = 8  # the tail's items come from the 5 to 7 heaviest instances
PROJECTION_CODES = ((3, 2), (5, 2), (7, 2))
BOUNDED_INSTANCES = 150
BOUNDED_CODES = ((5, 2), (11, 2))
BOUNDED_D = 2


def _canon_gap(result) -> str:
    _, cert = result
    return (f"{cert.value_before}|{cert.value_after}|{cert.delta}|{cert.bound_factor}|"
            f"{cert.verdict}|{cert.witness}")


def _check_gap(oracles, base, result) -> str | None:
    composed, cert = result
    if cert.verdict == "violation":
        return "certificate reported a violation"
    before = oracles.maxcover_value_recount(base)
    if before != cert.value_before:
        return f"base value {cert.value_before}, recount gives {before}"
    expected = "completeness_ok" if before == 1 else "soundness_ok"
    if cert.verdict != expected:
        return f"verdict {cert.verdict}, expected {expected}"
    covered = sum(1 for l in range(composed.t)
                  if oracles.covered_by_scan(composed, cert.witness, l))
    if Fraction(covered, composed.t) != cert.value_after:
        return f"composed value {cert.value_after}, scan of its labeling gives " \
               f"{Fraction(covered, composed.t)}"
    return None


def projection_candidate(mods, j: int):
    return mods.generators.random_pseudo_projection_instance(
        random.Random(f"gap_solve/projection/{j}"), max_k=5, max_t=3, max_part=6)


def setup_gap_solve(mods, seed: int, scale: float) -> Job:
    codes_mod, maxcover, oracles, gen = mods.codes, mods.maxcover, mods.oracles, mods.generators
    rng = _rng("gap_solve", seed)
    codes = {}
    for q, r in PROJECTION_CODES + BOUNDED_CODES:
        code = codes_mod.reed_solomon(q, r)
        codes[q, r] = (code, codes_mod.relative_distance(code).delta)
    projection = [projection_candidate(mods, j)
                  for j in stratum("gap_solve/projection", seed, PROJECTION_INSTANCES, scale,
                                   PROJECTION_FIXED)]
    bounded = [gen.random_bounded_degree_instance(rng, BOUNDED_D)
               for _ in range(_scaled(BOUNDED_INSTANCES, scale))]

    def solve(base, code, delta):
        composed = maxcover.compose_gap(base, code)
        return composed, maxcover.gap_certificate(base, composed, delta)

    def solve_bounded(base, code, delta):
        composed = maxcover.compose_gap_k2_bounded(base, code, BOUNDED_D)
        return composed, maxcover.gap_certificate(base, composed, delta, BOUNDED_D ** 2)

    items = []
    for n, base in enumerate(projection):
        for q, r in PROJECTION_CODES:
            code, delta = codes[q, r]
            items.append(Item(
                f"projection{n}/rs({q},{r})",
                lambda b=base, c=code, d=delta: solve(b, c, d),
                _canon_gap,
                lambda res, b=base: _check_gap(oracles, b, res)))
    for n, base in enumerate(bounded):
        for q, r in BOUNDED_CODES:
            code, delta = codes[q, r]
            items.append(Item(
                f"bounded{n}/rs({q},{r})",
                lambda b=base, c=code, d=delta: solve_bounded(b, c, d),
                _canon_gap,
                lambda res, b=base: _check_gap(oracles, b, res)))
    return Job(items)


# ---------------------------------------------------------------------------
# code_search: exact distance, collision number, bounds and threshold checks

RS_CHEAP = ((3, 2),)
RS_COSTLY = ((5, 2), (7, 2), (5, 3))
RANDOM_SHAPES = ((3, 6), (3, 8), (3, 12), (3, 45), (4, 6), (4, 8), (4, 12), (4, 45))
RANDOM_R = 2
PHF_SHAPES = ((8, 2, 16), (9, 3, 32))  # (domain size, q, ell_max)
SEED_POOL = 8  # random and PHF codes come from a pool whose answers are recorded
PER_SHAPE = 3  # a seed takes this many pool codes of each random and PHF shape
CODE_OPS = ("distance", "col", "bounds", "threshold1", "threshold2")
# A pass takes 6 s or more, set by the RS(5,3) and RS(7,2) items, so a run
# holds only 2 to 4 measured passes; the sub-millisecond items around the
# median need more samples than that.
CODE_MIN_CALL_S = 0.005


def code_specs(seed: int | None):
    """(label, constructor) pairs for the workload's codes, cheap ones first.

    With seed None, every code in the pool (used to record the table).
    Otherwise the seed picks PER_SHAPE pool seeds per random and PHF shape.
    """
    rng = None if seed is None else _rng("code_search", seed)

    def pool():
        return range(SEED_POOL) if rng is None else sorted(rng.sample(range(SEED_POOL),
                                                                      PER_SHAPE))

    def rs(shapes):
        return [(f"rs({q},{r})", lambda c, q=q, r=r: c.reed_solomon(q, r)) for q, r in shapes]

    specs = rs(RS_CHEAP)
    for q, ell in RANDOM_SHAPES:
        for s in pool():
            specs.append((f"random(q={q},r={RANDOM_R},ell={ell},seed={s})",
                          lambda c, q=q, ell=ell, s=s: c.random_code(q, RANDOM_R, ell, s)))
    for n, q, ell_max in PHF_SHAPES:
        for s in pool():
            specs.append((f"phf(N={n},q={q},seed={s})",
                          lambda c, n=n, q=q, m=ell_max, s=s:
                          c.phf_to_code(c.find_phf(n, q, m, seed=s))))
    return specs + rs(RS_COSTLY)


def threshold_cap(code, t: int, col_value) -> int:
    """Collision cap as in acceptance criterion 4: searched only when |C| <= 9."""
    if code.size > 9:
        return t + 1
    return col_value if isinstance(col_value, int) else t * code.size + 1


def canon_code_result(op: str, result) -> str:
    if op == "distance":
        return f"delta={result.delta} witness={result.witness}"
    if op == "col":
        return (f"value={result.value} status={result.status} witness={result.witness} "
                f"lower={result.lower_bound} upper={result.upper_bound} "
                f"size_cap={result.size_cap}")
    if op == "bounds":
        return f"lower={result[0]} upper={result[1]}"
    v = result
    return (f"completeness={v.completeness_ok} counterexample={v.completeness_counterexample} "
            f"mode={v.completeness_mode} max_shared={v.soundness_max_shared} "
            f"bound={v.soundness_bound} soundness={v.soundness_ok} "
            f"matches={v.soundness_matches_agreements} min_x={v.collision_min_x} "
            f"cap={v.collision_cap}")


def pair_scan(table) -> tuple[int, tuple[int, int]]:
    """Minimum Hamming distance and the first pair reaching it, from the table."""
    best, witness = None, None
    for a in range(len(table)):
        for b in range(a + 1, len(table)):
            d = sum(x != y for x, y in zip(table[a], table[b]))
            if best is None or d < best:
                best, witness = d, (a, b)
    return best, witness


def check_code_result(op: str, code, result, table_cache: dict) -> str | None:
    """Invariants that hold for every code, recomputed from the codeword table."""
    if "scan" not in table_cache:
        table_cache["table"] = code.table()
        table_cache["scan"] = pair_scan(table_cache["table"])
    table = table_cache["table"]
    min_d, _ = table_cache["scan"]
    delta = Fraction(min_d, code.ell)
    if op == "distance":
        a, b = result.witness
        if result.delta != delta:
            return f"delta {result.delta}, pair scan gives {delta}"
        if a == b or sum(x != y for x, y in zip(table[a], table[b])) != min_d:
            return f"witness {result.witness} does not reach the distance"
    elif op == "col":
        if result.status != "finite" or len(result.witness) != result.value:
            return f"collision search ended {result.status} with witness {result.witness}"
        for i in range(code.ell):
            column = [table[m][i] for m in result.witness]
            if len(set(column)) == len(column):
                return f"witness {result.witness} does not collide at coordinate {i}"
        table_cache["col"] = result.value
    elif op == "bounds":
        lower, upper = result
        need = 2  # smallest n with n * n * (1 - delta) >= 2
        while need * need * (1 - delta) < 2:
            need += 1
        if delta < 1 and lower != need:
            return f"lower bound {lower}, expected {need}"
        col = table_cache.get("col")
        if col is not None and (lower > col or (upper is not None and col > upper)):
            return f"bounds ({lower}, {upper}) do not bracket Col = {col}"
    else:
        v = result
        if not (v.completeness_ok and v.soundness_ok and v.soundness_matches_agreements):
            return "threshold property failed"
        if v.collision_min_x is not None:
            return f"a set of size {v.collision_min_x} below the cap meets the hypothesis"
        if Fraction(v.soundness_max_shared) != (1 - delta) * code.ell:
            return f"max shared {v.soundness_max_shared} is not (1 - delta) * ell"
    return None


def code_op_call(mods, code, op: str, cap: int | None = None):
    """The program call behind one code_search item."""
    codes, threshold = mods.codes, mods.threshold
    if op == "distance":
        return lambda: codes.relative_distance(code)
    if op == "col":
        return lambda: codes.collision_number(code)
    if op == "bounds":
        return lambda: codes.col_bounds(code)
    t = int(op[-1])
    return lambda: threshold.verify_threshold(threshold.build_threshold(code, t),
                                              collision_cap=cap)


def load_expected() -> dict:
    with open(EXPECTED_CODE_SEARCH) as fh:
        return json.load(fh)["codes"]


def setup_code_search(mods, seed: int, scale: float) -> Job:
    expected = load_expected()
    specs = code_specs(seed)
    specs = specs[:_scaled(len(specs), scale)]
    items = []
    for label, build in specs:
        code = build(mods.codes)
        want = expected[label]
        cache: dict = {}
        for op in CODE_OPS:
            cap = threshold_cap(code, int(op[-1]), want["col_value"]) \
                if op.startswith("threshold") else None

            def check(result, op=op, code=code, cache=cache, want=want):
                got = canon_code_result(op, result)
                if got != want["canon"][op]:
                    return f"{got!r} differs from the recorded {want['canon'][op]!r}"
                return check_code_result(op, code, result, cache)

            items.append(Item(f"{label}/{op}", code_op_call(mods, code, op, cap),
                              lambda r, op=op: canon_code_result(op, r), check))
    return Job(items, min_call_s=CODE_MIN_CALL_S)


# ---------------------------------------------------------------------------
# setcover_certify: Thm 5.1 compositions with RS(3,2) on the criterion-7 mix

SETCOVER_BASES = 72
SETCOVER_LARGE_SHARE = 6  # one base in six has |U| = 4, from a ranked pool
SETCOVER_SAMPLE = 3  # one small base in three gets the universe-scan oracle


def classify_base(base) -> str:
    """The certificate's expected verdict, from plain set unions."""
    universe = set(range(base.universe_size))
    if any(set().union(*choice) == universe for choice in product(*base.collections)):
        return "completeness_ok"
    sets = [s for coll in base.collections for s in coll]
    for size in range(1, len(base.collections) + 1):
        if any(set().union(*combo) == universe for combo in combinations(sets, size)):
            return "vacuous_ok"
    return "soundness_ok"


def _base(mods, rng, mode: int, universe: int):
    gen = mods.generators
    if mode == 1:  # singleton sets: no two sets can cover |U| >= 3
        colls = [[frozenset([rng.randrange(universe)]) for _ in range(rng.randint(1, 3))]
                 for _ in range(2)]
        return mods.setcover.SetCoverInstance(universe, colls, provenance="singletons")
    while True:
        base = gen.random_setcover_instance(rng, max_universe=universe,
                                            plant_cover=(mode == 0))
        if universe == 3 or base.universe_size == universe:
            return base


def _canon_setcover(result) -> str:
    _, cert = result
    return (f"{cert.verdict}|{cert.base_partitioned}|{cert.base_has_k_cover}|"
            f"{cert.collision_threshold}|{cert.composed_cover_size}|{cert.witness}")


def _check_setcover(oracles, base, scan: bool, result) -> str | None:
    composed, cert = result
    expected = classify_base(base)
    if cert.verdict != expected:
        return f"verdict {cert.verdict}, expected {expected}"
    if scan and cert.verdict == "completeness_ok" and \
            not oracles.setcover_covers_bruteforce(composed, cert.witness):
        return f"cover {cert.witness} misses a composed universe element"
    return None


def large_base_candidate(mods, j: int):
    return _base(mods, random.Random(f"setcover_certify/large/{j}"), j % 3, 4)


def setup_setcover_certify(mods, seed: int, scale: float) -> Job:
    setcover, oracles = mods.setcover, mods.oracles
    rng = _rng("setcover_certify", seed)
    count = _scaled(SETCOVER_BASES, scale)
    large = [large_base_candidate(mods, j) for j in stratum(
        "setcover_certify/large", seed, SETCOVER_BASES // SETCOVER_LARGE_SHARE, scale, 0)]
    where = dict(zip(sorted(rng.sample(range(count), len(large))), large))
    code = mods.codes.reed_solomon(3, 2)
    items = []
    for n in range(count):
        base = where[n] if n in where else _base(mods, rng, n % 3, 3)
        scan = n not in where and rng.randrange(SETCOVER_SAMPLE) == 0

        def certify(b=base):
            composed = setcover.compose_setcover(b, code)
            return composed, setcover.setcover_certificate(b, composed)

        items.append(Item(f"base{n}(|U|={base.universe_size})", certify, _canon_setcover,
                          lambda r, b=base, s=scan: _check_setcover(oracles, b, s, r)))
    return Job(items)


WORKLOADS = {
    "pipeline_corpus": setup_pipeline_corpus,
    "gap_solve": setup_gap_solve,
    "code_search": setup_code_search,
    "setcover_certify": setup_setcover_certify,
}
