"""End-to-end pipelines: front-end reduction, gap composition, exact solve.

Both pipelines decide through maxcover.gap_certificate, the one gap rule:
its completeness_ok is YES (both sides have value 1), soundness_ok is NO
(the input value is below 1 and the composed value respects the 1 - delta
bound), and violation is VIOLATION.  Each exact solve is capped at
errors.DEFAULT_LABELING_CAP labelings.  The report records the exact
measured code distance and the formula-level distance bound 1 - r/q so the
achieved gap is parameter-honest; asymptotic parameter choices are replaced
by the smallest workable prime (recorded, overridable).  An override is
checked by reed_solomon (NotPrimeError, or RankRangeError for q < t) and by
the matching (MatchingOverflowError for q**t below the largest right part).

A job uses only a handful of codes RS(q, r), so each (q, r) gets one
immutable CertifiedCode record, built once and only read by later inputs
within the same process: the code, its exact relative distance delta,
the bound 1 - r/q and vacuous_gap (bound <= 0).  The reuse is bounded:
only the 32 most recently used records are kept (_CODE_CACHE_SIZE).  The
prime chosen for a (t, max_w) pair is kept the same way
(_PRIME_CACHE_SIZE).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .codes import Code, next_prime, reed_solomon, relative_distance
from .errors import RankRangeError, checked_int
from .frontends import Cnf3, DecidedNo, Graph, PartitionedGraph, \
    _clique_graph, clique_to_maxcover, sat_to_maxcover
from .maxcover import compose_gap, gap_certificate
from .serialize import COMPLETENESS_OK, FORMAT_TAG, SOUNDNESS_OK, VERDICT_VIOLATION

YES = "YES"
NO = "NO"
VIOLATION = "VIOLATION"

_VERDICTS = {COMPLETENESS_OK: YES, SOUNDNESS_OK: NO, VERDICT_VIOLATION: VIOLATION}


@dataclass(frozen=True)
class Stage:
    name: str
    seconds: float
    sizes: dict


@dataclass(frozen=True)
class PipelineReport:
    """Verdict plus everything needed to re-check it.

    gap = 1 - value_after on sound NO verdicts (at least delta_exact by
    construction); vacuous_gap flags runs whose formula-level bound
    1 - r/q is not positive.
    """

    verdict: str
    decided_no: bool
    code_q: int | None = None
    code_r: int | None = None
    code_ell: int | None = None
    delta_exact: Fraction | None = None
    delta_bound: Fraction | None = None
    value_before: Fraction | None = None
    value_after: Fraction | None = None
    gap: Fraction | None = None
    vacuous_gap: bool = False
    stages: tuple[Stage, ...] = ()

    def to_json(self) -> dict:
        frac = lambda x: None if x is None else str(x)
        return {
            "format": FORMAT_TAG,
            "verdict": self.verdict,
            "decided_no": self.decided_no,
            "code": None if self.code_q is None else {
                "q": self.code_q, "r": self.code_r, "ell": self.code_ell,
                "delta_exact": frac(self.delta_exact),
                "delta_bound": frac(self.delta_bound),
            },
            "value_before": frac(self.value_before),
            "value_after": frac(self.value_after),
            "gap": frac(self.gap),
            "vacuous_gap": self.vacuous_gap,
            "stages": [{"name": s.name, "seconds": round(s.seconds, 6),
                        "sizes": s.sizes} for s in self.stages],
        }

    @property
    def exit_code(self) -> int:
        return {YES: 0, NO: 1, VIOLATION: 2}[self.verdict]


_PRIME_CACHE_SIZE = 256


# typed: 2.0 must not hit the entry of 2, so every key was checked once
@lru_cache(maxsize=_PRIME_CACHE_SIZE, typed=True)
def smallest_workable_prime(t: int, max_w: int) -> int:
    """Smallest prime q > t (so r = t <= q and 1 - t/q > 0) with q**t >= max_w.

    A job meets few (t, max_w) pairs, so the answers are kept, at most
    _PRIME_CACHE_SIZE of them.  t < 1 raises RankRangeError: q**0 = 1 would
    never reach max_w >= 2; so does a t or max_w that is not an integer.
    """
    t = checked_int(t, 1, None, "t", RankRangeError)
    max_w = checked_int(max_w, 0, None, "largest right part max_w", RankRangeError)
    q = t + 1
    while q ** t < max_w:
        q += 1
    return next_prime(q)


_CODE_CACHE_SIZE = 32


@dataclass(frozen=True)
class CertifiedCode:
    """RS(q, r) with its exact relative distance delta, the formula-level
    bound 1 - r/q and vacuous_gap, which says that bound is not positive."""

    code: Code
    delta: Fraction
    bound: Fraction
    vacuous_gap: bool


@lru_cache(maxsize=_CODE_CACHE_SIZE, typed=True)
def _certified_code(q: int, r: int) -> CertifiedCode:
    """The certified RS(q, r); immutable, so one record is shared by every input."""
    code = reed_solomon(q, r)
    bound = Fraction(q - r, q)
    return CertifiedCode(code, relative_distance(code).delta, bound, bound <= 0)


def _run_gap_stages(frontend, frontend_start, q_override, stages) -> PipelineReport:
    """Record the front-end stage begun at frontend_start, then compose and solve."""
    stages.append(Stage("frontend", time.perf_counter() - frontend_start, {
        "k": frontend.k, "t": frontend.t,
        "v": frontend.num_v, "w": frontend.num_w, "edges": frontend.num_edges}))

    start = time.perf_counter()
    q = (smallest_workable_prime(frontend.t, max(frontend.w_parts))
         if q_override is None else q_override)
    certified = _certified_code(q, frontend.t)
    code = certified.code
    composed = compose_gap(frontend, code)
    stages.append(Stage("compose", time.perf_counter() - start, {
        "q": code.q, "r": code.r, "ell": code.ell,
        "a_parts": composed.t, "a_part_size": composed.w_parts[0]}))

    start = time.perf_counter()
    cert = gap_certificate(frontend, composed, certified.delta)
    stages.append(Stage("solve", time.perf_counter() - start, {
        "labelings": cert.labelings_examined}))

    verdict = _VERDICTS[cert.verdict]
    return PipelineReport(
        verdict=verdict, decided_no=False,
        code_q=code.q, code_r=code.r, code_ell=code.ell,
        delta_exact=certified.delta, delta_bound=certified.bound,
        value_before=cert.value_before, value_after=cert.value_after,
        gap=1 - cert.value_after if verdict == NO else None,
        vacuous_gap=certified.vacuous_gap, stages=tuple(stages))


def wone_pipeline(graph: Graph | PartitionedGraph, t: int,
                  q_override: int | None = None) -> PipelineReport:
    """Colorful t-clique skeleton: clique front-end, then RS(q, r=t) composition.

    Plain graphs are lifted to t parts first; partitioned inputs must
    already have t parts.  t must be at least 2 (frontends._clique_graph).
    """
    stages: list[Stage] = []
    start = time.perf_counter()
    parts = _clique_graph(graph, t)
    if parts is not graph:
        stages.append(Stage("lift", time.perf_counter() - start,
                            {"vertices": parts.num_vertices}))

    start = time.perf_counter()
    frontend = clique_to_maxcover(parts)
    if isinstance(frontend, DecidedNo):
        stages.append(Stage("frontend", time.perf_counter() - start,
                            {"decided_no": True}))
        return PipelineReport(NO, True, stages=tuple(stages))
    return _run_gap_stages(frontend, start, q_override, stages)


def eth_pipeline(cnf: Cnf3, k: int, q_override: int | None = None) -> PipelineReport:
    """3-SAT skeleton: clause-split front-end, then RS(q, r=t) composition.

    t is the number of right super-nodes after empty occurrence patterns
    are omitted.
    """
    start = time.perf_counter()
    frontend = sat_to_maxcover(cnf, k)
    return _run_gap_stages(frontend, start, q_override, [])
