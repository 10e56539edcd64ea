"""Acceptance suite: one test per criterion, at its stated tolerance.

Every check is exact (rational arithmetic or exhaustive search); each test
prints a single PASS/FAIL line (run with -s to see them live) and enforces
its stated wall-clock limit.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import gapforge as gf
from gapforge import codes, oracles
from gapforge.codes import INFINITE
from gapforge.generators import (
    enumerate_partitioned_graphs,
    random_bounded_degree_instance,
    random_cnf3,
    random_pseudo_projection_instance,
    random_setcover_instance,
)


def _finish(num: int, label: str, start: float, limit: float, violations: list):
    elapsed = time.perf_counter() - start
    status = "PASS" if not violations and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num} {status} [{elapsed:.1f}s/{limit:.0f}s] {label}")
    assert not violations, f"criterion {num}: {violations[:5]}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_rs_formula_suite(limit):
    # a table past 2**14 symbols is not stored: only the words measured are encoded
    start = time.perf_counter()
    violations = []
    with limit(codes, "DEFAULT_ENUM_CAP", 1 << 14):
        for q in (2, 3, 5, 7, 11):
            for r in range(1, q + 1):
                delta = gf.relative_distance(gf.reed_solomon(q, r)).delta
                if delta != Fraction(q - r + 1, q) or delta < 1 - Fraction(r, q):
                    violations.append((q, r, delta))
    _finish(1, "Reed-Solomon distance formula, q in {2,3,5,7,11}, all r",
            start, 10.0, violations)


def test_criterion_2_collision_bounds(code_suite):
    start = time.perf_counter()
    violations = []
    finite_checked = 0
    for code in code_suite:
        report = gf.collision_number(code)
        if report.status == "finite" and code.size >= code.q + 1:
            finite_checked += 1
            if not report.lower_bound <= report.value <= code.q + 1:
                violations.append((code.kind, code.q, report.value,
                                   report.lower_bound))
    if len(code_suite) < 12:
        violations.append(("suite too small", len(code_suite)))
    if finite_checked < 10:
        violations.append(("too few finite cases", finite_checked))
    _finish(2, f"collision bounds bracket Col on {len(code_suite)} codes",
            start, 60.0, violations)


def test_criterion_3_col_rs32():
    start = time.perf_counter()
    violations = []
    code = gf.reed_solomon(3, 2)
    report = gf.collision_number(code)
    table = code.table()
    if report.value != 3:
        violations.append(("value", report.value))
    else:
        for i in range(code.ell):
            column = [table[m][i] for m in report.witness]
            if len(set(column)) == len(column):
                violations.append(("witness fails at coordinate", i))
        for pair in combinations(range(code.size), 2):
            if all(len({table[m][i] for m in pair}) == 1 for i in range(code.ell)):
                violations.append(("size-2 subset collides", pair))
    _finish(3, "Col(RS(3,2)) = 3 with verified witness and size-2 impossibility",
            start, 1.0, violations)


def test_criterion_4_threshold_properties(code_suite):
    start = time.perf_counter()
    violations = []
    for code in code_suite:
        col = gf.collision_number(code)
        delta = col.distance.delta
        for t in (1, 2):
            graph = gf.build_threshold(code, t)
            cap = col.value if col.status == "finite" else t * code.size + 1
            verdict = gf.verify_threshold(graph, collision_cap=cap)
            tag = (code.kind, code.q, code.seed, t)
            if not verdict.completeness_ok:
                violations.append((tag, "completeness",
                                   verdict.completeness_counterexample))
            if (verdict.completeness_mode, verdict.completeness_checked) != (
                    "exhaustive", code.size ** t * code.ell):
                violations.append((tag, "mode", verdict.completeness_mode,
                                   verdict.completeness_checked))
            if Fraction(verdict.soundness_max_shared) != (1 - delta) * code.ell:
                violations.append((tag, "soundness not exactly (1-delta)ell",
                                   verdict.soundness_max_shared))
            if not verdict.soundness_ok or not verdict.soundness_matches_agreements:
                violations.append((tag, "soundness"))
            if verdict.collision_min_x is not None:
                violations.append((tag, "X below Col satisfies the hypothesis",
                                   verdict.collision_min_x))
    _finish(4, "threshold completeness/soundness/collision on the suite, t in {1,2}",
            start, 300.0, violations)


def test_criterion_5_gap_composition():
    start = time.perf_counter()
    violations = []
    rng = random.Random(1205)
    codes = [(gf.reed_solomon(3, 2), Fraction(2, 3)),
             (gf.reed_solomon(5, 2), Fraction(3, 5))]
    deltas = {code.q: gf.relative_distance(code).delta for code, _ in codes}
    ones = lows = 0
    for n in range(200):
        inst = random_pseudo_projection_instance(rng)
        before = gf.maxcover_value(inst).value
        if before == 1:
            ones += 1
        else:
            lows += 1
        for code, stated_bound in codes:
            composed = gf.compose_gap(inst, code)
            after = gf.maxcover_value(composed).value
            if before == 1 and after != 1:
                violations.append((n, code.q, "completeness", after))
            if before < 1 and not (after <= 1 - deltas[code.q] <= stated_bound):
                violations.append((n, code.q, "soundness", after))
    if ones < 20 or lows < 20:
        violations.append(("unbalanced suite", ones, lows))
    _finish(5, f"Thm-4.2 compositions on 200 instances x 2 codes "
               f"({ones} value-1, {lows} value<1)", start, 300.0, violations)


def test_criterion_6_degree_bounded_composition():
    start = time.perf_counter()
    violations = []
    rng = random.Random(2607)
    codes = [gf.reed_solomon(5, 2), gf.reed_solomon(11, 2)]
    deltas = {c.q: gf.relative_distance(c).delta for c in codes}
    ones = lows = 0
    for n in range(100):
        inst = random_bounded_degree_instance(rng, 2)
        before = gf.maxcover_value(inst).value
        if before == 1:
            ones += 1
        else:
            lows += 1
        for code in codes:
            q = code.q
            composed = gf.compose_gap_k2_bounded(inst, code, 2)
            after = gf.maxcover_value(composed).value
            if before == 1 and after != 1:
                violations.append((n, q, "completeness", after))
            if before < 1 and not (after <= 4 * (1 - deltas[q]) <= Fraction(8, q)):
                violations.append((n, q, "soundness", after))
    if ones < 15 or lows < 15:
        violations.append(("unbalanced suite", ones, lows))
    _finish(6, f"Appendix-B d=2 compositions on 100 instances x q in {{5,11}} "
               f"({ones} value-1, {lows} value<1)", start, 300.0, violations)


def test_criterion_7_setcover_composition():
    start = time.perf_counter()
    violations = []
    rng = random.Random(51)
    code = gf.reed_solomon(3, 2)
    completeness = soundness = 0
    for n in range(50):
        mode = n % 3
        if mode == 0:
            base = random_setcover_instance(rng, plant_cover=True)
        elif mode == 1:
            # singleton sets over |U|=3: no two sets can cover
            colls = [[frozenset([rng.randrange(3)])
                      for _ in range(rng.randint(1, 3))] for _ in range(2)]
            base = gf.SetCoverInstance(3, colls, provenance="singletons")
        else:
            base = random_setcover_instance(rng, plant_cover=False)
        composed = gf.compose_setcover(base, code)
        expected = code.ell * base.universe_size ** 9
        if composed.universe_size != expected or \
                sum(1 for _ in composed.iter_universe()) != expected:
            violations.append((n, "universe size"))
        cert = gf.setcover_certificate(base, composed)
        if cert.verdict == "violation":
            violations.append((n, "certificate", cert))
        if cert.verdict == "completeness_ok":
            completeness += 1
        if cert.verdict == "soundness_ok":
            soundness += 1
            size, combo, _ = composed.min_cover(2)
            if size is not None:
                violations.append((n, "cover below Col found", combo))
    if completeness < 10 or soundness < 10:
        violations.append(("unbalanced suite", completeness, soundness))
    _finish(7, f"Thm-5.1 compositions on 50 bases with RS(3,2) "
               f"({completeness} completeness, {soundness} soundness)",
            start, 600.0, violations)


def test_criterion_8_phf_collision():
    start = time.perf_counter()
    violations = []
    from gapforge.codes import verify_phf
    phf = gf.find_phf(8, 2, 16, seed=0)
    ok, bad = verify_phf(phf.domain_size, phf.q, phf.functions)
    if not ok:
        violations.append(("phf verification", bad))
    code = gf.phf_to_code(phf)
    report = gf.collision_number(code)
    if not report.value == 3 == code.q + 1:
        violations.append(("collision number", report.value))
    _finish(8, "verified PHF (N=8, q=2) converts to a code with Col = q+1 = 3",
            start, 60.0, violations)


def test_criterion_9_random_code_claims():
    start = time.perf_counter()
    violations = []
    q, r = 4, 2
    ell = math.ceil(4 * r * q * math.log(q))
    if ell != 45:
        violations.append(("ell formula", ell))
    good = 0
    for seed in range(100):
        code = gf.random_code(q, r, ell, seed)
        report = gf.collision_number(code)
        if report.distance.delta >= Fraction(1, 2):
            good += 1
        if report.status != "finite":
            violations.append((seed, "collision not finite"))
        elif report.value < report.lower_bound:
            violations.append((seed, "below distance lower bound", report.value))
    if good < 95:
        violations.append(("seeds with delta >= 1/2", good))
    _finish(9, f"random q=4 codes at ell=45: {good}/100 seeds reach delta >= 1/2, "
               "Col always above the distance bound", start, 120.0, violations)


def test_criterion_10_frontend_and_pipeline_equivalence():
    start = time.perf_counter()
    violations = []
    graphs = decided = 0
    for graph in enumerate_partitioned_graphs(7, 3):
        oracle = oracles.has_colorful_clique(graph)
        report = gf.wone_pipeline(graph, 3)
        if report.decided_no:
            decided += 1
            if oracle:
                violations.append((graph, "decided NO but clique exists"))
            continue
        graphs += 1
        if (report.value_before == 1) != oracle:
            violations.append((graph, "front-end equivalence"))
        if report.verdict == "VIOLATION":
            violations.append((graph, "pipeline violation"))
        elif (report.verdict == "YES") != oracle:
            violations.append((graph, "pipeline verdict"))
        if report.verdict == "NO":
            if report.gap is None or report.gap < report.delta_exact \
                    or report.gap < report.delta_bound:
                violations.append((graph, "gap below delta"))
        if violations:
            break
    rng = random.Random(1003)
    cnfs = 0
    for _ in range(50):
        cnf = random_cnf3(rng, max_vars=8)
        cnfs += 1
        sat = oracles.cnf_satisfiable(cnf)
        report = gf.eth_pipeline(cnf, 2)
        if report.verdict == "VIOLATION" or (report.verdict == "YES") != sat:
            violations.append((cnf, "eth pipeline verdict"))
        if report.verdict == "NO" and (report.gap is None
                                       or report.gap < report.delta_exact):
            violations.append((cnf, "eth gap below delta"))
    _finish(10, f"oracle equivalence: {graphs} partitioned graphs "
                f"(+{decided} decided-NO) and {cnfs} random 3-CNFs",
            start, 600.0, violations)


def test_criterion_11_abstract_claims():
    # Thm 5.1's SetCover gap beyond RS(3,2), Lin's parameters from codes
    # that are also perfect hash families, and the threshold graphs of all
    # of them.  h, the abstract's (2/(1-delta))**(1/(2k)), is reported
    # only: at RS(11,2) it is 2.17, below the base's own k + 1.
    start = time.perf_counter()
    violations = []
    thresholds = []

    def threshold_row(name, code, delta, col):
        # t = 2 and t = 3 at cap Col: complete, sound at exactly
        # (1-delta)*ell, and no X below Col meets the collision hypothesis
        for t in (2, 3):
            row_start = time.perf_counter()
            verdict = gf.verify_threshold(gf.build_threshold(code, t), collision_cap=col)
            seconds = time.perf_counter() - row_start
            if not verdict.completeness_ok:
                violations.append((name, t, "completeness",
                                   verdict.completeness_counterexample))
            if Fraction(verdict.soundness_max_shared) != (1 - delta) * code.ell \
                    or not verdict.soundness_ok:
                violations.append((name, t, "soundness", verdict.soundness_max_shared))
            if verdict.collision_min_x is not None:
                violations.append((name, t, "X below Col", verdict.collision_min_x))
            if seconds >= 1.5:
                violations.append((name, t, "threshold row took", seconds))
            thresholds.append(f"{name:9}  {t}  {col:3}  {str(verdict.completeness_ok):8}  "
                              f"{verdict.soundness_max_shared:10}  {verdict.adjacency_reads:7}  "
                              f"{verdict.collision_subsets_examined:7}  {seconds:.3f}")

    # k = 2 rows on |U| = 3 for every q, and k = 3 rows on |U| = k + 1 = 4 on RS(5,2)
    print("\ncode      k  n  delta  Col  bounds   draws  universe    log_q(n)/rho    h"
          "     min  subsets  seconds")
    for q in (5, 7, 11, 13):
        code = gf.reed_solomon(q, 2)
        report = gf.collision_number(code)
        col, delta = report.value, report.distance.delta
        bounds = gf.col_bounds(code)
        threshold_row(f"RS({q},2)", code, delta, col)
        for k, u, sizes in ((2, 3, (6, 9)),) + (((3, 4, (4, 6, 8)),) if q == 5 else ()):
            h = (2 / (1 - delta)) ** (1 / (2 * k))
            for n in sizes:
                row_start = time.perf_counter()
                # no-row: set m of each collection is {m % u}, so k sets never cover
                base = gf.SetCoverInstance(u, [[{m % u} for m in range(n)] for _ in range(k)])
                if gf.min_cover_size(base, k).min_size is not None:
                    violations.append((q, k, n, "no-base has a k-cover"))
                rng, draws, covered = random.Random(1), 0, False
                while not covered:
                    draws += 1
                    matching = [rng.sample(range(code.size), n) for _ in range(k)]
                    composed = gf.compose_setcover(base, code, matching)
                    covered, _ = composed.covers(base.all_refs())
                if composed.universe_size != code.ell * u ** (q ** k):
                    violations.append((q, k, n, "universe size"))
                size, _, examined = composed.min_cover(2 * n)
                if size is None or size < col:
                    violations.append((q, k, n, "composed cover below Col", size, col))
                # yes-row: plant the cover {0,1}, {1,2}, ..., {k-1,k} of U on the
                # same matching, one set per collection
                sets = [list(coll) for coll in base.collections]
                for i in range(k):
                    sets[i][0] = {i, i + 1}
                planted = gf.SetCoverInstance(u, sets)
                cert = gf.setcover_certificate(planted,
                                               gf.compose_setcover(planted, code, matching))
                if cert.verdict != "completeness_ok" or cert.composed_cover_size != k:
                    violations.append((q, k, n, "planted cover", cert.verdict))
                seconds = time.perf_counter() - row_start
                if seconds >= 1.5:
                    violations.append((q, k, n, "setcover row took", seconds))
                # the abstract's universe, (log|S|/rho)*|U|**(q**k), at |S| = n and
                # rate rho = r/ell
                log_over_rho = math.log(n, q) * code.ell / code.r
                print(f"{f'RS({q},2)':9} {k}  {n}  {str(delta):5}  {col:3}  {str(bounds):8} "
                      f"{draws:5}  {f'{code.ell}*{u}**{q ** k}':10}  {log_over_rho:12.2f}  "
                      f"{h:.2f}  {size:3}  {examined:7}  {seconds:.3f}")
    print("PHF(N,q)   ell  delta  Col  search_s")
    for n_points, q in ((16, 3), (27, 3), (16, 4)):
        search = time.perf_counter()
        code = gf.phf_to_code(gf.find_phf(n_points, q, 64, seed=0))
        search = time.perf_counter() - search
        report = gf.collision_number(code)
        col, delta = report.value, report.distance.delta
        if col != q + 1:
            violations.append((n_points, q, "Col of a PHF code", col))
        print(f"{f'PHF({n_points},{q})':9}  {code.ell:3}  {str(delta):5}  {col:3}  {search:.2f}")
        threshold_row(f"PHF({n_points},{q})", code, delta, col)
    # threshold-only rows: RS(19,2) at t = 3 decides 7,428,297 pairs
    for q in (17, 19):
        code = gf.reed_solomon(q, 2)
        report = gf.collision_number(code)
        col, delta = report.value, report.distance.delta
        if col != 7:
            violations.append((q, "Col of RS(q,2)", col))
        threshold_row(f"RS({q},2)", code, delta, col)
    print("threshold, cap Col")
    print("code       t  Col  complete  max_shared    reads  subsets  seconds")
    print("\n".join(thresholds))
    _finish(11, "SetCover gap on RS(q,2), q in {5,7,11,13}, k = 2, and on RS(5,2), k = 3: "
                "composed minimum >= Col "
                "on no-rows, k sets on yes-rows; PHF codes reach Col = q + 1; their "
                "threshold graphs, and those of RS(17,2) and RS(19,2), at t = 2 and 3 are "
                "complete, sound at (1-delta)*ell and have no X below Col", start, 10.0, violations)


def _first_cnf(satisfiable: bool):
    """The first seeded random 3-CNF of at least 6 clauses with the given answer."""
    for seed in range(1000):
        cnf = random_cnf3(random.Random(seed), max_vars=8)
        if len(cnf.clauses) >= 6 and oracles.cnf_satisfiable(cnf) == satisfiable:
            return seed, cnf
    raise AssertionError("no seeded CNF found")


def test_criterion_12_maxcover_gaps_by_q():
    # The MaxCover half of the abstract's gaps at growing q: both pipelines
    # on YES and NO inputs with RS(q, r) forced by q_override.  A YES input
    # keeps value 1; a NO input's composed value is at most 1 - delta, so
    # 1/value, the gap factor, grows with q.  The factor is printed, not
    # asserted: PAPER.md states no bound to compare it with.
    start = time.perf_counter()
    violations = []
    (unsat_seed, unsat), (sat_seed, sat) = _first_cnf(False), _first_cnf(True)
    cycle = gf.make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    triangle = gf.make_graph(3, [(0, 1), (1, 2), (0, 2)])
    runs = [("4-cycle t=3", False, lambda q: gf.wone_pipeline(cycle, 3, q_override=q)),
            ("triangle t=3", True, lambda q: gf.wone_pipeline(triangle, 3, q_override=q))]
    for k in (2, 3):
        runs += [(f"cnf{unsat_seed} k={k}", False,
                  lambda q, k=k: gf.eth_pipeline(unsat, k, q_override=q)),
                 (f"cnf{sat_seed} k={k}", True,
                  lambda q, k=k: gf.eth_pipeline(sat, k, q_override=q))]
    print("\ninput          q   r  verdict  delta  before  after  1/value  seconds")
    for name, yes, run in runs:
        for q in (5, 11, 17, 23, 29):
            row_start = time.perf_counter()
            report = run(q)
            seconds = time.perf_counter() - row_start
            if report.decided_no or report.code_q != q:
                violations.append((name, q, "not composed with RS(q, r)", report.code_q))
                continue
            delta, after = report.delta_exact, report.value_after
            if report.verdict != ("YES" if yes else "NO"):
                violations.append((name, q, "verdict", report.verdict))
            if yes and (report.value_before, after) != (1, 1):
                violations.append((name, q, "YES value below 1", report.value_before, after))
            if not yes and not (report.value_before < 1 and after <= 1 - delta):
                violations.append((name, q, "NO value above 1 - delta", after, delta))
            factor = "inf" if after == 0 else str(1 / after)
            print(f"{name:13} {q:3}  {report.code_r:2}  {report.verdict:7}  {str(delta):5}  "
                  f"{str(report.value_before):6}  {str(after):5}  {factor:7}  {seconds:.3f}")
    _finish(12, "MaxCover gaps: wone_pipeline at t = 3 and eth_pipeline at k = 2, 3 on YES "
                "and NO inputs, q in {5,11,17,23,29}: value 1 on YES, at most 1 - delta on NO",
            start, 5.0, violations)
