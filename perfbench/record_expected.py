"""Record the benchmark's data files from the program at this commit.

    python3 perfbench/record_expected.py

expected_code_search.json: the canonical value, witness and verdict string
of every code_search operation, for every code in the pool (all pool
seeds, not just the ones a benchmark seed picks).  Each answer must first
pass the table-free invariants in workloads.check_code_result.  Re-record
it only when a change is meant to alter an answer.

strata.json: the candidate pools of pipeline_corpus's CNFs, gap_solve's
projection instances and setcover_certify's |U| = 4 bases, ranked by the
work the program does on each (search counts and sizes, not times, so the
ranking repeats).  A seed takes every
STRATA_FACTOR-th candidate in this order.  The ranking only shapes the mix
of inputs; it need not be re-recorded when the program gets faster.
"""

from __future__ import annotations

import json
import sys

from harness import load_gapforge
import workloads as wl


def record_code_table(mods) -> int:
    table = {}
    for label, build in wl.code_specs(None):
        code = build(mods.codes)
        cache: dict = {}
        canon = {}
        col_value = None
        for op in wl.CODE_OPS:
            cap = (wl.threshold_cap(code, int(op[-1]), col_value)
                   if op.startswith("threshold") else None)
            result = wl.code_op_call(mods, code, op, cap)()
            problem = wl.check_code_result(op, code, result, cache)
            if problem:
                print(f"{label}/{op}: {problem}", file=sys.stderr)
                return 1
            if op == "col":
                col_value = result.value if result.status == "finite" else None
            canon[op] = wl.canon_code_result(op, result)
        table[label] = {"col_value": col_value, "canon": canon}
    with open(wl.EXPECTED_CODE_SEARCH, "w") as fh:
        json.dump({"codes": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(table)} codes")
    return 0


def cnf_work(mods, j: int) -> int:
    report = mods.pipeline.eth_pipeline(wl.cnf_candidate(mods, j), 2)
    sizes = {stage.name: stage.sizes for stage in report.stages}
    solve = sizes["solve"]["labelings"] * (sizes["frontend"]["t"] + sizes["compose"]["ell"])
    return sizes["frontend"]["edges"] + solve


def projection_work(mods, j: int) -> int:
    base = wl.projection_candidate(mods, j)
    work = 0
    for q, r in wl.PROJECTION_CODES:
        code = mods.codes.reed_solomon(q, r)
        composed = mods.maxcover.compose_gap(base, code)
        work += mods.maxcover.maxcover_value(base).labelings_examined * base.t
        work += mods.maxcover.maxcover_value(composed).labelings_examined * code.ell
    return work


def large_base_work(mods, j: int) -> int:
    """Universe elements enumerated: once for the functions, once per set tested."""
    base = wl.large_base_candidate(mods, j)
    composed = mods.setcover.compose_setcover(base, mods.codes.reed_solomon(3, 2))
    cert = mods.setcover.setcover_certificate(base, composed)
    tested = {"completeness_ok": base.k, "soundness_ok": len(base.all_refs())}
    return composed.universe_size * (1 + tested.get(cert.verdict, 0))


def record_strata(mods) -> None:
    pools = {"pipeline_corpus/cnf": (wl.CORPUS_CNFS, cnf_work),
             "gap_solve/projection": (wl.PROJECTION_INSTANCES, projection_work),
             "setcover_certify/large": (wl.SETCOVER_BASES // wl.SETCOVER_LARGE_SHARE,
                                        large_base_work)}
    strata = {}
    for pool, (count, work) in pools.items():
        cost = [work(mods, j) for j in range(wl.STRATA_FACTOR * count)]
        strata[pool] = sorted(range(len(cost)), key=lambda j: (cost[j], j))
        print(f"ranked {len(cost)} candidates of {pool}")
    with open(wl.STRATA, "w") as fh:
        json.dump(strata, fh, separators=(",", ":"))
        fh.write("\n")


def main() -> int:
    mods = load_gapforge()
    if record_code_table(mods):
        return 1
    record_strata(mods)
    return 0


if __name__ == "__main__":
    sys.exit(main())
