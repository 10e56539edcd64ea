"""Smoke test for the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py            (or: python3 -m pytest perfbench/smoke.py)

Checks that every workload prints every metric named in BENCHMARK.json
with its unit, that a fixed seed reproduces the counts and the digest, that
tracing leaves the digest unchanged, and that a directory without the
program's sources makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5
SCALE = 0.02


def bench(*args, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


def run_workload(name: str, trace: int):
    proc = bench("--workload", name, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric, got)
        assert any(line.split()[:3] == ["metric", metric["name"], "="]
                   and line.split()[4] == metric["unit"] for line in lines), metric
    digest = next(line for line in lines if line.startswith("digest "))
    return result, digest


def test_corpus_indexing_matches_the_generator():
    sys.path.insert(0, str(HERE))
    from harness import load_gapforge
    import workloads
    mods = load_gapforge()
    blocks, total = workloads.corpus_blocks(mods.generators, 5, 3)
    starts = [b[0] for b in blocks]
    expected = list(mods.generators.enumerate_partitioned_graphs(5, 3))
    assert total == len(expected)
    for index, graph in enumerate(expected):
        assert workloads.corpus_graph(mods.frontends, blocks, starts, index) == graph


def test_every_workload_prints_its_metrics_and_repeats():
    for name in WORKLOADS:
        _, digest = run_workload(name, 0)
        traced = [run_workload(name, 1) for _ in range(2)]
        counts = [{m: v["value"] for m, v in result["metrics"].items()
                   if v["unit"] == "count"} for result, _ in traced]
        assert counts[0] == counts[1], name
        assert digest == traced[0][1] == traced[1][1], name


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare, root=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_corpus_indexing_matches_the_generator,
                 test_every_workload_prints_its_metrics_and_repeats,
                 test_fails_without_the_program):
        test()
        print(f"ok {test.__name__}")
