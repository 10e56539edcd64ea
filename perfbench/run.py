"""gapforge benchmark: one workload per process, on one thread.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: pipeline_corpus, gap_solve, code_search, setcover_certify, or
"all" (the default), which runs each of them in a process of its own and
prints every metric of every workload.  With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it prints the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only when
every item agreed with its oracle; it is 2 when the checkout holds no
gapforge sources.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

NAMES = ("pipeline_corpus", "gap_solve", "code_search", "setcover_certify")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="gapforge benchmark")
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="share of each workload's items to run (the smoke test uses a "
                             "small share)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not 0 < args.scale <= 1:
        parser.error("--scale must lie in (0, 1]")
    return args


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import harness
    try:
        return harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.scale)
    except harness.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
