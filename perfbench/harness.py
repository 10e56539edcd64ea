"""Measure one workload in this process and report its metrics.

A run sets the workload up SETUP_REPS times (each time importing gapforge
afresh) and keeps the last set-up.  It then makes passes over the items
until --seconds have gone by, always finishing the pass it is in.  Each
item's call is timed alone; its check runs after the clock stops.

The first pass is the "check" pass: every result goes to its oracle, and
the pass warms up caches and lazy set-up, so its times are not reported.
Every later pass must reproduce the first pass's canonical output exactly.
Without tracing, the later passes are the measured ones.  With tracing,
the later passes alternate between untraced and traced, and the tracing
overhead is the median difference between a traced pass and the untraced
pass before it.  Per-layer figures are given per traced pass, so they do
not grow with the run's length.

Set-up and untraced passes run under HostSpeed, which scales every
measured time to the reference host's full speed; an item's time is the
lower median of its scaled times.  An untraced pass may call a short item
several times in a row (Job.min_call_s); each call is one sample.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 11
TAIL_BEYOND = 10  # the tail percentile keeps this many per-item times above it
SAMPLE_EVERY_S = 0.02  # host speed is sampled this often during a measured pass
WINDOW_S = 0.1  # a time is scaled by the samples this close to it
KERNEL_REPS = 3  # a sample is the best of this many kernel runs
MAX_REPEATS = 50  # the most calls of one item in one untraced pass
# The reference kernel's time on the reference host (a 2-core shared x86-64
# VM, Python 3.11.7) when nothing else slowed it.  Reported times are scaled
# to that speed; see HostSpeed.
KERNEL_REFERENCE_S = 1.7e-4
MODULES = ("errors", "codes", "threshold", "frontends", "maxcover", "setcover",
           "pipeline", "generators", "oracles")


class SourceMissing(Exception):
    """The checkout does not hold gapforge's sources under src/."""


def load_gapforge() -> SimpleNamespace:
    """Import gapforge from this checkout's src/, discarding any earlier import."""
    if not (SRC / "gapforge" / "__init__.py").is_file():
        raise SourceMissing(f"no gapforge package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "gapforge" or n.startswith("gapforge.")]:
        del sys.modules[name]
    package = importlib.import_module("gapforge")
    if Path(package.__file__).resolve().parent != (SRC / "gapforge").resolve():
        raise SourceMissing(f"gapforge was imported from {package.__file__}, not {SRC}")
    mods = {m: importlib.import_module(f"gapforge.{m}") for m in MODULES}
    return SimpleNamespace(package=package, **mods)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": git_sha(), "nproc": os.cpu_count()}


def reference_kernel(n: int = 500) -> int:
    """A fixed piece of interpreter-bound work: tuples, a dict, int arithmetic."""
    seen: dict = {}
    acc = 0
    for i in range(n):
        key = (i % 61, i % 7, i & 3)
        if key in seen:
            seen[key] += 1
            acc += key[0] * key[1]
        else:
            seen[key] = 1
        acc ^= sum(key) << (i & 7)
    return acc


class HostSpeed:
    """The host's momentary slowdown, from a fixed kernel run on a timer.

    On a shared machine the same code runs up to twice as slow for seconds
    to minutes at a time, because other tenants share the cores.
    CPU time grows with wall time then, so neither clock escapes it, and a
    run that falls in such a period would report the host's state, not the
    program's.  So while the benchmark measures, a timer signal runs the
    kernel every SAMPLE_EVERY_S, also in the middle of a long call, and
    once more at the start and end of the measured stretch.  A sample is
    the kernel's best time over KERNEL_REPS runs, over KERNEL_REFERENCE_S.
    A measured time loses the time the samples took inside it, and is
    divided by the median sample within WINDOW_S of it.  Reported times
    are thus seconds on the reference host at full speed.
    The kernel is the benchmark's own code, so a change to the program
    cannot move it.
    """

    def __init__(self):
        self.start, self.end, self.samples = array("d"), array("d"), array("d")

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        best = None
        for _ in range(KERNEL_REPS):
            k0 = time.perf_counter()
            reference_kernel()
            took = time.perf_counter() - k0
            best = took if best is None or took < best else best
        self.samples.append(best / KERNEL_REFERENCE_S)
        self.start.append(t0)
        self.end.append(time.perf_counter())

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def spent(self, t0: float, t1: float) -> float:
        """Time the samples took within [t0, t1]."""
        lo, hi = bisect_left(self.start, t0), bisect_right(self.end, t1)
        return sum(self.end[k] - self.start[k] for k in range(lo, hi))

    def slowdown(self, t0: float, t1: float) -> float:
        """The median sample within WINDOW_S of [t0, t1], or the two nearest."""
        lo = bisect_left(self.start, t0 - WINDOW_S)
        hi = bisect_right(self.start, t1 + WINDOW_S)
        if hi - lo < 2:
            lo, hi = max(0, bisect_left(self.start, t0) - 1), bisect_right(self.start, t1) + 1
        return statistics.median(self.samples[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """The time from t0 to t1, less sampling, at the reference host's speed."""
        return (t1 - t0 - self.spent(t0, t1)) / self.slowdown(t0, t1)

    def summary(self) -> str:
        q = statistics.quantiles(self.samples, n=10, method="inclusive")
        return (f"host slowdown p10 {q[0]:.3f} median {statistics.median(self.samples):.3f} "
                f"p90 {q[-1]:.3f} over {len(self.samples)} kernel samples")


class Run:
    """The state of one measured run: items, timings, checks and failures."""

    def __init__(self, items, host: HostSpeed, tracer=None, min_call_s: float = 0.0):
        self.items = items
        self.host = host
        self.tracer = tracer
        self.min_call_s = min_call_s
        self.repeats = [1] * len(items)  # calls per item in an untraced pass
        # Each call of an untraced pass: item index, start and end.
        self.timed_item, self.timed_start, self.timed_end = array("l"), array("d"), array("d")
        self.reference: list[str] = []
        self.bad: set[int] = set()
        self.failures: list[str] = []
        self.attempted = 0
        self.completed = 0
        self.passes: list[dict] = []

    def run_pass(self, kind: str) -> None:
        """One pass over the items; kind is "check", "untraced" or "traced"."""
        first = kind == "check"
        tracer = self.tracer if kind == "traced" else None
        measured = kind == "untraced"
        program_s = check_s = 0.0
        pass_start = time.perf_counter()
        order = range(len(self.items))
        if measured:
            order = [i for i in order for _ in range(self.repeats[i])]
        for i in order:
            item = self.items[i]
            t0 = time.perf_counter()
            try:
                result, error = item.run(), None
            except Exception as exc:  # a failed item is counted, and the run goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.suspended = True
            problem = error
            if error is None:
                try:
                    canon = item.canon(result)
                    if first:
                        problem = item.check(result)
                    elif canon != self.reference[i]:
                        problem = f"output {canon!r} differs from the first pass"
                    elif i in self.bad:
                        problem = "failed its check in the first pass"
                except Exception:
                    canon = "check raised"
                    problem = "check raised " + traceback.format_exc(limit=2)
            else:
                canon = "error: " + error
            del result
            if first:
                self.reference.append(canon)
                self.repeats[i] = max(1, min(MAX_REPEATS, math.ceil(self.min_call_s / (t1 - t0))))
            if tracer is not None:
                tracer.suspended = False
            self.attempted += 1
            if problem is None:
                self.completed += 1
                if measured:
                    self.timed_item.append(i)
                    self.timed_start.append(t0)
                    self.timed_end.append(t1)
            else:
                if first:
                    self.bad.add(i)
                if len(self.failures) < 20:
                    self.failures.append(f"{item.label}: {problem}")
            program_s += t1 - t0 - (self.host.spent(t0, t1) if measured else 0.0)
            check_s += time.perf_counter() - t1
        pass_end = time.perf_counter()
        self.passes.append({"kind": kind, "wall_s": pass_end - pass_start,
                            "program_s": program_s, "check_s": check_s,
                            "start": pass_start, "end": pass_end})

    def item_times(self, scaled: bool = True) -> list[list[float]]:
        """Each item's times over the untraced passes, scaled by the host's slowdown."""
        times: list[list[float]] = [[] for _ in self.items]
        for i, t0, t1 in zip(self.timed_item, self.timed_start, self.timed_end):
            times[i].append(self.host.scaled(t0, t1) if scaled else t1 - t0)
        return times

    @property
    def failed(self) -> int:
        return self.attempted - self.completed

    def digest(self) -> str:
        text = "\n".join(f"{item.label}\t{canon}"
                         for item, canon in zip(self.items, self.reference))
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def timing_metrics(times: list[list[float]], pick) -> tuple[float, float, float, int, int]:
    """Throughput, p50 and tail over per-item times, each item reduced by pick."""
    per_item = sorted(pick(t) for t in times if t)
    n = len(per_item)
    if not n:
        return 0.0, 0.0, 0.0, 0, 0
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    return (n / sum(per_item), statistics.median(per_item) * 1e3, per_item[tail_index] * 1e3,
            n, tail_index)


def end_to_end(run: Run, setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics, from the untraced passes, and notes to print."""
    scaled, raw = run.item_times(), run.item_times(scaled=False)
    rate, p50, tail, n, tail_index = timing_metrics(scaled, statistics.median_low)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (rate, "1/s"),
        "verdict_p50_ms": (p50, "ms"),
        "verdict_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    passes = len([p for p in run.passes if p["kind"] == "untraced"])
    notes = [f"tail: p{100 * (tail_index + 1) / max(n, 1):.2f} of {n} per-item times, "
             f"{n - 1 - tail_index} items beyond it; each item's time is the lower median of "
             f"its calls in {passes} passes"]
    r, m, t, _, _ = timing_metrics(raw, statistics.median_low)
    notes.append(f"as measured, not scaled: verdicts_per_s {r:.6g}, verdict_p50_ms {m:.6g}, "
                 f"verdict_tail_ms {t:.6g}")
    return metrics, notes


def per_layer(run: Run, tracer, setup_layers: dict) -> tuple[dict, list[str]]:
    """Per-layer figures per traced pass, and the counts that differed between passes."""
    from spans import LAYERS
    traced = [p for p in run.passes if p["kind"] == "traced"]
    passes = len(traced)
    spans = tracer.self_times()
    metrics: dict = {}
    nondeterministic = []

    def per_pass(name, total):
        if total % passes:
            nondeterministic.append(name)
        return total // passes

    def calls_and_self(span):
        calls, own = spans.get(span, (0, 0.0))
        metrics[f"{span}.calls"] = (per_pass(span, calls), "count")
        metrics[f"{span}.self_s"] = (own / passes, "s")

    for span in ("codes.reed_solomon", "codes.relative_distance", "codes.collision_number",
                 "threshold.verify_threshold", "frontends.clique_to_maxcover",
                 "frontends.sat_to_maxcover", "maxcover.compose_gap",
                 "maxcover.compose_gap_k2_bounded", "maxcover.maxcover_value",
                 "setcover.compose_setcover", "setcover.setcover_certificate",
                 "setcover.membership_array", "setcover.covers", "setcover.min_cover",
                 "pipeline.wone_pipeline", "pipeline.eth_pipeline"):
        calls_and_self(span)
    counts = tracer.counts
    metrics["codes.reed_solomon.distinct_args"] = (len(tracer.rs_args), "count")
    for name in ("codes.relative_distance.pairs_examined",
                 "codes.collision_number.subsets_examined",
                 "threshold.verify_threshold.completeness_checked",
                 "threshold.verify_threshold.collision_subsets_examined",
                 "frontends.decided_no",
                 "maxcover.maxcover_value.labelings_examined",
                 "setcover.min_cover.subsets_examined",
                 "setcover.universe_elements"):
        metrics[name] = (per_pass(name, counts[name]), "count")
    total = counts["maxcover.maxcover_value.labelings_total"]
    metrics["maxcover.maxcover_value.scan_fraction"] = (
        counts["maxcover.maxcover_value.labelings_examined"] / total if total else 0.0,
        "ratio")
    metrics["frontends.graph_build_s"] = (setup_layers.get("frontends.graph_build_s", 0.0), "s")
    for stage in ("frontend", "compose", "solve"):
        metrics[f"pipeline.stage.{stage}_s"] = (tracer.stage_s[stage] / passes, "s")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, (_, own) in spans.items():
        layer_self[span.partition(".")[0]] += own / passes
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        name = f"{layer}.errors"
        metrics[name] = (per_pass(name, counts[name]), "count")
    wall = sum(p["wall_s"] for p in traced) / passes
    check = sum(p["check_s"] for p in traced) / passes
    # Passes alternate, so each traced pass is compared with the untraced
    # pass just before it.  Both are scaled to the reference host's speed;
    # a traced pass takes the host samples of the passes on either side.
    measured = [p["program_s"] / run.host.slowdown(p["start"], p["end"])
                for p in run.passes[1:]]
    extra = [b - a for a, b in zip(measured[::2], measured[1::2])]
    metrics["check.self_s"] = (check, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (statistics.median(extra), "s")
    metrics["trace.accounted_share"] = ((sum(layer_self.values()) + check) / wall, "ratio")
    return metrics, nondeterministic


def measure(name: str, seed: int, seconds: int, trace: bool, scale: float) -> int:
    import workloads
    setups, layer_setups = [], []
    host = HostSpeed()
    raw_setups = []
    with host:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            mods = load_gapforge()
            job = workloads.WORKLOADS[name](mods, seed, scale)
            t1 = time.perf_counter()
            raw_setups.append(t1 - t0)
            setups.append(host.scaled(t0, t1))
            layer_setups.append(job.setup_layers)
    setup_s = statistics.median(setups)
    env = environment()
    print(f"# perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"scale={scale} python={env['python']} numpy={env['numpy']} "
          f"git_sha={env['git_sha']} nproc={env['nproc']}")
    setup_layers = {k: statistics.median(s[k] for s in layer_setups)
                    for k in job.setup_layers}

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer(mods)
    run = Run(job.items, host, tracer, job.min_call_s)
    cycle = ("untraced", "traced") if trace else ("untraced",)
    # The items and their inputs live for the whole run; a real job holds
    # one input at a time.  Freezing them keeps full collections from
    # walking them, so collections cost what the program's own objects cost.
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + seconds
    run.run_pass("check")
    while len(run.passes) <= len(cycle) or time.perf_counter() < deadline:
        kind = cycle[(len(run.passes) - 1) % len(cycle)]
        if kind == "traced":
            tracer.install()
            run.run_pass(kind)
            tracer.uninstall()
        else:
            with host:
                run.run_pass(kind)

    for failure in run.failures:
        print(f"FAILED {failure}")
    digest = run.digest()
    correct = run.failed == 0
    if trace:
        metrics, nondeterministic = per_layer(run, tracer, setup_layers)
        if nondeterministic:
            correct = False
            print(f"FAILED counters differ between passes: {', '.join(nondeterministic)}")
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{name}.spans.npz")
        notes = []
    else:
        metrics, notes = end_to_end(run, setup_s)
        notes.append(f"setup_s as measured: {statistics.median(raw_setups):.6g}")
    notes.append(host.summary())
    for metric, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"metric {metric} = {shown} {unit}")
    for note in notes:
        print(f"# {note}")
    print(f"failure_rate = {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} attempted items)")
    print(f"items {len(job.items)} passes {len(run.passes)}")
    print(f"digest {digest}")

    summary = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
               "scale": scale, "environment": env, "items": len(job.items),
               "passes": run.passes, "setup_runs_s": setups, "setup_runs_raw_s": raw_setups,
               "digest": digest,
               "failures": run.failures,
               "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.trace{int(trace)}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": summary["metrics"]}))
    return 0 if correct else 1
