#!/usr/bin/env python3
"""Benchmark for the gogh command-line pipeline.

Each op drives ``gogh.cli.run(argv)`` followed by ``render_json``, which is
what ``gogh.cli.main`` does minus the print.  The load is a closed loop with
one client in one process and thread.  Every op is checked against an
answer known by construction, outside the timed region.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs each op of the first round untraced and then traced,
and reports the per-layer metrics.  ``all`` runs every workload, each in a
process of its own, and prints a summary table.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import check  # noqa: E402  (bench/ is on sys.path as the script's directory)
import gen  # noqa: E402
import spans  # noqa: E402

END_TO_END = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
]
SETUP_SAMPLES = 10
REF_SECONDS = 0.004  # the reference kernel's time at the reference host speed
REF_EVERY = 0.25  # wall seconds between reference samples


def reference_kernel() -> int:
    """Fixed pure-Python work: dict updates, string building and a sort."""
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return len(sorted(str(i) for i in range(5000)))


class HostClock:
    """The host's speed, sampled with the reference kernel between ops.

    On a shared host the same op can take 1.7 times as long in one window
    of a few seconds as in the next, with CPU time tracking wall time, and
    the reference kernel slows by the same factor.  Each timing is scaled
    by REF_SECONDS over the mean of the kernel samples just before and just
    after it, which reports it at one reference host speed."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.sample()

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def sample_if_due(self):
        if time.perf_counter() - self.ends[-1] >= REF_EVERY:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        around = [self.durations[i] for i in (before, after) if 0 <= i < len(self.durations)]
        return REF_SECONDS / statistics.fmean(around)


def percentile(sorted_values: list[float], level: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(level / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def central_median(sorted_values: list[float]) -> float:
    """The median, estimated as the mean of the samples ranked between the
    40th and 60th percentiles.  A workload mixes op kinds whose times form
    clusters, and the plain median jumps between neighbouring clusters from
    one seed to the next; the band averages across that boundary."""
    n = len(sorted_values)
    lo = min(int(0.4 * n), (n - 1) // 2)
    hi = max(math.ceil(0.6 * n), lo + 1)
    return statistics.fmean(sorted_values[lo:hi])


def slope(points: dict) -> float:
    """Least-squares slope of log(latency) against log(size)."""
    if any(math.isinf(v) for v in points.values()):
        return math.inf
    xs = [math.log(s) for s in points]
    ys = [math.log(v) for v in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


class SetupProbe:
    """Times a fresh interpreter running `gogh check` on a one-vertex file.

    Samples are spread over the run rather than taken in one burst, so their
    median sees the same host as the ops do."""

    def __init__(self, work: str, clock: HostClock):
        self.clock = clock
        path = os.path.join(work, "one-vertex.gog")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("vertex v free 1\n")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.argv = [sys.executable, "-m", "gogh.cli", "check", path]
        self.times: list[float] = []
        self.ok = True
        self.sample()  # fills the bytecode cache; not kept
        self.times.clear()

    def sample(self):
        self.clock.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        t1 = time.perf_counter()
        self.clock.sample()
        self.times.append((t1 - t0) * self.clock.scale(t0, t1))
        self.ok = self.ok and proc.returncode == 0 and proc.stdout.strip() == '{"edges":0,"ok":true,"vertices":1}'


class Runner:
    """Executes ops against the imported program and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.clearers = spans.cache_clearers()
        self.failures: Counter = Counter()
        self.incorrect = 0

    def call(self, op):
        # looked up at call time, so the tracer's patches are seen
        code, payload = self.cli.run(op.argv)
        return code, self.cli.render_json(payload)

    def clear_caches(self):
        for clear in self.clearers:
            clear()

    def execute(self, op):
        """(start, end, (code, text) or None, exception type name or None)."""
        self.clear_caches()
        t0 = time.perf_counter()
        try:
            result = self.call(op)
        except (Exception, SystemExit) as exc:
            return t0, time.perf_counter(), None, type(exc).__name__
        return t0, time.perf_counter(), result, None

    def judge(self, op, result, error, count: bool = True) -> bool:
        """Check one op's outcome; record a failure by kind if it has one."""
        kind = error if result is None else check.check(op, *result)
        if kind is None:
            return True
        if count:
            self.failures[kind] += 1
            if kind in check.INCORRECT:
                self.incorrect += 1
        return False


def timed_rounds(runner: Runner, wl, seed: int, seconds: float, clock: HostClock, probe: SetupProbe):
    """Whole rounds while the next one would end mostly inside the budget of
    busy (timed) wall seconds; set-up samples are taken at even intervals."""
    records = []  # (op, start, end, ok)
    busy = 0.0
    next_probe = 0.0
    r = 0
    while r == 0 or busy + 0.5 * busy / r < seconds:
        ops = wl.round_ops(r)
        random.Random(f"{wl.name}:{seed}:order:{r}").shuffle(ops)
        for op in ops:
            clock.sample_if_due()
            start, end, result, error = runner.execute(op)
            busy += end - start
            records.append((op, start, end, runner.judge(op, result, error)))
            if busy >= next_probe:
                probe.sample()
                next_probe += seconds / SETUP_SAMPLES
        r += 1
    clock.sample()
    return records, busy, r


def end_to_end(args, wl, runner: Runner, work: str, lines: list[str]):
    clock = HostClock()
    probe = SetupProbe(work, clock)
    records, busy, rounds = timed_rounds(runner, wl, args.seed, args.seconds, clock, probe)
    if not probe.ok:
        runner.failures["setup-check"] += 1
        runner.incorrect += 1
    timed = [(op, (end - start) * clock.scale(start, end), ok) for op, start, end, ok in records]
    done = sum(1 for _, _, ok in timed if ok)
    # a failed op counts as infinitely slow, so failing fast never reads as a speed-up
    ordered = sorted(lat if ok else math.inf for _, lat, ok in timed)
    p50 = central_median(ordered)
    tail, beyond = percentile(ordered, wl.tail_percentile)
    metrics = {
        "throughput_ops_s": done / sum(lat for _, lat, _ in timed),
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(probe.times),
    }
    attempted = len(records)
    failed = attempted - done
    raw = sorted((end - start) if ok else math.inf for _, start, end, ok in records)
    lines.append(f"rounds {rounds}, ops {attempted}, busy {busy:.3f} s, set-up samples {len(probe.times)}")
    lines.append(
        f"times at the reference host speed; reference kernel median {statistics.median(clock.durations) * 1e3:.3f} ms"
        f" against {REF_SECONDS * 1e3:g} ms over {len(clock.durations)} samples; wall-clock throughput"
        f" {done / busy:.4f} 1/s, p50 {percentile(raw, 50)[0] * 1e3:.3f} ms,"
        f" p{wl.tail_percentile:g} {percentile(raw, wl.tail_percentile)[0] * 1e3:.3f} ms"
    )
    lines.append(
        f"latency_tail_ms is p{wl.tail_percentile:g} of {attempted} samples, {beyond} beyond it"
        + ("" if beyond >= 10 else " (fewer than ten: too few ops for this percentile)")
    )
    if wl.slope_command:
        medians = {}
        for size in wl.ladder:
            vals = [
                lat if ok else math.inf
                for op, lat, ok in timed
                if op.command == wl.slope_command and op.size == size and op.kind == wl.slope_kind
            ]
            medians[size] = statistics.median(vals) if vals else math.inf
        lines.append(
            f"scaling_slope {slope(medians)!r} 1  (median {wl.slope_command} ms by size: "
            + ", ".join(f"{s}: {v * 1e3:.1f}" for s, v in medians.items())
            + ")"
        )
    lines.append(f"failed_ratio {failed / attempted!r} 1")
    return metrics, attempted, failed


def per_layer(args, wl, runner: Runner, lines: list[str]):
    """Each op of round 0 untraced, then traced; passes over that fixed op
    list repeat until the budget is spent, and each must repeat the counts."""
    ops = wl.round_ops(0)
    random.Random(f"{wl.name}:{args.seed}:order:0").shuffle(ops)
    passes, hits = [], {}
    traced_s = untraced_s = 0.0
    attempted = failed = 0
    first = None
    while not passes or traced_s + untraced_s < args.seconds:
        tracer = spans.Tracer()
        for op_id, op in enumerate(ops):
            start, end, plain, error = runner.execute(op)
            untraced_s += end - start
            ok = runner.judge(op, plain, error, count=False)
            runner.clear_caches()
            traced, error, elapsed = tracer.run_op(op_id, lambda: runner.call(op))
            traced_s += elapsed
            if first is None:
                for name, (h, m) in spans.cache_counts().items():
                    old = hits.get(name, (0, 0))
                    hits[name] = (old[0] + h, old[1] + m)
            ok = runner.judge(op, traced, error) and ok
            if traced != plain:
                ok = False
                runner.failures["traced-output-differs"] += 1
                runner.incorrect += 1
            attempted += 1
            failed += not ok
        passes.append(tracer.summary())
        first = first or tracer
    counts = [{k: v for k, v in p.items() if not k.endswith(".self_s")} for p in passes]
    repeat = all(c == counts[0] for c in counts)
    metrics = spans.layer_metrics(passes, hits, traced_s, untraced_s)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.tsv")
    first.write(path)
    lines.append(f"traced passes {len(passes)} over {len(ops)} ops (the base of every count); "
                 f"counts repeat across passes: {repeat}")
    lines.append(f"spans of the first pass written to {os.path.relpath(path, ROOT)}")
    return metrics, attempted, failed


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    from gogh import cli

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        ws = gen.Workspace(work)
        wl = gen.WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), ws)
        runner = Runner(cli)
        for op in wl.warmup:
            runner.judge(op, *runner.execute(op)[2:])
        lines = [
            f"workload {wl.name}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}; "
            f"Python {platform.python_version()}, nproc {os.cpu_count()}"
        ]
        if args.trace:
            metrics, attempted, failed = per_layer(args, wl, runner, lines)
            units = {name: unit for name, unit, _ in spans.METRICS}
        else:
            metrics, attempted, failed = end_to_end(args, wl, runner, work, lines)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if runner.failures:
        lines.append("failed ops by kind: " + ", ".join(f"{k}={v}" for k, v in sorted(runner.failures.items())))
    for name, value in metrics.items():
        lines.append(f"  {name:<44} {value!r} {units[name]}")
    print("\n".join(lines))
    result = {
        "correct": runner.incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


NOTES = ("failed ops by kind", "scaling_slope", "failed_ratio", "latency_tail_ms is", "traced passes")


def run_all(args) -> int:
    """Every workload in a process of its own, then a summary table."""
    table = {}
    status = 0
    for name in gen.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        out = proc.stdout.strip().splitlines()
        notes = [line for line in out if line.startswith(NOTES)]
        table[name] = json.loads(out[-1])
        table[name]["notes"] = notes
    print("\nsummary")
    for name, res in table.items():
        print(f"{name}: correct {res['correct']}, attempted {res['attempted']}, failed {res['failed']}")
        for line in res.pop("notes"):
            print(f"  {line}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<44} {m['value']!r} {m['unit']}")
    print(json.dumps({"workloads": table}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "gogh", "cli.py")):
        print(f"bench: no program sources at {os.path.join(SRC, 'gogh')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
