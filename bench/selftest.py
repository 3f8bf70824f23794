#!/usr/bin/env python3
"""Self-test of the benchmark's tracer.

    python3 bench/selftest.py

Checks, on small inputs from the benchmark's own generators:

* every layer's traced call count equals the count an independent
  ``sys.setprofile`` hook sees in an untraced run of the same ops;
* two traced runs of the same ops give identical counts;
* stdout of ``gogh.cli.main`` is byte-identical with and without tracing;
* the call structure the benchmark was defined against: a one-class HHG
  cycle verdict builds the ratio groupoid twice and verifies its
  parametrization twice, and a NotHHG cycle verdict calls ``tree_steps``
  more often than the cycle has edges.  A change that restructures these
  calls (one groupoid pass, an indexed tree) is expected to alter them.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import gen  # noqa: E402
import spans  # noqa: E402

CYCLE = 40


def _counts(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if not k.endswith(".self_s")}


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "gogh", "cli.py")):
        print(f"selftest: no program sources at {os.path.join(SRC, 'gogh')}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from gogh import cli

    from run import Runner

    work = os.path.join(ROOT, ".bench_work", f"selftest-pid{os.getpid()}")
    results = []

    def expect(ok: bool, label: str):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {label}")

    try:
        rng = random.Random("selftest")
        ws = gen.Workspace(work)
        text, hhg, _ = gen.cycle_graph(rng, CYCLE)
        ws.write(text, hhg)
        text, bad, _ = gen.cycle_graph(rng, CYCLE, unbalanced=True)
        ws.write(text, bad)
        corpus = gen.small_corpus(random.Random("selftest-corpus"), ws).round_ops(0)[::5]
        word_ops = gen.words(random.Random("selftest-words"), ws).round_ops(0)
        ops = [gen.Op("verdict", ["verdict", t.path], t, CYCLE) for t in (hhg, bad)] + corpus + word_ops
        runner = Runner(cli)

        def traced(op):
            tracer = spans.Tracer()
            runner.clear_caches()
            result, error, _ = tracer.run_op(0, lambda: runner.call(op))
            return result, error, tracer.summary()

        _, _, s = traced(ops[0])
        expect(s["balance.build_groupoid.calls"] == 2,
               f"one-class HHG cycle verdict: balance.build_groupoid.calls == 2 (got {s['balance.build_groupoid.calls']})")
        expect(s["parametrize.verify_parametrization.calls"] == 2,
               "one-class HHG cycle verdict: parametrize.verify_parametrization.calls == 2 "
               f"(got {s['parametrize.verify_parametrization.calls']})")
        _, _, s = traced(ops[1])
        expect(s["model.tree_steps.calls"] > CYCLE,
               f"NotHHG {CYCLE}-edge cycle verdict: model.tree_steps.calls > {CYCLE} (got {s['model.tree_steps.calls']})")

        # an independent count of the same layers, from the profiler hook
        tracer = spans.Tracer()
        code_label = {}
        for label in tracer.names[1:]:
            module, attr = label.split(".", 1)
            found = spans.resolve(module, attr)
            code_label[found[2].__code__] = label
        profiled = dict.fromkeys(tracer.names[1:], 0)

        def hook(frame, event, arg):
            if event == "call":
                label = code_label.get(frame.f_code)
                if label is not None:
                    profiled[label] += 1

        sample = ops[:2] + ops[2::7]
        for op in sample:
            runner.clear_caches()
            sys.setprofile(hook)
            try:
                runner.call(op)
            except (Exception, SystemExit):
                pass
            finally:
                sys.setprofile(None)
        traced_total = dict.fromkeys(tracer.names[1:], 0)
        for op in sample:
            _, _, s = traced(op)
            for label in traced_total:
                traced_total[label] += s[f"{label}.calls"]
        mismatches = [k for k in traced_total if traced_total[k] != profiled[k]]
        expect(not mismatches, "traced call counts equal profiler call counts"
               + (f" (differ: {mismatches})" if mismatches else ""))

        first = [_counts(traced(op)[2]) for op in ops]
        second = [_counts(traced(op)[2]) for op in ops]
        expect(first == second, f"two traced runs of {len(ops)} ops give identical counts")

        def stdout_of(op):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(op.argv)
                except (Exception, SystemExit) as exc:
                    code = type(exc).__name__
            return code, buf.getvalue()

        differ = 0
        for i, op in enumerate(ops):
            runner.clear_caches()
            plain = stdout_of(op)
            runner.clear_caches()
            out, error, _ = spans.Tracer().run_op(i, lambda: stdout_of(op))
            differ += out != plain
        expect(differ == 0, f"traced stdout byte-identical to untraced stdout on {len(ops)} ops ({differ} differ)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
