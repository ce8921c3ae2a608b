"""Benchmark of the nottorsion calculator: one workload per process.

    python3 bench/run.py --workload reduce-stream --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the library from src/.
It is closed-loop and single-process: one caller runs each op and waits
for its answer, with no threads or pools.  Every answer is checked (see
workloads.py); an op that raises or gives a wrong answer counts as failed
and the run goes on.

Set-up (import, input generation, loading answers.json, one untimed
warm-up op per type) runs SETUP_REPEATS times, each on a fresh import.
Then, with --trace 0, the workload's fixed op list runs in passes for
about --seconds seconds, at least one pass.  With --trace 1 it runs one
plain pass and one pass under tracer.Tracer, whose spans go to
.bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
Timed end-to-end metrics are in refs, multiples of the time of
reference_loop measured alongside the ops, except setup_s, which is in
seconds at the speed where that loop takes REF_NOMINAL_S.  A fuller record, with the
seed, raw times, hit/miss latencies, sample counts and the environment,
goes to .bench_out/<workload>-seed<seed>-trace<t>.json; a summary goes
to stderr.
"""

import argparse
import bisect
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
from pathlib import Path
from types import SimpleNamespace

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAYERS = ("series", "characters", "reduction", "equivalence", "acceptance", "cli")
SETUP_REPEATS = 9

# (metric, unit) reported with --trace 0, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("op_p50_ref", "ref"),
    ("op_p95_ref", "ref"),
    ("peak_rss_mb", "MB"),
)
REF_ITERATIONS = 60000  # one reference loop: 7-13 ms on a 2-core x86 VM
# setup_s is in seconds at the speed where one reference loop takes this long
REF_NOMINAL_S = 0.008
REF_EVERY_S = 0.2  # period of the reference loop timer
REF_WINDOW_S = 0.5  # an op's ref: the loops this close to it


def load_library():
    """Import nottorsion afresh: each set-up pays the import and starts
    with empty _strip_tables."""
    for name in [n for n in sys.modules if n == "nottorsion" or n.startswith("nottorsion.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("nottorsion." + m) for m in LAYERS})


def set_up(workload, seed):
    lib = load_library()
    with open(HERE / "answers.json") as fh:
        answers = json.load(fh)
    ops = [
        (op, workloads.materialize(lib, op, answers))
        for op in workloads.generate(workload, seed, answers)
    ]
    workloads.warm_up(lib, ops, answers)
    return lib, answers, ops


def reference_loop():
    """Fixed pure-Python work whose time is the unit "ref" of the timed metrics.

    On a shared machine the speed of the same Python code drifts by 20% or
    more over tens of seconds.  Timing this loop every REF_EVERY_S during
    the ops and dividing op times by it cancels most of that drift (see
    README.md for the spreads with and without it).
    """
    acc = [0] * 64
    for i in range(REF_ITERATIONS):
        acc[i & 63] = (acc[(i * 7) & 63] + i * i) % 1000003
    return acc


def timed_reference():
    """(start, seconds) of one reference_loop."""
    start = time.perf_counter()
    reference_loop()
    return start, time.perf_counter() - start


class Tally:
    """Runs passes over the op list and checks every answer.

    With `calibrate`, a SIGALRM timer runs reference_loop every
    REF_EVERY_S, also in the middle of long ops.  Its time is taken out of
    the op latencies, and each op's ref is the mean loop time within
    REF_WINDOW_S of the op.  Without it (the traced run), times are raw
    seconds.  An op faster than `min_op_s` runs back to back until that
    much of it is timed, and its latency is the median run.
    """

    def __init__(self, calibrate, min_op_s):
        self.calibrate = calibrate
        self.min_op_s = min_op_s
        self.attempted = 0
        self.failed = 0
        self.ops = []  # (seconds, ref seconds, "hit" | "miss" | None) per op and pass
        self.passes = []  # (seconds, refs) per pass
        self.ref_samples = []  # (time, seconds) per reference loop
        self._paused = 0.0

    def _time_reference(self, *_signal_args):
        sample = timed_reference()
        self.ref_samples.append(sample)
        self._paused += sample[1]

    def _run_op(self, lib, answers, op, args):
        """(start, end, seconds, outcome label) of the op."""
        runs = [self._run_once(lib, answers, op, args)]
        while self.min_op_s and sum(t for _, _, t, _ in runs) < self.min_op_s:
            runs.append(self._run_once(lib, answers, op, args))
        return runs[0][0], runs[-1][1], statistics.median(t for _, _, t, _ in runs), runs[0][3]

    def _run_once(self, lib, answers, op, args):
        failure = None
        paused = self._paused
        start = time.perf_counter()
        try:
            result = workloads.run_op(lib, op[0], args)
        except Exception:  # counted as failed; the run goes on
            failure = traceback.format_exc(limit=3)
        end = time.perf_counter()
        elapsed = end - start - (self._paused - paused)
        if failure:
            sys.stderr.write(failure)
            ok, label = False, None
        else:
            ok = workloads.check_op(lib, answers, op, args, result)
            label = workloads.outcome(op[0], result)
        if not ok:
            print("failed: %r" % (op,), file=sys.stderr)
        self.attempted += 1
        self.failed += not ok
        return start, end, elapsed, label

    def _ref_near(self, start, end):
        if not self.calibrate:
            return 1.0
        times = [t for t, _ in self.ref_samples]
        lo = bisect.bisect_left(times, start - REF_WINDOW_S)
        hi = bisect.bisect_right(times, end + REF_WINDOW_S)
        return statistics.fmean(d for _, d in self.ref_samples[max(0, min(lo, hi - 1)):hi])

    def run_pass(self, lib, answers, ops):
        """Run every op once; returns the summed op latency in refs (or s)."""
        if self.calibrate:
            self._time_reference()
            previous = signal.signal(signal.SIGALRM, self._time_reference)
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            done = [self._run_op(lib, answers, op, args) for op, args in ops]
        finally:
            if self.calibrate:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
                self._time_reference()
        timed = [(t, self._ref_near(start, end), label) for start, end, t, label in done]
        self.ops.extend(timed)
        self.passes.append((sum(t for t, _, _ in timed), sum(t / ref for t, ref, _ in timed)))
        return self.passes[-1][1]

    def per_op(self):
        """Each distinct op's median latency over the passes, in refs and in
        seconds, with its outcome label."""
        n = len(self.ops) // len(self.passes)
        return [
            (
                statistics.median(t / ref for t, ref, _ in self.ops[i::n]),
                statistics.median(t for t, _, _ in self.ops[i::n]),
                self.ops[i][2],
            )
            for i in range(n)
        ]


def percentile(values, q):
    """The q-th percentile by nearest rank: the smallest value with at least
    q% of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def latency_summary(tally, per_op):
    """Sample counts and latencies, in refs and in raw ms, for the record."""
    refs = [r for r, _, _ in per_op]
    p95 = percentile(refs, 95)
    out = {
        "op_samples": len(per_op),
        "op_samples_beyond_p95": sum(r > p95 for r in refs),
        "ref_ms": statistics.median(d for _, d in tally.ref_samples) * 1e3,
        "wall_s": statistics.median(total for total, _ in tally.passes),
        "op_p50_ms": statistics.median(t for _, t, _ in per_op) * 1e3,
        "op_p95_ms": percentile([t for _, t, _ in per_op], 95) * 1e3,
    }
    for label in ("hit", "miss"):
        sample = [(r, t) for r, t, lab in per_op if lab == label]
        out["%s_samples" % label] = len(sample)
        out["%s_p50_ref" % label] = statistics.median(r for r, _ in sample) if sample else None
        out["%s_p50_ms" % label] = statistics.median(t for _, t in sample) * 1e3 if sample else None
    return out


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nottorsion" / "__init__.py").is_file():
        print("no nottorsion package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # each set-up is divided by the mean of the reference loops just before
    # and after it, like the op latencies, and reported in seconds at
    # REF_NOMINAL_S per loop; the raw seconds go to the record
    setup_s, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
        _, before = timed_reference()
        start = time.perf_counter()
        lib, answers, ops = set_up(args.workload, args.seed)
        setup_s.append(time.perf_counter() - start)
        _, after = timed_reference()
        setup_refs.append(setup_s[-1] / ((before + after) / 2))

    # the traced run times nothing it reports as end-to-end, and repeating
    # ops for timing would make its counts depend on the machine
    tally = Tally(
        calibrate=not args.trace,
        min_op_s=0.0 if args.trace else workloads.MIN_OP_S.get(args.workload, 0.0),
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "setup_s_each": setup_s,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "src_lines": src_lines(),
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / ("%s-seed%d" % (args.workload, args.seed))
    if args.trace:
        plain = tally.run_pass(lib, answers, ops)
        tr = tracer.Tracer()
        tr.install(lib)
        traced = tally.run_pass(lib, answers, ops)
        values = tracer.layer_metrics(tr, lib.series._strip_tables.cache_info())
        values["tracing.overhead_ratio"] = traced / plain
        tr.write(str(stem) + "-spans.json")
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in tracer.PER_LAYER
        }
        print(
            "tracing overhead: %.2fx (traced pass %.3f s, plain pass %.3f s)"
            % (traced / plain, traced, plain),
            file=sys.stderr,
        )
    else:
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            tally.run_pass(lib, answers, ops)
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break
        per_op = tally.per_op()
        refs = [r for r, _, _ in per_op]
        values = {
            "setup_s": statistics.median(setup_refs) * REF_NOMINAL_S,
            "wall_ref": statistics.median(refs for _, refs in tally.passes),
            "op_p50_ref": statistics.median(refs),
            "op_p95_ref": percentile(refs, 95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record.update(latency_summary(tally, per_op))
    record["passes"] = tally.passes

    record.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_frac=tally.failed / tally.attempted,
        metrics=metrics,
    )
    with open(str(stem) + "-trace%d.json" % args.trace, "w") as fh:
        json.dump(record, fh, indent=1)
    for key in sorted(record):
        if key not in ("metrics", "setup_s_each", "passes"):
            print("%s: %s" % (key, record[key]), file=sys.stderr)
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
