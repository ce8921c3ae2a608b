"""Tests of the benchmark's own parts: the answer checker, the self-time
arithmetic of the tracer, and the seeded input generator.

    python3 -m unittest discover -s bench
"""

import importlib
import json
import sys
import unittest
from types import SimpleNamespace

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))
LIB = SimpleNamespace(**{m: importlib.import_module("nottorsion." + m) for m in run.LAYERS})
with open(run.HERE / "answers.json") as fh:
    ANSWERS = json.load(fh)


def _run(op):
    args = workloads.materialize(LIB, op, ANSWERS)
    return args, workloads.run_op(LIB, op[0], args)


def _identity(prime, precision):
    return LIB.series.NottinghamElement.identity(prime, precision)


class CheckerTest(unittest.TestCase):
    def test_strict_query_with_corrupted_witness_fails(self):
        op = ("strict", 2, 3, 11, 0, 1)
        args, witness = _run(op)
        self.assertTrue(workloads.check_op(LIB, ANSWERS, op, args, witness))
        # the identity maps the source to itself, not to the other form
        corrupted = _identity(2, witness.element.precision)
        self.assertFalse(workloads.check_op(LIB, ANSWERS, op, args, corrupted))
        self.assertFalse(workloads.check_op(LIB, ANSWERS, op, args, None))

    def test_partition_with_wrong_classes_or_witness_fails(self):
        op = ("classify", 2, 3, 11)
        args, report = _run(op)
        self.assertTrue(workloads.check_op(LIB, ANSWERS, op, args, report))
        fields = {name: getattr(report, name) for name in report.__slots__}
        split = LIB.equivalence.ClassReport(**dict(fields, classes=((0,), (1,)), class_count=2))
        self.assertFalse(workloads.check_op(LIB, ANSWERS, op, args, split))
        miscounted = LIB.equivalence.ClassReport(**dict(fields, class_count=2))
        self.assertFalse(workloads.check_op(LIB, ANSWERS, op, args, miscounted))
        (i, j, elt), = report.witnesses
        bad = ((i, j, _identity(2, elt.precision)),)
        corrupted = LIB.equivalence.ClassReport(**dict(fields, witnesses=bad))
        self.assertFalse(workloads.check_op(LIB, ANSWERS, op, args, corrupted))

    def test_reduce_with_rejected_witness_fails(self):
        op = ("reduce", 3, 2, 8, ((1, 4), (2, 1), (4, 3), (8, 6)))
        args, (form, witness, verdict) = _run(op)
        self.assertTrue(workloads.check_op(LIB, ANSWERS, op, args, (form, witness, verdict)))
        rejected = LIB.reduction.WitnessCheck(False, "action-mismatch")
        self.assertFalse(workloads.check_op(LIB, ANSWERS, op, args, (form, witness, rejected)))

    def test_power_query_against_closed_form(self):
        op = ("power", 3, 1, 8, ((1, 1), (2, 3), (4, 6), (8, 3)), 2)
        args, result = _run(op)
        self.assertEqual(result, (False, None))
        self.assertTrue(workloads.check_op(LIB, ANSWERS, op, args, result))
        self.assertFalse(workloads.check_op(LIB, ANSWERS, op, args, (True, None)))

    def _verify_output(self, failing):
        """verify JSON whose failing checks are `failing[criterion]`."""
        return json.dumps([
            {
                "criterion": k,
                "passed": not failing.get(k),
                "checks": [{"ok": True, "text": "fine"}]
                + [{"ok": False, "text": text} for text in failing.get(k, ())],
            }
            for k in range(1, 7)
        ])

    def test_verify_verdicts(self):
        pinned = ANSWERS["verify"]
        expected = {3: ["strict = p * weak at (3,2,8): strict 12, p*weak 36, bound 12"]}
        self.assertTrue(workloads.check_verify(pinned, 1, self._verify_output(expected)))
        # criterion 3 passing is a wrong answer, and so is any other FAIL
        self.assertFalse(workloads.check_verify(pinned, 0, self._verify_output({})))
        self.assertFalse(workloads.check_verify(pinned, 1, self._verify_output({})))
        other = {**expected, 5: ["oracle disagrees"]}
        self.assertFalse(workloads.check_verify(pinned, 1, self._verify_output(other)))
        wrong_count = {3: ["strict = p * weak at (3,2,8): strict 12, p*weak 33, bound 12"]}
        self.assertFalse(workloads.check_verify(pinned, 1, self._verify_output(wrong_count)))
        self.assertFalse(workloads.check_verify(pinned, 1, "not json"))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            (1, "a", 0.0, 10.0, 0),
            (2, "b", 1.0, 4.0, 1),
            (3, "c", 3.0, 6.0, 1),  # overlaps b: the union counts once
            (4, "d", 8.0, 9.0, 1),
            (5, "e", 2.0, 3.0, 2),
            (6, "f", 8.5, 9.5, 4),  # ends after its parent: clipped
        ]
        got = tracer.self_times(spans, {1: 0.5})
        want = {1: 10 - 6 - 0.5, 2: 3 - 1, 3: 3, 4: 1 - 0.5, 5: 1, 6: 1}
        for sid, value in want.items():
            self.assertAlmostEqual(got[sid], value)

    def test_wrappers_split_self_time(self):
        ticks = iter(range(100))
        tr = tracer.Tracer(clock=lambda: float(next(ticks)))
        inner = tr.wrap(lambda: 7, "inner", tracer.AGG, ("nonzero", bool))
        middle = tr.wrap(lambda: inner(), "middle", tracer.AGG)
        outer = tr.wrap(lambda: middle(), "outer", tracer.SPAN)
        self.assertEqual(outer(), 7)
        # clock reads: outer 0, middle 1, inner 2..3, middle 4, outer 5
        self.assertEqual(tr.aggregates[("inner", "middle")], [1, 1.0, 1.0])
        self.assertEqual(tr.aggregates[("middle", "outer")], [1, 3.0, 2.0])
        self.assertEqual(tr.spans, [(1, "outer", 0.0, 5.0, 0)])
        self.assertEqual(tracer.self_times(tr.spans, tr.cover), {1: 2.0})
        self.assertEqual(tr.counts["nonzero"], 1)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in workloads.WORKLOADS:
            first = workloads.serialize(workloads.generate(workload, 7, ANSWERS))
            again = workloads.serialize(workloads.generate(workload, 7, ANSWERS))
            self.assertEqual(first, again, workload)

    def test_seed_changes_the_inputs_but_not_the_mix(self):
        for workload in ("reduce-stream", "pair-queries"):
            a = workloads.generate(workload, 7, ANSWERS)
            b = workloads.generate(workload, 8, ANSWERS)
            self.assertNotEqual(a, b, workload)
            self.assertEqual(sorted(op[:4] for op in a), sorted(op[:4] for op in b))


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_lists_what_the_runs_report(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            list(tracer.PER_LAYER),
        )


if __name__ == "__main__":
    unittest.main()
