"""One test per acceptance criterion.

Each test runs its criterion as `nottorsion verify --only N --format
json` and prints the document the CLI emits either way.  Criteria 1, 2, 4, 5 and 6 are
asserted to pass.  Criterion 3 is asserted to give its documented
verdict: every table check and the identity checks at m = 6 and m = 7
pass, and the one failing check is the identity "strict = p * weak" at
<2,8> over F_3.  For l < p the strict count equals the reduced-form
bound B, and there B is p times too small for the identity: strict 12,
p*weak 36.  The expected values come from the closed forms, so the test
fails if a count moves, if a table check breaks, or if the identity
ever passes there, which would mean a strict count above the bound.

Criterion 6's forked workers are held to the in-process path, which
runs when one CPU is available: equal results under a frozen clock,
faults that reach the caller, and no child left after any run.  A
sha256 of the characters criterion 6 draws pins those draws.
"""

import hashlib
import json
import os
import random
import select
import time

import pytest

from nottorsion import acceptance
from nottorsion.characters import (
    _type_choice_lists,
    break_sequence,
    format_character_literal,
)
from nottorsion.cli import main
from nottorsion.equivalence import (
    count_classes,
    reduced_form_bound,
    type_1m_class_count,
    type_2m_weak_class_count,
)
from nottorsion.series import UnitSeries


def _verify(capsys, number):
    """The document of criterion `number` from the CLI, its checks as
    (ok, text) pairs, and that document as printable text."""
    code = main(["verify", "--only", str(number), "--format", "json"])
    (doc,) = json.loads(capsys.readouterr().out)
    block = json.dumps(doc, indent=1)
    print(block)
    assert code == (0 if doc["passed"] else 1), "\n" + block
    return doc, [(c["ok"], c["text"]) for c in doc["checks"]], block


def _run(capsys, number):
    doc, _, block = _verify(capsys, number)
    assert doc["passed"], "\n" + block


def test_criterion_1_reduced_form_counts(capsys):
    _run(capsys, 1)


def test_criterion_2_class_count_methods_agree(capsys):
    _run(capsys, 2)


def test_criterion_3_legacy_tables_and_product_identity(capsys):
    doc, checks, block = _verify(capsys, 3)
    expected = []
    for p, m in ((2, 2), (2, 3), (2, 5), (3, 3), (3, 4), (3, 5)):
        n = type_1m_class_count(p, m)
        expected.append(
            (True, "depth-1 table at (%d,%d): computed %d, table %d" % (p, m, n, n))
        )
    expected.append(
        (True, "no valid depth-2 types at p=2 (depth must be coprime to p)")
    )
    for m in (6, 7, 8):
        w = type_2m_weak_class_count(3, m)
        expected.append(
            (True, "depth-2 weak table at (3,%d): computed %d, table %d" % (m, w, w))
        )
    # for l < p the strict count is the reduced-form bound B, so the
    # identity holds exactly when B = p * weak: at m = 6 and 7, not at 8
    for m, holds in ((6, True), (7, True), (8, False)):
        b = reduced_form_bound(3, 2, m)
        w = type_2m_weak_class_count(3, m)
        expected.append(
            (
                holds,
                "strict = p * weak at (3,2,%d): strict %d, p*weak %d, bound %d"
                % (m, b, 3 * w, b),
            )
        )
    assert checks == expected, "\n" + block
    assert not doc["passed"], "\n" + block


def test_criterion_4_merging_counterexample(capsys):
    _run(capsys, 4)


def test_criterion_5_power_conjugacy_agreement(capsys):
    _run(capsys, 5)


def test_criterion_6_property_suites(capsys):
    _run(capsys, 6)


def test_criterion_6_counts_failures(monkeypatch, capsys):
    # a recompose that always returns 1 + t breaks the round trip and
    # nothing else, so only the first suite may report failures
    monkeypatch.setattr(acceptance, "PROPERTY_CASES", 20)
    monkeypatch.setattr(
        acceptance,
        "unit_recompose",
        lambda e, precision: UnitSeries(e.prime, [1] + [0] * (precision - 1)),
    )
    doc, checks, block = _verify(capsys, 6)
    (ok, roundtrip), *others = checks[:8]
    assert roundtrip.startswith("decomposition round-trip: 20 cases, ")
    assert not ok and ", 0 failures" not in roundtrip, "\n" + block
    assert all(ok and ": 20 cases, 0 failures (" in text for ok, text in others), "\n" + block
    assert not doc["passed"], "\n" + block


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_workers(monkeypatch):
    """Count the forks and the peak of children alive at once, as the
    parent sees them: forks add one, waitpid takes one away."""
    seen = {"forks": 0, "alive": 0, "peak": 0}
    fork, waitpid = os.fork, os.waitpid

    def counted_fork():
        pid = fork()
        if pid:
            seen["forks"] += 1
            seen["alive"] += 1
            seen["peak"] = max(seen["peak"], seen["alive"])
        return pid

    def counted_waitpid(pid, options):
        out = waitpid(pid, options)
        seen["alive"] -= 1
        return out

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "waitpid", counted_waitpid)
    return seen


def test_criterion_6_forked_matches_in_process(monkeypatch):
    # with the clock frozen a result holds only the suites' outcomes; a
    # case that also fails on about a fifth of its draws gives each suite
    # its own failure count, so a suite reported in the wrong place shows
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    monkeypatch.setattr(acceptance, "PROPERTY_CASES", 250)
    flaky = tuple(
        (name, lambda rng, case=case: case(rng) and rng.random() < 0.8)
        for name, case in acceptance.PROPERTY_SUITES
    )
    seen = _count_workers(monkeypatch)
    for suites in (acceptance.PROPERTY_SUITES, flaky):
        monkeypatch.setattr(acceptance, "PROPERTY_SUITES", suites)
        for seed in (acceptance.DEFAULT_SEED, 1401):
            monkeypatch.setattr(acceptance, "_available_cpus", lambda: 1)
            want = acceptance.run_criterion_6(seed=seed)
            assert seen["forks"] == 0
            for cpus in (2, 16):
                monkeypatch.setattr(acceptance, "_available_cpus", lambda: cpus)
                assert acceptance.run_criterion_6(seed=seed) == want, (seed, cpus)
                # one child per suite, at most one per CPU and 8 at a time
                assert (seen["forks"], seen["peak"], seen["alive"]) == (8, min(cpus, 8), 0)
                seen.update(forks=0, peak=0)
            _assert_no_child_left()
    fails = [int(text.split(", ")[1].split()[0]) for _, text in want.checks[:8]]
    assert len(set(fails)) > 4 and 0 not in fails, want.checks


def _with_case(monkeypatch, offset, case):
    suites = list(acceptance.PROPERTY_SUITES)
    suites[offset] = (suites[offset][0], case)
    monkeypatch.setattr(acceptance, "PROPERTY_SUITES", tuple(suites))


def _broken(rng):
    raise RuntimeError("broken case")


def test_criterion_6_worker_faults_reach_the_caller(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "PROPERTY_CASES", 20)
    monkeypatch.setattr(acceptance, "_available_cpus", lambda: 2)
    assert acceptance.run_criterion_6().passed
    _assert_no_child_left()
    _with_case(monkeypatch, 5, _broken)
    with pytest.raises(RuntimeError, match="^broken case$"):
        acceptance.run_criterion_6()
    _assert_no_child_left()
    # the CLI reports it as it does a fault raised in-process
    for cpus in (2, 1):
        monkeypatch.setattr(acceptance, "_available_cpus", lambda: cpus)
        assert main(["verify", "--only", "6"]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "verification failure: broken case\n")
        _assert_no_child_left()


def test_criterion_6_worker_budget_refusal_reaches_the_caller(monkeypatch, capsys):
    # a refusal raised in a worker comes back as the same refusal, so the
    # CLI exits 3 with the message it prints when the suite runs here
    monkeypatch.setattr(acceptance, "PROPERTY_CASES", 20)
    _with_case(monkeypatch, 2, lambda rng: count_classes(3, 1, 4, budget=1))
    seen = []
    for cpus in (2, 1):
        monkeypatch.setattr(acceptance, "_available_cpus", lambda: cpus)
        assert main(["verify", "--only", "6"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("budget refused: ")
        seen.append(out.err)
        _assert_no_child_left()
    assert seen[0] == seen[1], seen


def test_criterion_6_worker_without_a_result_is_a_fault(monkeypatch):
    monkeypatch.setattr(acceptance, "PROPERTY_CASES", 20)
    monkeypatch.setattr(acceptance, "_available_cpus", lambda: 2)
    _with_case(monkeypatch, 3, lambda rng: os._exit(3))
    with pytest.raises(RuntimeError, match="'action contravariance': worker exited with status 3"):
        acceptance.run_criterion_6()
    _assert_no_child_left()


def test_criterion_6_kills_its_workers_on_a_fault_or_an_interrupt(monkeypatch):
    # a worker that would run for a minute is killed, not waited for,
    # when another suite raises or the parent is interrupted
    def stuck(rng):
        time.sleep(60)
        os._exit(1)

    monkeypatch.setattr(acceptance, "_available_cpus", lambda: 2)
    started = time.monotonic()
    _with_case(monkeypatch, 0, _broken)
    _with_case(monkeypatch, 1, stuck)
    with pytest.raises(RuntimeError, match="broken case"):
        acceptance.run_criterion_6()
    _assert_no_child_left()

    def interrupted(*args):
        raise KeyboardInterrupt

    _with_case(monkeypatch, 0, stuck)
    monkeypatch.setattr(select, "select", interrupted)
    with pytest.raises(KeyboardInterrupt):
        acceptance.run_criterion_6()
    _assert_no_child_left()
    assert time.monotonic() - started < 30


def test_run_all_returns_each_criterion_in_order(monkeypatch):
    seen = []

    def stub(number):
        def run(budget, seed):
            seen.append((number, budget, seed))
            return acceptance.CriterionResult(number, "stub", [(number != 2, "x")])

        return run

    monkeypatch.setattr(acceptance, "CRITERIA", (stub(1), stub(2), stub(3)))
    results = acceptance.run_all(budget=5, seed=6)
    assert [(r.number, r.passed) for r in results] == [(1, True), (2, False), (3, True)]
    assert seen == [(1, 5, 6), (2, 5, 6), (3, 5, 6)]


def test_random_characters_follow_the_type_layout():
    # every drawn value lies in the choices that enumeration walks at its
    # index, and the draw has the type it was asked for
    rng = random.Random(1401)
    types = acceptance._valid_types((2, 3, 5), 7, 15)
    for p, l, m in types:
        indices, choices = _type_choice_lists(p, l, m)
        for _ in range(3):
            chi = acceptance._random_character_of_type(rng, p, l, m)
            assert set(chi.support) <= set(indices)
            for j, allowed in zip(indices, choices):
                assert chi.value(j) in allowed, (p, l, m, j)
            assert break_sequence(chi) == (l, m)


def test_criterion_6_draws_are_pinned():
    # criterion 6's cases see exactly these characters: a change to the
    # type layout or to the order of the draws moves the digest
    digest = hashlib.sha256()
    for seed in (acceptance.DEFAULT_SEED, 1401, 7):
        rng = random.Random(seed)
        for _ in range(3000):
            p, _, _, chi = acceptance._draw_character(rng)
            digest.update(b"%d;%s|" % (p, format_character_literal(chi).encode()))
    assert digest.hexdigest() == (
        "584e4d1d825d5700aec6156cff83914141d15397306969f4ea79e04a537f5234"
    )
