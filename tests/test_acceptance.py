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
"""

import json
import random

from nottorsion import acceptance
from nottorsion.characters import _type_choice_lists, break_sequence
from nottorsion.cli import main
from nottorsion.equivalence import (
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
