"""Equivalence search, class counting, and conjugacy tests.

Brute-force results are cross-checked two ways where feasible: against
the closed-form count and against a naive in-test scan over the full
candidate space.
"""

import copy
import functools
import hashlib
import importlib
import itertools
import pickle
import pkgutil
import random
import time
import tracemalloc

import pytest

import nottorsion
from nottorsion import equivalence
from nottorsion.acceptance import CriterionResult, _random_character_of_type
from nottorsion.characters import (
    Character,
    CharType,
    ReducedForm,
    _action_row,
    _action_rows,
    _basis_value,
    _pairing,
    _row_value,
    break_sequence,
    char_act,
    char_eval,
    enumerate_characters,
    enumerate_reduced_forms,
    is_reduced,
    parse_character_literal,
    scalar_mul,
    standard_expansion,
)
from nottorsion.equivalence import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ClassReport,
    _ActionScanner,
    _join_reduced_forms,
    _members,
    bound_exponents,
    count_classes,
    order_p_class_count,
    partition_reduced_forms,
    power_conjugacy_criterion,
    power_conjugacy_oracle,
    reduced_form_bound,
    strict_equiv_search,
    type_1m_class_count,
    type_2m_weak_class_count,
    weak_class_count,
    weak_equiv_search,
)
from nottorsion.reduction import reduce, verify_witness
from nottorsion.series import (
    ExponentVector,
    NottinghamElement,
    ParseError,
    Prime,
    UnitSeries,
    _pow_raw,
    as_prime,
    format_nottingham_product,
    nott_compose,
    unit_decompose,
    unit_subst,
)


def naive_search(chi, psi, strict):
    """Oracle: scan the full p^m candidate space in lex order using only
    the public action and evaluation entry points."""
    p = chi.prime.p
    l, m = break_sequence(chi)
    for body in itertools.product(range(p), repeat=m):
        u = NottinghamElement(chi.prime, UnitSeries(p, list(body)))
        if strict and char_eval(chi, u.unit) % p:
            continue
        if char_act(u, chi) == psi:
            return u
    return None


# ---------------------------------------------------------------------------
# Strict search.


def test_strict_search_self_is_identity():
    chi = parse_character_literal("2:1,7:3", 3)
    w = strict_equiv_search(chi, chi)
    assert w.element == NottinghamElement.identity(3, 7)
    assert w.kernel_value == 0


def test_strict_search_none_between_distinct_reduced_forms():
    # at l < p canonical reduction separates classes, so distinct reduced
    # forms never merge
    chi = parse_character_literal("1:1,4:3", 3)
    psi = parse_character_literal("1:1,4:6", 3)
    assert strict_equiv_search(chi, psi) is None


def test_strict_search_type_mismatch_is_none():
    chi = parse_character_literal("5:1,15:2", 2)
    psi = parse_character_literal("5:1,13:2", 2)
    assert strict_equiv_search(chi, psi) is None
    assert weak_equiv_search(chi, psi) is None


def test_searches_are_none_for_a_non_surjective_side():
    # a character with no unit value has no break type, so no search
    # can join it to one that has, in either direction
    chi = parse_character_literal("5:1,15:2", 2)
    flat = parse_character_literal("5:2,15:2", 2)
    for src, tgt in ((chi, flat), (flat, chi), (flat, flat)):
        assert strict_equiv_search(src, tgt) is None
        assert weak_equiv_search(src, tgt) is None


def test_strict_search_internal_fault_raises_runtime_error(monkeypatch):
    # with the kernel test broken the scan returns a candidate off the
    # kernel; that is the library's fault, so RuntimeError, not the
    # Witness constructor's ValueError
    monkeypatch.setattr(equivalence, "_kernel_value_modp", lambda *args: 0)
    chi = parse_character_literal("5:1", 2)
    psi = parse_character_literal("5:1,7:2,9:2", 2)
    assert break_sequence(chi) == break_sequence(psi) == (5, 10)
    with pytest.raises(RuntimeError, match="a unit mod 2"):
        strict_equiv_search(chi, psi)


def test_strict_search_prime_mismatch_raises():
    with pytest.raises(ValueError):
        strict_equiv_search(
            parse_character_literal("1:1,4:3", 3),
            parse_character_literal("1:1", 2),
        )


def test_strict_search_merging_pair():
    # two reduced forms of the same class: the found witness checks out
    # and the search is symmetric
    chi = parse_character_literal("5:1,15:2", 2)
    psi = parse_character_literal("5:1,11:2,15:2", 2)
    w = strict_equiv_search(chi, psi)
    assert w is not None
    assert w.to_text() == (
        "t*(1+t^3)*(1+t^4)*(1+t^7)*(1+t^10)*(1+t^11)*(1+t^12)*(1+t^13)"
    )
    assert w.kernel_value == 2
    assert verify_witness(chi, psi, w).ok
    back = strict_equiv_search(psi, chi)
    assert back is not None
    assert verify_witness(psi, chi, back).ok


def test_strict_search_lex_minimality_against_naive_scan():
    # forms 0 and 1 of type <3,6> over F_2 share a class; the library
    # answer must equal the first hit of a full-space lex scan
    chi = parse_character_literal("3:1", 2)
    psi = parse_character_literal("3:1,5:2", 2)
    w = strict_equiv_search(chi, psi)
    oracle = naive_search(chi, psi, strict=True)
    assert w is not None and oracle is not None
    assert w.element == oracle
    assert verify_witness(chi, psi, w).ok


def test_weak_search_lex_minimality_against_naive_scan():
    chi = parse_character_literal("2:1,7:3", 3)
    psi = parse_character_literal("2:1,5:3,7:3", 3)
    elt = weak_equiv_search(chi, psi)
    assert elt == naive_search(chi, psi, strict=False)
    assert str(elt.unit) == "1+2*t^2+t^3+2*t^5+2*t^6"
    assert format_nottingham_product(elt) == "t*(1+t^2)^2*(1+t^3)*(1+t^4)^2*(1+t^6)"


def test_weak_but_not_strict_pair():
    chi = parse_character_literal("2:1,7:3", 3)
    psi = parse_character_literal("2:1,5:3,7:3", 3)
    assert strict_equiv_search(chi, psi) is None
    elt = weak_equiv_search(chi, psi)
    assert elt is not None
    assert char_act(elt, chi) == psi
    # the best weak move really does break the kernel condition
    assert char_eval(chi, elt.unit) % 3 != 0


def test_weak_search_none_case():
    chi = parse_character_literal("2:1,7:3", 3)
    assert weak_equiv_search(chi, scalar_mul(2, chi)) is None


def test_searches_ignore_top_coefficient():
    # witnesses are reported with a_m = 0; appending a top term changes
    # neither the action nor the kernel value mod p
    chi = parse_character_literal("3:1", 2)
    psi = parse_character_literal("3:1,5:2", 2)
    w = strict_equiv_search(chi, psi)
    assert w.element.unit.coefficient(6) == 0
    bumped = list(w.element.unit.coeffs)
    bumped[5] = 1  # coefficient a_6
    u2 = NottinghamElement(chi.prime, UnitSeries(2, bumped))
    assert char_act(u2, chi) == psi
    assert char_eval(chi, u2.unit) % 2 == w.kernel_value % 2


def lex_scan_witnesses(p, l, m, sources, targets):
    """Oracle: {(s, t): (element, kernel value)} for strict and {(s, t):
    element} for weak, the first candidate t*(1 + a_1 t + ... +
    a_(m-1) t^(m-1)) in lex order mapping sources[s] to targets[t].

    Each candidate's rows E_j o u come once per type from the public
    substitution and decomposition, paired with each source; the kernel
    value chi(u(t)/t) is the pairing of u's own decomposition.  It
    shares the strip division with the searches, but neither their power
    loop (`_action_rows`) nor their value kernel (`_row_value`)."""
    prime = as_prime(p)
    psq = prime.psq
    index = {psi: t for t, psi in enumerate(targets)}
    strict, weak = {}, {}
    for digits in itertools.product(range(p), repeat=m - 1):
        u = NottinghamElement.from_unit_coeffs(prime, [*digits, 0])
        rows = [
            (j, unit_decompose(unit_subst(UnitSeries.basis(p, j, m), u), m).exps)
            for j in range(1, m + 1)
            if j % p
        ]
        kernel = unit_decompose(u.unit, m).exps
        for s, chi in enumerate(sources):
            def pair(exps):
                return sum(e * chi.value(k) for k, e in exps.items()) % psq

            t = index.get(Character(prime, {j: pair(exps) for j, exps in rows}))
            if t is not None:
                weak.setdefault((s, t), u)
                if pair(kernel) % p == 0:
                    strict.setdefault((s, t), (u, pair(kernel)))
    return strict, weak


@pytest.mark.parametrize(
    "p, l, m, want",
    [(2, 3, 6, (10, 14, 0)), (2, 3, 7, (3, 0, 5)), (2, 5, 10, (36, 44, 0)),
     (3, 1, 4, (3, 0, 21)), (3, 2, 6, (3, 42, 315))],
)
def test_searches_return_lex_smallest_witnesses(p, l, m, want):
    # every ordered pair of distinct reduced forms, and three sources that
    # are not reduced (unit digits below l where l > 1), against each
    # form: both searches must return exactly the first hit of the oracle
    # scan, and a strict witness must carry the oracle's kernel value.
    # want counts the pairs joined strictly, weakly only, and not at all
    forms = [f.to_character() for f in enumerate_reduced_forms(p, l, m)]
    rng = random.Random(100 * p + m)
    stray = [chi for chi in enumerate_characters(p, l, m) if not is_reduced(chi)]
    sources = forms + rng.sample(stray, 3)
    strict, weak = lex_scan_witnesses(p, l, m, sources, forms)
    seen = {"strict": 0, "weak only": 0, "miss": 0}
    for s, chi in enumerate(sources):
        for t, psi in enumerate(forms):
            if chi == psi:
                continue
            case = (s, t, str(chi), str(psi))
            w = strict_equiv_search(chi, psi)
            got = None if w is None else (w.element, w.kernel_value)
            assert got == strict.get((s, t)), case
            assert weak_equiv_search(chi, psi) == weak.get((s, t)), case
            kind = "strict" if w else "weak only" if (s, t) in weak else "miss"
            seen[kind] += 1
    assert (seen["strict"], seen["weak only"], seen["miss"]) == want
    # a source with stray digits reaches its own reduced form
    assert all(any((s, t) in strict for t in range(len(forms)))
               for s in range(len(forms), len(sources)))


# ---------------------------------------------------------------------------
# Budget handling.


def test_budget_default_value():
    assert DEFAULT_BUDGET == 1 << 26


def test_budget_refusals():
    chi = parse_character_literal("5:1,15:2", 2)
    psi = parse_character_literal("5:1,11:2,15:2", 2)
    with pytest.raises(BudgetExceeded) as info:
        strict_equiv_search(chi, psi, budget=1000)
    assert info.value.cost == 2**15
    assert info.value.budget == 1000
    assert "32768" in str(info.value)
    with pytest.raises(BudgetExceeded):
        weak_equiv_search(chi, psi, budget=1000)
    with pytest.raises(BudgetExceeded):
        partition_reduced_forms(2, 5, 15, budget=1000)
    with pytest.raises(BudgetExceeded):
        count_classes(2, 5, 15, budget=1000)
    with pytest.raises(BudgetExceeded):
        power_conjugacy_oracle(parse_character_literal("5:1,15:2", 2), 3, budget=1000)


# ---------------------------------------------------------------------------
# Partition reports.


def test_partition_small_cases():
    expected = {(2, 1, 2): 2, (2, 1, 3): 1, (3, 1, 3): 6, (3, 1, 4): 4,
                (2, 3, 6): 2, (2, 3, 7): 2}
    for (p, l, m), want in expected.items():
        rep = partition_reduced_forms(p, l, m)
        assert rep.class_count == want, (p, l, m)
        assert rep.bound == reduced_form_bound(p, l, m)
        assert len(rep.forms) == rep.bound
        assert sum(len(c) for c in rep.classes) == rep.bound
        assert rep.search_space_size == p**m
        for (i, j, elt) in rep.witnesses:
            chk = verify_witness(
                rep.forms[i].to_character(), rep.forms[j].to_character(), elt
            )
            assert chk.ok


def test_partition_merges_everything_at_2_5_15():
    rep = partition_reduced_forms(2, 5, 15)
    assert rep.bound == 4
    assert rep.class_count == 1
    assert rep.classes == ((0, 1, 2, 3),)
    assert rep.representative(0) == rep.forms[0]
    for (i, j, elt) in rep.witnesses:
        assert verify_witness(
            rep.forms[i].to_character(), rep.forms[j].to_character(), elt
        ).ok
    # witnesses chain across the class: compose two into a third
    # equivalence and verify it from scratch
    (i0, j0, e0), (i1, j1, e1) = rep.witnesses[0], rep.witnesses[1]
    if j0 == i1:
        total = nott_compose(e1, e0)
        assert verify_witness(
            rep.forms[i0].to_character(), rep.forms[j1].to_character(), total
        ).ok


def test_partition_report_structure():
    # the report is a plain record of the partition; tests/test_cli.py
    # pins the documents that `classify` builds from it
    rep = partition_reduced_forms(2, 3, 6)
    assert set(ClassReport.__slots__) == {
        "prime", "l", "m", "bound", "class_count", "forms", "classes",
        "witnesses", "search_space_size",
    }
    assert (rep.prime.p, rep.l, rep.m, rep.bound) == (2, 3, 6, 4)
    assert (rep.class_count, rep.search_space_size) == (2, 64)
    assert [str(f.to_character()) for f in rep.forms] == [
        "p=2; 3:1", "p=2; 3:1,5:2", "p=2; 3:3", "p=2; 3:3,5:2",
    ]
    assert rep.classes == ((0, 1), (2, 3))
    assert rep.representative(1) == rep.forms[2]
    assert [(i, j, format_nottingham_product(e)) for i, j, e in rep.witnesses] == [
        (0, 1, "t*(1+t)*(1+t^2)"),
        (2, 3, "t*(1+t)*(1+t^2)"),
    ]


def test_partitions_of_one_type_are_equal_whatever_the_clock(monkeypatch):
    # each read of the clock moves it one second further than the last,
    # so no two timed intervals agree; the library reads no clock, and
    # two partitions of one type compare and hash equal
    clock = functools.partial(next, itertools.accumulate(itertools.count(1)))
    monkeypatch.setattr(time, "perf_counter", clock)
    first, second = partition_reduced_forms(2, 3, 6), partition_reduced_forms(2, 3, 6)
    assert first == second and hash(first) == hash(second)


def naive_partition(p, l, m, strict=True):
    """Oracle: union the reduced forms of <l, m> over every candidate
    (a_1 .. a_(m-1), 0) in lex order, testing each source's kernel value
    with char_eval when strict, acting with char_act, and recording the
    first union of each pair of classes.  Returns (classes, witnesses as
    text)."""
    forms = list(enumerate_reduced_forms(p, l, m))
    chars = [f.to_character() for f in forms]
    index = {chi: i for i, chi in enumerate(chars)}
    label = list(range(len(forms)))
    witnesses = []
    for body in itertools.product(range(p), repeat=m - 1):
        if len(set(label)) == 1:
            break
        u = NottinghamElement(chars[0].prime, UnitSeries(p, [*body, 0]))
        for i, chi in enumerate(chars):
            if strict and char_eval(chi, u.unit) % p:
                continue
            hit = index.get(char_act(u, chi))
            if hit is None or label[hit] == label[i]:
                continue
            old = label[hit]
            label = [label[i] if x == old else x for x in label]
            witnesses.append((i, hit, format_nottingham_product(u)))
    groups = {}
    for i, x in enumerate(label):
        groups.setdefault(x, []).append(i)
    classes = sorted(tuple(g) for g in groups.values())
    return classes, witnesses


def mask_classes(cls):
    """Check the walk's class format, one mask per form, and return the
    classes the masks hold as sorted index tuples, sorted."""
    n = len(cls)
    assert all(cls[i] >> i & 1 for i in range(n))
    for i, k in itertools.product(range(n), repeat=2):
        assert (cls[i] == cls[k]) == bool(cls[i] >> k & 1), (i, k)
    distinct = set(cls)
    assert all(not a & b for a, b in itertools.combinations(distinct, 2))
    assert functools.reduce(int.__or__, distinct) == (1 << n) - 1
    return sorted(tuple(i for i in range(n) if c >> i & 1) for c in distinct)


@pytest.mark.parametrize(
    "p, l, m",
    [(2, 3, 6), (2, 3, 11), (2, 5, 10), (2, 5, 11), (3, 1, 4), (3, 2, 6),
     (3, 1, 7), (3, 2, 8), (2, 3, 9), (2, 5, 13), (5, 1, 5), (5, 1, 6)],
)
def test_partition_visit_order_matches_naive_scan(p, l, m):
    # pins classes and witnesses, in order: the partition prunes prefixes
    # by the kernel test and by the acted values it has compared, and must
    # still record the same first unions as a scan of every candidate
    rep = partition_reduced_forms(p, l, m)
    classes, witnesses = naive_partition(p, l, m)
    assert list(rep.classes) == classes
    assert [
        (i, j, format_nottingham_product(elt)) for i, j, elt in rep.witnesses
    ] == witnesses
    # the weak walk against the scan without the kernel test; its
    # witnesses move the forms, and only the kernel may fail
    forms, cls, found = _join_reduced_forms(as_prime(p), l, m, strict=False)
    classes, witnesses = naive_partition(p, l, m, strict=False)
    assert mask_classes(cls) == classes
    assert [(i, j, format_nottingham_product(elt)) for i, j, elt in found] == witnesses
    for i, j, elt in found:
        check = verify_witness(forms[i].to_character(), forms[j].to_character(), elt)
        assert check.reason in ("ok", "kernel-violation")


@pytest.mark.parametrize(
    "p, l, m",
    [(2, 3, 6), (2, 5, 10), (3, 2, 6), (5, 1, 5),
     (2, 5, 17), (3, 2, 8), (5, 1, 6)],
)
def test_shared_row_matches_per_child_row(p, l, m):
    # fast path against slow oracle: the walk gives each child at depth d
    # its a_d = 0 sibling's acted value at j = m - d plus j * a_d * weight;
    # the oracle builds each child's own row.  The first four types have
    # p | m, where the weight comes from chi(E_(m/p)).
    prime = as_prime(p)
    psq = prime.psq
    coeffs = [f.to_character().coeffs for f in enumerate_reduced_forms(p, l, m)]
    weight = [_basis_value(c, m, p, psq) for c in coeffs]
    rng = random.Random(m * 100 + p)
    for d in range(1, m):
        j = m - d
        if j % p == 0:
            continue
        for _ in range(4):
            z = [1] + [rng.randrange(p) for _ in range(d - 1)]
            base = _action_row(j, _pow_raw(z, j, p, d), p, psq, m).items()
            for a in range(p):
                row = _action_row(j, _pow_raw([*z, a], j, p, d), p, psq, m)
                for c, w in zip(coeffs, weight):
                    fast = (_pairing(base, c, psq) + j * a * w) % psq
                    assert fast == _pairing(row.items(), c, psq)


def test_partition_shares_rows_across_siblings(counted_calls):
    # one power of z per expanded node, plus one per unit-layer test: a
    # row per child would take 38 powers at <5,17> over F_2, strict or
    # weak, where the walk takes 23; at weak <2,10> over F_5 a row per
    # child took 8,380 and shared rows 1,680 before the x_l seed, which
    # brings them to 93
    calls = counted_calls(equivalence, "_pow_raw")
    partition_reduced_forms(2, 5, 17)
    assert len(calls) <= 23
    calls.clear()
    assert weak_class_count(2, 5, 17) == 2
    assert len(calls) <= 23
    calls.clear()
    assert weak_class_count(5, 2, 10) == 20
    assert len(calls) <= 93


@pytest.mark.parametrize("strict, classes", [(True, 36), (False, 12)])
def test_walk_seeds_each_form_with_its_x_l(counted_calls, strict, classes):
    # the action keeps x_l, so each form starts with only the forms that
    # share it; with every form live at the root, <4,26> over F_3 took
    # 303,347 powers of z strict and 961,597 weak, and the seeded walk
    # takes 348 and 409
    calls = counted_calls(equivalence, "_pow_raw")
    _, cls, _ = _join_reduced_forms(as_prime(3), 4, 26, strict=strict)
    assert len(set(cls)) == classes
    assert len(calls) <= 1000


@pytest.mark.parametrize(
    "p, l, m",
    [(2, 3, 9), (2, 5, 13), (2, 7, 15), (2, 9, 27), (3, 2, 8), (3, 4, 13),
     (3, 5, 20), (5, 2, 11), (5, 3, 16), (7, 2, 15)],
)
def test_unit_layer_rejects_only_prefixes_that_miss(p, l, m):
    # fast path against slow oracle: the walk and the pair scans read the
    # acted value mod p at a coprime j < l from a_1 .. a_(l-j) alone, as
    # _row_value on the source's unit digits mod p, and reject the prefix
    # at depth l - j when it is not the target's.  Full extensions of the
    # prefix, acted on by char_act, must take that value at j, so a
    # rejected prefix has no extension that reaches the target.  Sources
    # and targets are reduced forms or general characters of the type.
    prime = as_prime(p)
    rng = random.Random(1000 * p + m)
    forms = [f.to_character() for f in enumerate_reduced_forms(p, l, m)]
    coprime = [j for j in range(1, l) if j % p]
    unit = [0] * l + [1]
    rejected = 0
    for _ in range(24):
        chi, psi = (
            rng.choice(forms) if rng.random() < 0.5 else _random_character_of_type(rng, p, l, m)
            for _ in range(2)
        )
        xdig = [chi.value(k) % p for k in range(l + 1)]
        j = rng.choice(coprime)
        z = [1] + [rng.randrange(p) for _ in range(l - j)]
        value = _row_value(j, _pow_raw(z, j, p, l - j), xdig, p, p, l)
        # the walk's form for reduced sources, and the pair scans' head rows
        if is_reduced(chi):
            assert value == xdig[l] * _row_value(j, _pow_raw(z, j, p, l - j), unit, p, p, l) % p
        head = z + [rng.randrange(p) for _ in range(j)]
        rows = dict(_action_rows(head, p, l))
        assert _row_value(j, rows[j], xdig, p, p, l) == value
        rejects = value != psi.value(j) % p
        rejected += rejects
        for _ in range(4):
            tail = [rng.randrange(p) for _ in range(m - l + j)]
            acted = char_act(NottinghamElement.from_unit_coeffs(prime, [*z[1:], *tail]), chi)
            assert acted.value(j) % p == value
            if rejects:
                assert acted.value(j) % p != psi.value(j) % p
    assert rejected


def test_walk_prunes_by_the_unit_layer(counted_calls):
    # the walk's shared rows are its only strips; comparing the unit layer
    # only at depth m - j, strict <5,17> over F_2 stripped 1,104 of them,
    # and testing it at depth l - j leaves 15
    calls = counted_calls(equivalence, "_strip_run")
    assert count_classes(2, 5, 17) == 2
    assert len(calls) <= 50


@pytest.mark.parametrize(
    "p, l, m, strict, classes, unions, digest",
    [(2, 9, 19, True, 4, 12,
      "5c7d7f7b0d84f0f9b63ebcb2e5789da93bd08f8af2cc7d42113d3a4a6b8bebb3"),
     (3, 4, 13, True, 12, 24,
      "b7edb2a8cb2d4c407947c2dbe05398f2e4029d2151b3f4ceeecc5d1b7adb6aaa"),
     (5, 2, 10, False, 20, 80,
      "2e08b14094f0f48f5e0249933cc64ed7d5d2604935b75a31f94ce7fa86469409"),
     # 512 forms joined by 511 unions, each of which rewrites the members
     # of the two classes it joins
     (2, 17, 34, False, 1, 511,
      "85c5ed6356b95125caa9ee197df83fa1bf8d16120ea1a342f4ece53af2585ebb"),
     # p >= 3 types pinned from the walk before its x_l seed, which must
     # leave the union order as it was
     (3, 4, 20, True, 36, 72,
      "b3f5c0a4ad46af895d2dadca7cf268290d790ac3838e29afa4d8107586ba5cd2"),
     (3, 4, 14, False, 12, 96,
      "b52c04484ca7229475fec9f0cc473ffbb5a4be3092df428b6d8cce130c902f6e"),
     (5, 2, 11, False, 16, 64,
      "7712e0ee25e98f23856eb70ebf93bbe97a011ab82dcdbb1e0346dc8c7329f750"),
     (7, 2, 15, False, 36, 216,
      "80c9c9318a42707f86153e0e86728068a8913dbe291d0768578015ad91cc7ca6")],
    ids=["strict-2-9-19", "strict-3-4-13", "weak-5-2-10", "weak-2-17-34",
         "strict-3-4-20", "weak-3-4-14", "weak-5-2-11", "weak-7-2-15"],
)
def test_partition_union_order_past_the_naive_scan(p, l, m, strict, classes, unions, digest):
    # types too large for naive_partition: the class count, the unions and
    # the witness texts in union order are pinned from earlier walks
    _, cls, found = _join_reduced_forms(as_prime(p), l, m, strict=strict)
    text = "\n".join("%d %d %s" % (i, k, format_nottingham_product(e)) for i, k, e in found)
    assert len(set(cls)) == classes
    mask_classes(cls)
    assert len(found) == unions
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "p, l, m, want",
    [(3, 4, 14, 36), (3, 4, 20, 36), (3, 5, 20, 36), (2, 9, 27, 4), (2, 11, 29, 2),
     (3, 4, 26, 36), (3, 4, 44, 36), (3, 7, 29, 108)],
)
def test_class_counts_with_an_explicit_budget(p, l, m, want):
    # l >= p types whose nominal p^m cost the default budget refuses, but
    # for <4,14>; the walk prunes each to under a second, so they run
    # with the budget set to p^m.  Every merge carries a checked witness
    rep = partition_reduced_forms(p, l, m, budget=p**m)
    assert rep.class_count == want
    for (i, j, elt) in rep.witnesses:
        assert verify_witness(
            rep.forms[i].to_character(), rep.forms[j].to_character(), elt
        ).ok


@pytest.mark.parametrize(
    "mask, members",
    [(0, ()), (0b1011, (0, 1, 3)), (1 << 300 | 1, (0, 300))],
)
def test_members_lists_the_set_bits_ascending(mask, members):
    assert tuple(_members(mask)) == members


def test_walk_root_memory_when_p_divides_m():
    # 5 | 10, so the root compares no value and keeps every source live;
    # on a first call, a tuple per (source, target) pair peaked at 1,566 KB
    # and a mask per source peaks at about 180 KB
    tracemalloc.start()
    try:
        assert weak_class_count(5, 2, 10) == 20
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


@pytest.mark.parametrize(
    "l, m, want",
    [(3, 9, 2), (3, 11, 1), (3, 13, 2),
     (5, 13, 2), (5, 15, 1), (5, 17, 2), (5, 19, 1),
     (7, 15, 2), (7, 17, 2), (7, 19, 3)],
)
def test_class_counts_at_or_above_p_over_f2(l, m, want):
    # for l >= p the paper proves only d <= B; these counts are complete
    # search results, and every merge carries a checked witness
    rep = partition_reduced_forms(2, l, m)
    assert rep.class_count == want
    assert rep.class_count <= rep.bound
    for (i, j, elt) in rep.witnesses:
        assert verify_witness(
            rep.forms[i].to_character(), rep.forms[j].to_character(), elt
        ).ok


def _chi():
    return Character(3, {1: 1, 2: 3, 4: 3})


def _witness_check():
    form, w = reduce(_chi())
    return verify_witness(_chi(), form.to_character(), w)


# name -> (build, slot): each call of build() makes a new instance, all
# of them equal
RECORDS = {
    "Prime": (lambda: Prime(3), "p"),
    "UnitSeries": (lambda: UnitSeries(3, (1, 2, 0, 1)), "coeffs"),
    "NottinghamElement": (
        lambda: NottinghamElement.from_unit_coeffs(3, (1, 2, 0, 1)), "unit"),
    "ExponentVector": (lambda: ExponentVector(3, 5, {1: 4, 4: 2}), "exps"),
    "Character": (_chi, "coeffs"),
    "CharType": (lambda: CharType(1, 4), "l"),
    "StandardExpansion": (lambda: standard_expansion(_chi()), "x"),
    "ReducedForm": (lambda: ReducedForm(3, 1, 4, 1, {4: 1}), "b"),
    "Witness": (lambda: reduce(_chi())[1], "kernel_value"),
    "WitnessCheck": (_witness_check, "ok"),
    "ClassReport": (lambda: partition_reduced_forms(2, 3, 6), "class_count"),
    "CriterionResult": (lambda: CriterionResult(3, "title", [(True, "x")]), "passed"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_returned_records_are_values(name):
    build, slot = RECORDS[name]
    value, twin = build(), build()
    assert type(value).__name__ == name and twin is not value
    with pytest.raises(AttributeError):
        setattr(value, slot, getattr(twin, slot))
    with pytest.raises(AttributeError):
        delattr(value, slot)
    assert value == twin and hash(value) == hash(twin)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert clone == value and hash(clone) == hash(value)


# name -> build: one sample of each exception class the library defines
EXCEPTIONS = {
    "ParseError": lambda: ParseError("repeated index 4", 7),
    "BudgetExceeded": lambda: BudgetExceeded(3, 40, 100),
}


def _library_exceptions():
    """name -> class of every Exception subclass defined in a module of
    the package."""
    found = {}
    for info in pkgutil.iter_modules(nottorsion.__path__):
        module = importlib.import_module("nottorsion." + info.name)
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, Exception)
                    and value.__module__ == module.__name__):
                found[name] = value
    return found


def test_library_exceptions_survive_pickling():
    # a worker process hands its exception back pickled, so each one
    # must come back with the same message and attributes; a class
    # without a sample here fails
    found = _library_exceptions()
    assert sorted(found) == sorted(EXCEPTIONS)
    for name, cls in found.items():
        exc = EXCEPTIONS[name]()
        assert type(exc) is cls
        for clone in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
            assert type(clone) is cls and clone is not exc
            assert (str(clone), clone.args, vars(clone)) == (str(exc), exc.args, vars(exc))


# ---------------------------------------------------------------------------
# Class counting and closed forms.


def test_count_classes_equal_distinct_reduce_results():
    cases = {(2, 1, 2): 2, (2, 1, 3): 1, (2, 1, 5): 1, (3, 1, 3): 6,
             (3, 1, 4): 4, (3, 1, 5): 12, (3, 2, 7): 12}
    for (p, l, m), want in cases.items():
        # reduce reaches every reduced form, and below p each is a class
        canonical = {reduce(chi)[0] for chi in enumerate_characters(p, l, m)}
        assert len(canonical) == want
        assert count_classes(p, l, m) == want


def test_count_classes_rejects_invalid_type():
    with pytest.raises(ValueError):
        count_classes(3, 2, 5)  # invalid type


def test_bound_matches_enumeration():
    for p, l, m in [(2, 1, 2), (2, 1, 3), (2, 3, 6), (2, 3, 7), (2, 5, 15),
                    (3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 2, 6), (3, 2, 7),
                    (3, 2, 8), (5, 1, 5), (5, 1, 6)]:
        forms = sum(1 for _ in enumerate_reduced_forms(p, l, m))
        assert reduced_form_bound(p, l, m) == forms, (p, l, m)


def test_bound_frozen_values():
    assert reduced_form_bound(2, 5, 15) == 4
    assert reduced_form_bound(3, 2, 7) == 12
    assert reduced_form_bound(3, 1, 3) == 6
    assert reduced_form_bound(3, 1, 4) == 4
    assert reduced_form_bound(2, 3, 6) == 4
    assert reduced_form_bound(3, 1, 5) == 12
    assert reduced_form_bound(5, 1, 5) == 20


def test_bound_exponents():
    assert bound_exponents(2, 5, 15) == (2, 2)
    assert bound_exponents(3, 2, 6) == (2, 1)
    assert bound_exponents(3, 2, 7) == (1, 2)
    assert bound_exponents(3, 1, 4) == (0, 2)
    p, k, eps = 3, *bound_exponents(3, 2, 8)
    assert reduced_form_bound(3, 2, 8) == p**k * (p - 1) ** eps


def test_class_count_never_exceeds_bound():
    for p, l, m in [(2, 1, 2), (2, 1, 3), (2, 3, 6), (2, 3, 7), (3, 1, 3),
                    (3, 1, 4), (3, 2, 6)]:
        assert count_classes(p, l, m) <= reduced_form_bound(p, l, m)


def test_equality_with_bound_below_p():
    # below p the reduced form is canonical, so the count meets the bound
    for p, l, m in [(2, 1, 2), (2, 1, 3), (3, 1, 3), (3, 1, 4), (3, 2, 6),
                    (3, 2, 7), (3, 2, 8)]:
        if l < p:
            assert count_classes(p, l, m) == reduced_form_bound(p, l, m)


def test_legacy_closed_forms():
    assert order_p_class_count(2) == 1
    assert order_p_class_count(3) == 2
    assert order_p_class_count(7) == 6
    # depth-1 strict counts, piecewise in m mod p
    assert type_1m_class_count(3, 3) == 6
    assert type_1m_class_count(3, 4) == 4
    assert type_1m_class_count(3, 5) == 12
    assert type_1m_class_count(2, 2) == 2
    assert type_1m_class_count(2, 3) == 1
    # depth-2 weak counts follow the same shape
    assert type_2m_weak_class_count(3, 6) == 6
    assert type_2m_weak_class_count(3, 7) == 4
    assert type_2m_weak_class_count(3, 8) == 12
    assert type_1m_class_count(3, 7) == 4
    with pytest.raises(ValueError):
        type_1m_class_count(3, 6)  # 6 is not a valid full depth at l=1
    with pytest.raises(ValueError):
        type_2m_weak_class_count(2, 7)  # depth 2 needs p odd: 2 | l


def test_type_1m_matches_count():
    for p, m in [(2, 2), (2, 3), (2, 5), (3, 3), (3, 4), (3, 5)]:
        assert type_1m_class_count(p, m) == count_classes(p, 1, m)


def test_weak_class_counts():
    assert weak_class_count(3, 2, 6) == 6
    assert weak_class_count(3, 2, 7) == 4
    assert weak_class_count(3, 2, 8) == 12
    assert weak_class_count(2, 3, 6) == 1
    assert weak_class_count(2, 3, 7) == 2
    for p, m in [(3, 6), (3, 7), (3, 8)]:
        assert weak_class_count(p, 2, m) == type_2m_weak_class_count(p, m)


def orbit_weak_class_count(p, l, m):
    """Oracle: number of weak classes of type <l, m>, by explicit orbit
    counting over every character of the type.

    The action on characters of bound m factors through the group
    generated by the elementary elements t(1 + c t^k) with k < m, and the
    action of a fixed element is linear in the character values, so each
    generator acts through a small matrix of basis decompositions.
    Orbits are computed by union-find over all characters of the type.
    """
    prime = as_prime(p)
    p = prime.p
    chars = list(enumerate_characters(prime, l, m))
    scanner = _ActionScanner(prime, m)
    # each character's value vector over the coprime indices, the key
    # apply_matrix returns, to its position in chars
    cop = [j for j in range(1, m + 1) if j % p]
    index_of = {tuple(c.value(j) for j in cop): i for i, c in enumerate(chars)}
    # generator action matrices: for each generator t(1+c t^k), the basis
    # decomposition of E_j o g at every coprime j
    matrices = []
    for k in range(1, m):
        for c in range(1, p):
            z = [0] * (m + 1)
            z[0] = 1
            z[k] = c
            matrices.append(scanner.action_matrix(z))
    parent = list(range(len(chars)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, chi in enumerate(chars):
        for mat in matrices:
            parent[find(index_of[scanner.apply_matrix(mat, chi.coeffs)])] = find(i)
    return len({find(i) for i in range(len(chars))})


def sigma_weak_class_count(p, l, m):
    """Weak class count from the strict partition and the move
    s = t(1 + t^l): w = fix(sigma) + (d - fix(sigma))/p, where sigma sends
    the class of f to that of reduce(f o s).

    Checks on the way that each step's element, s followed by the
    reduction's witness, moves f onto the reduced form under char_act,
    and that sigma is a permutation of the d classes with sigma^p = 1.
    """
    rep = partition_reduced_forms(p, l, m, budget=p**m)
    class_of = {rep.forms[i]: k for k, members in enumerate(rep.classes) for i in members}
    s = NottinghamElement.from_unit_coeffs(p, [0] * (l - 1) + [1] + [0] * (m - l))
    sigma = []
    for k in range(rep.class_count):
        f = rep.representative(k).to_character()
        form, w = reduce(char_act(s, f))
        assert char_act(nott_compose(w.element, s), f) == form.to_character()
        sigma.append(class_of[form])
    d = rep.class_count
    assert sorted(sigma) == list(range(d))
    power = list(range(d))
    for _ in range(p):
        power = [sigma[k] for k in power]
    assert power == list(range(d))
    fixed = sum(k == image for k, image in enumerate(sigma))
    return fixed + (d - fixed) // p


@pytest.mark.parametrize(
    "p, l, m",
    [(3, 2, 6), (3, 2, 7), (3, 2, 8), (3, 2, 10), (3, 1, 4), (3, 1, 5),
     (5, 1, 6), (2, 3, 6), (2, 3, 7), (2, 5, 15),
     # l >= p: deep F_2 types, where the walk, with no kernel test to
     # prune by, is slowest
     (2, 3, 9), (2, 5, 13), (2, 7, 15)],
)
def test_weak_class_count_matches_orbit_oracle(p, l, m):
    # the walk counts the weak classes of the reduced forms; the oracle
    # counts the orbits of every character under the generators, and
    # sigma's orbits on the strict classes give the same count
    want = orbit_weak_class_count(p, l, m)
    assert weak_class_count(p, l, m) == want
    assert sigma_weak_class_count(p, l, m) == want


@pytest.mark.parametrize(
    "p, l, m",
    [(3, 4, 13), (3, 4, 14), (3, 5, 16), (5, 2, 10), (5, 2, 11), (7, 2, 15)],
)
def test_weak_classes_are_the_orbits_of_s_on_strict_classes(p, l, m):
    # types past the orbit oracle's reach: each step of sigma, s followed
    # by reduce's witness, moves f onto the reduced form, and sigma's
    # orbits on the strict classes are the walk's weak classes
    assert sigma_weak_class_count(p, l, m) == weak_class_count(p, l, m)


@pytest.mark.parametrize("m, want", [(10, 20), (11, 16), (12, 80)])
def test_published_depth_2_weak_counts_over_f5(m, want):
    # one type per branch of the piecewise count: m = 0, 1 and 2 mod 5;
    # these types have 7.8M to 156M characters, out of the oracle's reach
    assert type_2m_weak_class_count(5, m) == want
    assert weak_class_count(5, 2, m) == want


@pytest.mark.parametrize("m, want", [(14, 42), (15, 36), (16, 252)])
def test_published_depth_2_weak_counts_over_f7(m, want):
    # the F_7 rows of the same table: 0.58 to 24 trillion characters, and
    # the unit layer prunes six digits a_1 in seven at depth one
    assert type_2m_weak_class_count(7, m) == want
    assert weak_class_count(7, 2, m) == want


def test_weak_counts_against_pairwise_search():
    # independent check: weak-partition the reduced forms of <2,7> and
    # <2,8> by pairwise search and compare class counts of the quotient;
    # <2,8> is where criterion 3 needs weak = 12 (p*weak = 36 > bound 12)
    for m in (7, 8):
        forms = [rf.to_character() for rf in enumerate_reduced_forms(3, 2, m)]
        parent = list(range(len(forms)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(forms)):
            for j in range(i + 1, len(forms)):
                if find(i) != find(j) and weak_equiv_search(forms[i], forms[j]) is not None:
                    parent[find(j)] = find(i)
        classes = len({find(i) for i in range(len(forms))})
        assert classes == type_2m_weak_class_count(3, m), m


def test_weak_never_exceeds_strict():
    for p, l, m in [(2, 3, 6), (2, 3, 7), (3, 2, 6), (3, 2, 7), (3, 1, 4)]:
        assert weak_class_count(p, l, m) <= count_classes(p, l, m)


def test_pair_searches_agree_with_partition():
    # every ordered pair of distinct reduced forms: the strict search finds
    # a witness exactly when the partition puts both in one class, the weak
    # search exactly when the weak walk joins them
    counts = {"strict": 0, "weak only": 0, "miss": 0}
    for p, l, m in [(2, 3, 6), (2, 3, 7), (2, 3, 9), (2, 5, 10), (2, 5, 11),
                    (3, 1, 4), (3, 1, 5)]:
        rep = partition_reduced_forms(p, l, m)
        strict_class = {i: c for c, cls in enumerate(rep.classes) for i in cls}
        _, weak_label, _ = _join_reduced_forms(as_prime(p), l, m, strict=False)
        chars = [f.to_character() for f in rep.forms]
        for i, j in itertools.permutations(range(len(chars)), 2):
            chi, psi = chars[i], chars[j]
            case = (p, l, m, i, j)
            w = strict_equiv_search(chi, psi)
            assert (w is not None) == (strict_class[i] == strict_class[j]), case
            if w is not None:
                assert verify_witness(chi, psi, w).ok, case
            elt = weak_equiv_search(chi, psi)
            joined = weak_label[i] == weak_label[j]
            assert (elt is not None) == joined, case
            if elt is not None:
                assert verify_witness(chi, psi, elt).reason in ("ok", "kernel-violation"), case
            kind = "strict" if w is not None else "weak only" if joined else "miss"
            counts[kind] += 1
    assert counts == {"strict": 28, "weak only": 64, "miss": 136}


# ---------------------------------------------------------------------------
# Power conjugacy.


def test_power_conjugacy_criterion_table():
    assert power_conjugacy_criterion(3, 1, 4, 4)
    assert not power_conjugacy_criterion(3, 1, 4, 2)
    assert not power_conjugacy_criterion(3, 1, 4, 3 * 2)  # n=6 = 0 mod 3
    assert power_conjugacy_criterion(2, 3, 7, 3)
    # the doubled-depth shape over F_2 is the lone exception
    assert not power_conjugacy_criterion(2, 3, 6, 3)
    assert not power_conjugacy_criterion(2, 1, 2, 3)
    assert power_conjugacy_criterion(2, 1, 3, 5)
    with pytest.raises(ValueError):
        power_conjugacy_criterion(3, 2, 5, 4)


def test_power_conjugacy_oracle_examples():
    chi = parse_character_literal("1:1,4:3", 3)
    found, w = power_conjugacy_oracle(chi, 4)
    assert found and verify_witness(chi, scalar_mul(4, chi), w).ok
    found, w = power_conjugacy_oracle(chi, 2)
    assert not found and w is None

    chi = parse_character_literal("3:1,7:2", 2)
    found, w = power_conjugacy_oracle(chi, 3)
    assert found
    assert w.to_text() == "t*(1+t^4)"
    assert verify_witness(chi, scalar_mul(3, chi), w).ok


def test_power_conjugacy_oracle_agrees_with_criterion():
    rng = random.Random(401)
    for p, l, m in [(2, 1, 2), (2, 1, 3), (2, 3, 6), (2, 3, 7), (3, 1, 3), (3, 1, 4)]:
        pool = list(enumerate_characters(p, l, m))
        ns = [3] if p == 2 else [2, 4]
        for chi in rng.sample(pool, min(6, len(pool))):
            for n in ns:
                if scalar_mul(n, chi) == chi:
                    continue
                found, w = power_conjugacy_oracle(chi, n)
                assert found == power_conjugacy_criterion(p, l, m, n), (p, l, m, n)
                if found:
                    assert verify_witness(chi, scalar_mul(n, chi), w).ok


def test_power_conjugacy_oracle_preconditions():
    chi = parse_character_literal("1:1,4:3", 3)
    with pytest.raises(ValueError):
        power_conjugacy_oracle(chi, 3)  # n divisible by p
    with pytest.raises(ValueError):
        power_conjugacy_oracle(chi, 1)  # scalar multiple equals chi
    with pytest.raises(ValueError):
        power_conjugacy_oracle(Character(3, {1: 3}), 2)  # not surjective
