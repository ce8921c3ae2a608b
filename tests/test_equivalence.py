"""Equivalence search, class counting, and conjugacy tests.

Brute-force results are cross-checked two ways where feasible: against
the closed-form count and against a naive in-test scan over the full
candidate space.
"""

import itertools
import json
import random

import pytest

from nottorsion.characters import (
    Character,
    break_sequence,
    char_act,
    char_eval,
    enumerate_characters,
    enumerate_reduced_forms,
    parse_character_literal,
    scalar_mul,
)
from nottorsion.equivalence import (
    DEFAULT_BUDGET,
    BudgetExceeded,
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
    NottinghamElement,
    UnitSeries,
    format_nottingham_product,
    nott_compose,
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
    rep = partition_reduced_forms(2, 3, 6)
    assert rep.classes == ((0, 1), (2, 3))
    data = rep.to_json_dict()
    json.dumps(data)  # serializable
    assert data["p"] == 2 and data["l"] == 3 and data["m"] == 6
    assert data["class_count"] == 2
    assert len(data["classes"]) == 2
    first = data["classes"][0]
    assert first["representative"] == "3:1"
    assert [m["character"] for m in first["members"]] == ["3:1", "3:1,5:2"]
    assert rep.runtime_ms >= 0


def naive_partition(p, l, m):
    """Oracle: union the reduced forms of <l, m> over every candidate
    (a_1 .. a_(m-1), 0) in lex order, testing each source's kernel value
    with char_eval, acting with char_act, and recording the first union
    of each pair of classes.  Returns (classes, witnesses as text)."""
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
            if char_eval(chi, u.unit) % p:
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


@pytest.mark.parametrize(
    "p, l, m", [(2, 3, 6), (2, 3, 11), (2, 5, 10), (2, 5, 11), (3, 1, 4), (3, 2, 6)]
)
def test_partition_visit_order_matches_naive_scan(p, l, m):
    # pins classes and witnesses, in order: the partition tests the kernel
    # once per length-l prefix and must still record the same first unions
    rep = partition_reduced_forms(p, l, m)
    classes, witnesses = naive_partition(p, l, m)
    assert list(rep.classes) == classes
    assert [
        (i, j, format_nottingham_product(elt)) for i, j, elt in rep.witnesses
    ] == witnesses


def test_partition_report_immutable():
    rep = partition_reduced_forms(2, 1, 2)
    with pytest.raises(AttributeError):
        rep.class_count = 7


# ---------------------------------------------------------------------------
# Class counting and closed forms.


def test_count_classes_methods_agree():
    cases = {(2, 1, 2): 2, (2, 1, 3): 1, (2, 1, 5): 1, (3, 1, 3): 6,
             (3, 1, 4): 4, (3, 1, 5): 12, (3, 2, 7): 12}
    for (p, l, m), want in cases.items():
        # reduce reaches every reduced form, and below p each is a class
        canonical = {reduce(chi)[0] for chi in enumerate_characters(p, l, m)}
        assert len(canonical) == want
        assert count_classes(p, l, m) == want


def test_count_classes_bad_method_and_domain():
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
