"""Character layer tests.

Numeric expectations are either trivially hand-checkable, derived in the
test from an independent oracle (product count formulas, explicit digit
arithmetic), or frozen from computations done with the series layer
directly.
"""

import itertools
import random

import pytest

from nottorsion.characters import (
    Character,
    CharType,
    ReducedForm,
    _basis_value,
    _type_choice_lists,
    _weights,
    break_sequence,
    char_act,
    char_eval,
    character_count,
    enumerate_characters,
    enumerate_reduced_forms,
    format_character_literal,
    is_reduced,
    parse_character_literal,
    require_valid_type,
    scalar_mul,
    standard_expansion,
    validate_type,
    window_indices,
)
from nottorsion.equivalence import _ActionScanner
from nottorsion.series import (
    NottinghamElement,
    ParseError,
    UnitSeries,
    nott_compose,
    parse_nottingham,
    parse_unit,
    unit_decompose,
    unit_mul,
    unit_subst,
)


def random_character(rng, p, l, m):
    pool = list(enumerate_characters(p, l, m))
    return pool[rng.randrange(len(pool))]


def random_elt(rng, p, n):
    return NottinghamElement.from_unit_coeffs(p, [rng.randrange(p) for _ in range(n)])


# ---------------------------------------------------------------------------
# Character container.


def test_character_basics():
    chi = Character(2, {5: 1, 15: 2, 7: 0})
    assert chi.support == (5, 15)
    assert chi.value(5) == 1 and chi.value(7) == 0 and chi.value(9) == 0
    assert chi.is_surjective
    assert str(chi) == "p=2; 5:1,15:2"


def test_character_validation():
    with pytest.raises(ValueError):
        Character(2, {4: 1})  # index divisible by p
    with pytest.raises(ValueError):
        Character(3, {0: 1})
    # constructor values are ring elements and normalize mod p^2
    assert Character(2, {3: 4}) == Character(2, {})
    assert Character(3, {1: -1}) == Character(3, {1: 8})


def test_character_bound():
    assert Character(2, {}).bound == 1
    assert Character(2, {1: 2}).bound == 1  # no unit values, support max 1
    assert Character(3, {1: 1}).bound == 3
    assert Character(3, {2: 1, 7: 3}).bound == 7
    assert Character(2, {5: 1}).bound == 10
    assert Character(2, {5: 2, 7: 2}).bound == 7


def test_character_hash_and_eq():
    a = Character(2, {5: 1, 15: 2})
    b = Character(2, {15: 2, 5: 1, 3: 0})
    assert a == b and hash(a) == hash(b)
    assert a != Character(2, {5: 1})
    assert len({a, b}) == 1


def test_character_stores_no_sort_key():
    # the record holds its prime and its values; the order in which the
    # values were given does not reach equality, hashing or repr
    assert Character.__slots__ == ("prime", "coeffs")
    items = [(1, 4), (2, 3), (4, 6), (5, 1)]
    chars = [Character(3, dict(order)) for order in itertools.permutations(items)]
    assert len(chars) == 24
    for chi in chars:
        assert chi == chars[0] and hash(chi) == hash(chars[0])
        assert repr(chi) == "Character(p=3, {1: 4, 2: 3, 4: 6, 5: 1})"


# ---------------------------------------------------------------------------
# Types and break sequences.


def test_validate_type_table():
    true_cases = [(2, 5, 15), (3, 2, 6), (3, 2, 7), (3, 2, 8), (2, 1, 2),
                  (2, 1, 3), (3, 1, 3), (3, 1, 4), (2, 3, 6), (5, 1, 5)]
    false_cases = [(2, 5, 14), (2, 5, 9), (2, 4, 8), (3, 3, 9), (3, 2, 5),
                   (3, 2, 9), (2, 1, 1), (3, 1, 2), (2, 0, 2), (3, -1, 3),
                   (2, 1, 0), (5, 1, -5)]
    for p, l, m in true_cases:
        assert validate_type(p, l, m), (p, l, m)
        assert require_valid_type(p, l, m) == CharType(l, m)
    for p, l, m in false_cases:
        assert not validate_type(p, l, m), (p, l, m)
        with pytest.raises(ValueError):
            require_valid_type(p, l, m)


def test_char_type_is_a_named_pair():
    ct = require_valid_type(3, 2.0, 7)
    assert repr(ct) == "CharType(l=2, m=7)"
    assert ct == (2, 7) and hash(ct) == hash((2, 7))
    assert (ct.l, ct.m) == (2, 7) and type(ct.l) is int


def test_break_sequence_examples():
    assert break_sequence(parse_character_literal("5:1,15:2", 2)) == (5, 15)
    assert break_sequence(parse_character_literal("2:1,7:3", 3)) == (2, 7)
    assert break_sequence(parse_character_literal("1:1,4:3", 3)) == (1, 4)
    # m floors at p*l even when the support stops earlier
    assert break_sequence(parse_character_literal("2:1", 3)) == (2, 6)


def test_break_sequence_requires_surjective():
    with pytest.raises(ValueError):
        break_sequence(Character(3, {1: 3}))
    with pytest.raises(ValueError):
        break_sequence(Character(3, {}))


def test_break_sequence_always_valid_type():
    rng = random.Random(201)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        coeffs = {}
        for j in range(1, rng.randrange(2, 14)):
            if j % p and rng.randrange(3) == 0:
                coeffs[j] = rng.randrange(p * p)
        chi = Character(p, coeffs)
        if not chi.is_surjective:
            continue
        l, m = break_sequence(chi)
        assert validate_type(p, l, m)
        assert chi.value(l) % p != 0
        assert all(chi.value(j) % p == 0 for j in chi.support if j > l)


def test_window_indices():
    assert window_indices(2, 5, 15) == (11, 13, 15)
    assert window_indices(3, 2, 7) == (5, 7)
    assert window_indices(3, 2, 6) == (4, 5)
    assert window_indices(2, 1, 2) == (1,)


# ---------------------------------------------------------------------------
# Standard expansion.


def test_standard_expansion_digits():
    chi = parse_character_literal("1:1,2:5,7:3", 3)
    se = standard_expansion(chi)
    assert se.char_type == (2, 7)
    assert se.x == {1: 1, 2: 2}
    assert se.a == {2: 1, 7: 1}
    assert se.to_character() == chi


def test_standard_expansion_roundtrip():
    rng = random.Random(202)
    for _ in range(200):
        p = rng.choice([2, 3])
        l, m = rng.choice([(1, p), (1, p + 1 if (p + 1) % p else p + 2), (2, 2 * p)])
        if not validate_type(p, l, m):
            continue
        chi = random_character(rng, p, l, m)
        se = standard_expansion(chi)
        assert se.to_character() == chi
        assert all(1 <= v < p for v in se.x.values())
        assert all(1 <= v < p for v in se.a.values())


# ---------------------------------------------------------------------------
# Evaluation.


def test_char_eval_on_basis_units():
    chi = parse_character_literal("5:1,15:2", 2)
    n = chi.bound
    assert char_eval(chi, UnitSeries.basis(2, 5, n)) == 1
    assert char_eval(chi, UnitSeries.basis(2, 15, n)) == 2
    assert char_eval(chi, UnitSeries.basis(2, 11, n)) == 0
    # E_10 = E_5^2, so it picks up 2 * c_5
    assert char_eval(chi, UnitSeries.basis(2, 10, n)) == 2


def test_basis_value_matches_decomposition():
    # the closed form for chi(E_v) against stripping E_v itself, at every
    # v up to the bound: c_v when p does not divide v, p * c_(v/p) when p
    # exactly divides v, 0 when p^2 divides v
    rng = random.Random(205)
    seen = set()
    for p in (2, 3, 5, 7):
        psq = p * p
        for _ in range(5):
            top = rng.randrange(2, 3 * p + 4)
            chi = Character(p, {j: rng.randrange(psq) for j in range(1, top + 1) if j % p})
            for v in range(1, chi.bound + 1):
                want = char_eval(chi, UnitSeries.basis(p, v, chi.bound))
                assert _basis_value(chi.coeffs, v, p, psq) == want, (p, v, str(chi))
                seen.add((p, v))
    assert {(2, 4), (2, 8), (3, 9), (5, 25), (7, 49)} <= seen


def test_char_eval_composite_argument():
    # 1 + t^5 + t^10 = (1+t^5)^3 * (1+t^15) mod t^16, so the value is
    # 3*c_5 + c_15 = 3 + 2 = 5 = 1 mod 4
    chi = parse_character_literal("5:1,15:2", 2)
    f = parse_unit("1+t^5+t^10", 2, 15)
    assert char_eval(chi, f) == 1


def test_char_eval_is_additive():
    rng = random.Random(203)
    for _ in range(150):
        p = rng.choice([2, 3])
        chi = random_character(rng, p, 2, 2 * p + 1) if validate_type(p, 2, 2 * p + 1) else random_character(rng, p, 1, p)
        n = chi.bound
        f = UnitSeries(p, [rng.randrange(p) for _ in range(n)])
        g = UnitSeries(p, [rng.randrange(p) for _ in range(n)])
        assert char_eval(chi, unit_mul(f, g)) == (char_eval(chi, f) + char_eval(chi, g)) % p**2


def test_char_eval_precision_guard():
    chi = parse_character_literal("5:1,15:2", 2)
    with pytest.raises(ValueError):
        char_eval(chi, parse_unit("1+t^5", 2, 14))
    with pytest.raises(ValueError):
        char_eval(chi, parse_unit("1+t^5", 3, 15))


# ---------------------------------------------------------------------------
# Action.


def test_act_by_identity():
    chi = parse_character_literal("2:1,5:3,7:3", 3)
    assert char_act(NottinghamElement.identity(3, chi.bound), chi) == chi


def test_act_example():
    # u = t*(1+t^3+t^4) sends 1+t^11 to a unit whose value under
    # 5:1,15:2 is 2; frozen from a direct series computation
    chi = parse_character_literal("5:1,15:2", 2)
    u = parse_nottingham("t*(1+t^3+t^4)", 2, 15)
    acted = char_act(u, chi)
    assert acted.value(11) == 2
    assert acted.value(5) == 1


def test_act_matches_eval():
    # acted(E_j) must agree with direct evaluation of chi at E_j o u, at
    # every coprime j; the search scanner shares char_act's action rows,
    # so its matrix and its match test are held to the same oracle.  The
    # expected values pair chi with the exponents here, not through
    # char_eval, which shares its pairing with the three paths under test
    rng = random.Random(204)
    cases = [parse_character_literal("2:1,5:3,7:3", 3)]
    for p, l, m in [(2, 5, 15), (3, 2, 8), (5, 1, 6)]:
        pool = list(enumerate_characters(p, l, m))
        cases += [pool[rng.randrange(len(pool))] for _ in range(3)]
    for chi in cases:
        p, n, psq = chi.prime.p, chi.bound, chi.prime.psq
        cop = [j for j in range(1, n + 1) if j % p]
        scanner = _ActionScanner(chi.prime, n)
        for _ in range(15):
            u = random_elt(rng, p, n)
            direct = tuple(
                sum(
                    e * chi.value(k)
                    for k, e in unit_decompose(
                        unit_subst(UnitSeries.basis(p, j, n), u), n
                    ).exps.items()
                )
                % psq
                for j in cop
            )
            acted = char_act(u, chi)
            assert tuple(acted.value(j) for j in cop) == direct
            z = u.unit._raw()
            assert scanner.apply_matrix(scanner.action_matrix(z), chi.coeffs) == direct
            weights = _weights(chi.coeffs, p, psq, n)
            assert scanner.matches(z, weights, acted.coeffs)


def test_act_is_contravariant_composition():
    rng = random.Random(205)
    chi = parse_character_literal("2:1,7:3", 3)
    n = chi.bound
    for _ in range(60):
        u, v = random_elt(rng, 3, n), random_elt(rng, 3, n)
        assert char_act(nott_compose(u, v), chi) == char_act(u, char_act(v, chi))


def test_act_preserves_break_type():
    rng = random.Random(206)
    for p, l, m in [(2, 5, 15), (3, 2, 7), (3, 1, 4), (2, 3, 6)]:
        for _ in range(25):
            chi = random_character(rng, p, l, m)
            u = random_elt(rng, p, chi.bound)
            assert break_sequence(char_act(u, chi)) == (l, m)


def test_act_digit_invariants():
    rng = random.Random(207)
    for p, l, m in [(2, 5, 15), (3, 2, 7), (3, 2, 6), (3, 1, 4)]:
        for _ in range(25):
            chi = random_character(rng, p, l, m)
            u = random_elt(rng, p, chi.bound)
            acted = char_act(u, chi)
            # unit digit at the low break survives mod p
            assert acted.value(l) % p == chi.value(l) % p
            if m % p:
                # top value is rigid when m stays coprime
                assert acted.value(m) == chi.value(m)
            else:
                # m = p*l: the top basis unit is the p-th power of E_l
                top = UnitSeries.basis(p, m, chi.bound)
                assert char_eval(acted, top) == p * acted.value(l) % p**2


def test_act_precision_guard():
    chi = parse_character_literal("5:1,15:2", 2)
    with pytest.raises(ValueError):
        char_act(NottinghamElement.identity(2, 14), chi)


def test_act_rejects_mismatched_primes():
    chi = parse_character_literal("5:1,15:2", 2)
    with pytest.raises(ValueError, match="mismatched primes"):
        char_act(NottinghamElement.identity(3, chi.bound), chi)


def test_scalar_mul():
    chi = parse_character_literal("5:1,15:2", 2)
    assert scalar_mul(2, chi) == Character(2, {5: 2})
    assert scalar_mul(0, chi) == Character(2, {})
    assert scalar_mul(5, chi) == chi
    rng = random.Random(208)
    for _ in range(100):
        p = rng.choice([2, 3])
        chi = random_character(rng, p, 1, p)
        n1, n2 = rng.randrange(9), rng.randrange(9)
        assert scalar_mul(n1, scalar_mul(n2, chi)) == scalar_mul(n1 * n2, chi)


# ---------------------------------------------------------------------------
# Reduced forms and enumeration.


def test_is_reduced_cases():
    assert is_reduced(parse_character_literal("5:1,15:2", 2))
    assert is_reduced(parse_character_literal("5:1,11:2,15:2", 2))
    assert is_reduced(parse_character_literal("2:1,7:3", 3))
    assert is_reduced(parse_character_literal("2:1,5:3,7:3", 3))
    assert is_reduced(parse_character_literal("1:1,4:3", 3))
    # p-digit on the low break is not allowed once l sits below the window
    assert not is_reduced(parse_character_literal("1:4,4:3", 3))
    # support outside the window
    assert not is_reduced(parse_character_literal("5:1,7:2,15:2", 2))
    # the full depth is derived from the support, so dropping the top
    # value reads as a shallower type; here <2,6> with window {4,5}
    assert is_reduced(parse_character_literal("2:1,5:3", 3))
    assert break_sequence(parse_character_literal("2:1,5:3", 3)) == (2, 6)
    # no break type, so the question is rejected rather than answered
    with pytest.raises(ValueError):
        is_reduced(Character(3, {}))


def test_reduced_form_validation():
    ReducedForm(3, 2, 7, 1, {5: 0, 7: 1})
    with pytest.raises(ValueError):
        ReducedForm(3, 2, 7, 0, {5: 0, 7: 1})  # x_l not a unit
    with pytest.raises(ValueError):
        ReducedForm(3, 2, 7, 3, {5: 0, 7: 1})
    with pytest.raises(ValueError):
        ReducedForm(3, 2, 7, 1, {5: 3, 7: 1})  # digit out of 0..p-1
    with pytest.raises(ValueError):
        ReducedForm(3, 2, 7, 1, {5: 0, 7: 0})  # top digit must be nonzero
    with pytest.raises(ValueError):
        ReducedForm(3, 2, 7, 1, {4: 1, 5: 0, 7: 1})  # 4 is not in the window
    with pytest.raises(ValueError):
        ReducedForm(3, 2, 5, 1, {})  # invalid type
    # p | m: the top index m is not in the window, so every digit may be 0
    assert ReducedForm(3, 2, 6, 1, {4: 0, 5: 0}).b == {4: 0, 5: 0}
    assert ReducedForm(2, 3, 6, 1, {}).b == {3: 0, 5: 0}
    with pytest.raises(ValueError):
        ReducedForm(3, 2, 6, 1, {4: 0, 5: 3})  # digit out of 0..p-1
    with pytest.raises(ValueError):
        ReducedForm(3, 2, 6, 1, {4: 0, 5: 0, 6: 1})  # 6 is not coprime to p


def test_reduced_form_character_roundtrip():
    for p, l, m in [(2, 5, 15), (3, 2, 7), (3, 2, 6), (2, 1, 2), (3, 1, 4)]:
        for rf in enumerate_reduced_forms(p, l, m):
            chi = rf.to_character()
            assert is_reduced(chi)
            assert break_sequence(chi) == (l, m)
            back = ReducedForm.from_character(chi)
            assert back == rf


def test_from_character_rejects_non_reduced():
    with pytest.raises(ValueError):
        ReducedForm.from_character(parse_character_literal("1:4,4:3", 3))
    with pytest.raises(ValueError):
        ReducedForm.from_character(parse_character_literal("5:1,7:2,15:2", 2))


def support_reduced_form(chi):
    """The support-based reading of a reduced character, as an oracle for
    `ReducedForm.from_character`: support inside {l} union the window,
    and no p-digit at l unless l lies in the window."""
    p = chi.prime.p
    l, m = break_sequence(chi)
    win = window_indices(p, l, m)
    x_l = chi.value(l) % p
    if set(chi.support) - set(win) - {l}:
        raise ValueError("support outside {l} union window")
    if l not in win and chi.value(l) != x_l:
        raise ValueError("p-digit at the unit index must vanish")
    b = {j: (chi.value(j) - (x_l if j == l else 0)) // p for j in win}
    return ReducedForm(chi.prime, l, m, x_l, b)


FROM_CHARACTER_TYPES = [(2, 3, 6), (2, 3, 7), (2, 5, 10), (2, 1, 2), (2, 1, 3),
                        (3, 1, 3), (3, 1, 4), (3, 2, 6), (3, 2, 7),
                        (5, 1, 5), (5, 1, 6)]


@pytest.mark.parametrize("p, l, m", FROM_CHARACTER_TYPES)
def test_from_character_matches_support_oracle(p, l, m):
    # every character of the type: the same form or a ValueError from
    # both, and is_reduced agrees
    reduced = 0
    for chi in enumerate_characters(p, l, m):
        try:
            want = support_reduced_form(chi)
        except ValueError:
            want = None
        try:
            got = ReducedForm.from_character(chi)
        except ValueError:
            got = None
        assert got == want, format_character_literal(chi)
        assert is_reduced(chi) == (want is not None)
        reduced += want is not None
    # one character per reduced form, the rest refused
    assert reduced == sum(1 for _ in enumerate_reduced_forms(p, l, m))


@pytest.mark.parametrize("p, l, m", [(2, 3, 6), (2, 5, 10), (3, 1, 4), (3, 2, 7)])
def test_window_values_are_p_multiples_off_the_unit_digit(p, l, m):
    # l is the largest index with a unit value, so standard_expansion needs
    # no check for a unit digit above l: at every window index other than l
    # the value is a p-multiple, and at l (m = 2l over F_2) it is one once
    # the unit digit is taken off
    for chi in enumerate_characters(p, l, m):
        for j in window_indices(p, l, m):
            v = chi.value(j) - (chi.value(l) % p if j == l else 0)
            assert v % p == 0, (format_character_literal(chi), j)


def count_oracle(p, l, m):
    """Product over supported indices of the number of allowed values."""
    total = 1
    for j in range(1, l):
        if j % p:
            total *= p * p
    total *= p * (p - 1)  # unit values at l
    for j in range(l + 1, m):
        if j % p:
            total *= p
    if m % p:
        total *= p - 1
    else:
        total *= 1 if m == p * l else 0
    return total


def form_count_oracle(p, l, m):
    total = p - 1
    for j in window_indices(p, l, m):
        if j == m:
            total *= (p - 1) if m % p else p
        elif j == l:
            total *= p  # m = 2l: l carries an extra free p-digit
        else:
            total *= p
    return total


def test_enumeration_counts_match_product_oracle():
    for p, l, m in [(2, 5, 15), (3, 2, 7), (3, 2, 6), (3, 2, 8), (2, 1, 2),
                    (2, 1, 3), (3, 1, 3), (3, 1, 4), (2, 3, 6), (2, 3, 7)]:
        chars = sum(1 for _ in enumerate_characters(p, l, m))
        forms = sum(1 for _ in enumerate_reduced_forms(p, l, m))
        assert chars == count_oracle(p, l, m), (p, l, m)
        assert character_count(p, l, m) == chars, (p, l, m)
        assert forms == form_count_oracle(p, l, m), (p, l, m)
        assert chars == 512 if (p, l, m) == (2, 5, 15) else True
    assert count_oracle(2, 5, 15) == 512
    assert count_oracle(3, 2, 7) == 972


def test_enumeration_properties():
    seen = set()
    for chi in enumerate_characters(3, 2, 6):
        assert break_sequence(chi) == (2, 6)
        assert chi not in seen
        seen.add(chi)
    forms = list(enumerate_reduced_forms(3, 2, 6))
    assert len(set(forms)) == len(forms)
    for rf in forms:
        assert rf.to_character() in seen


def test_enumeration_order_is_frozen():
    heads = [format_character_literal(chi)
             for chi, _ in zip(enumerate_characters(2, 5, 15), range(3))]
    assert heads == ["5:1,15:2", "5:1,13:2,15:2", "5:1,11:2,15:2"]
    forms = [(rf.x_l, dict(rf.b)) for rf, _ in zip(enumerate_reduced_forms(3, 2, 7), range(2))]
    assert forms == [(1, {5: 0, 7: 1}), (1, {5: 0, 7: 2})]


def test_type_layout_is_cached_as_tuples():
    # one layout per type, shared by every reader, and immutable
    layout = _type_choice_lists(3, 2, 8)
    assert _type_choice_lists(3, 2, 8) is layout
    indices, choices = layout
    assert type(layout) is tuple and type(indices) is tuple and type(choices) is tuple
    assert indices == (1, 2, 4, 5, 7, 8)
    assert all(isinstance(c, (tuple, range)) for c in choices)
    assert [list(c) for c in choices] == [
        list(range(9)), [1, 2, 4, 5, 7, 8], [0, 3, 6], [0, 3, 6], [0, 3, 6], [3, 6],
    ]


# ---------------------------------------------------------------------------
# Text and JSON formats.


def test_literal_roundtrip():
    rng = random.Random(209)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        coeffs = {j: rng.randrange(p * p) for j in range(1, 12) if j % p and rng.randrange(2)}
        chi = Character(p, coeffs)
        assert parse_character_literal(format_character_literal(chi), p) == chi


def test_literal_zero_character():
    assert parse_character_literal("", 2) == Character(2, {})
    assert parse_character_literal("0", 3) == Character(3, {})
    assert format_character_literal(Character(2, {})) == "0"


# literal over F_3, bare message, and the text that starts at the
# reported offset
MALFORMED_CHARACTER_LITERALS = [
    ("1:1, x", "unreadable index:value pair 'x'", "x"),
    ("1:1,  4:x", "unreadable index:value pair '4:x'", "4:x"),
    ("1:1,,2:1", "unreadable index:value pair ''", ",2:1"),
    ("1:1, 3:1", "index 3 must be positive and coprime to p=3", "3:1"),
    (" 2:1 , 0:4", "index 0 must be positive and coprime to p=3", "0:4"),
    ("1:1,2: 9", "value 9 out of range 0..8", "9"),
    ("2:1, 1:1 ,2:5", "repeated index 2", "2:5"),
]


@pytest.mark.parametrize("text, message, bad", MALFORMED_CHARACTER_LITERALS)
def test_parse_character_literal_reports_absolute_offsets(text, message, bad):
    with pytest.raises(ParseError) as info:
        parse_character_literal(text, 3)
    exc = info.value
    assert exc.args[0] == message
    assert text[exc.offset:].startswith(bad)
    assert str(exc) == "%s (at offset %d)" % (message, exc.offset)


def test_literal_errors():
    with pytest.raises(ParseError):
        parse_character_literal("4:1", 2)  # index divisible by p
    with pytest.raises(ParseError):
        parse_character_literal("5:4", 2)  # value not below p^2
    with pytest.raises(ParseError):
        parse_character_literal("5", 2)
    with pytest.raises(ParseError):
        parse_character_literal("5:1,5:2", 2)
    err = None
    try:
        parse_character_literal("5:1,bad", 2)
    except ParseError as exc:
        err = exc
    assert err is not None and err.offset is not None
