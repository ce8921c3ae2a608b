"""Reduction pipeline tests.

The small worked cases were frozen after solving the digit congruences
by hand and replaying them through the series layer; every frozen
witness is re-verified here rather than trusted.  The library's stages
read only the values each step needs and act on the character once, and
`reduce` reads its form from the values stage two recorded without
acting; the eager stages below act on the whole character at every step
and serve as their differential oracle.
"""

import random
import sys

import pytest

from nottorsion import cli, reduction, series
from nottorsion.characters import (
    Character,
    ReducedForm,
    break_sequence,
    char_act,
    char_eval,
    enumerate_characters,
    format_character_literal,
    is_reduced,
    parse_character_literal,
    validate_type,
)
from nottorsion.reduction import (
    Witness,
    WitnessCheck,
    clear_low_p_part,
    reduce,
    reduce_mod_p,
    verify_witness,
)
from nottorsion.series import (
    NottinghamElement,
    UnitSeries,
    nott_compose,
    parse_nottingham,
    unit_mul,
    unit_pow,
)


def random_character(rng, p, l, m):
    pool = list(enumerate_characters(p, l, m))
    return pool[rng.randrange(len(pool))]


SMALL_TYPES = [(2, 1, 2), (2, 1, 3), (2, 3, 6), (2, 3, 7), (2, 5, 15),
               (3, 1, 3), (3, 1, 4), (3, 2, 6), (3, 2, 7), (3, 2, 8),
               (5, 1, 5), (5, 1, 6)]


# ---------------------------------------------------------------------------
# Witness container.


def test_witness_requires_kernel_multiple_of_p():
    u = parse_nottingham("t*(1+t^2)", 3, 4)
    Witness(u, 0)
    Witness(u, 3)
    Witness(u, 6)
    with pytest.raises(ValueError):
        Witness(u, 1)
    with pytest.raises(ValueError):
        Witness(u, 5)


@pytest.mark.parametrize(
    "element", [None, UnitSeries(3, [0, 1, 0, 0]), "t*(1+t^2)"],
    ids=["none", "unit-series", "text"],
)
def test_witness_requires_a_group_element(element):
    with pytest.raises(ValueError, match="witness element must be a NottinghamElement"):
        Witness(element, 0)


def test_witness_serializes_as_product():
    u = parse_nottingham("t*(1+t^2)*(1+t^4)^2", 3, 4)
    assert Witness(u, 0).to_text() == "t*(1+t^2)*(1+t^4)^2"


# ---------------------------------------------------------------------------
# Stage 1: killing unit coefficients below l.


def test_stage1_worked_case():
    # type <2,7>: the unit at index 1 dies via the step congruence
    # x_1 + 1*c*x_2 = 0 mod 3, so c = 2; the witness records it
    chi = parse_character_literal("1:1,2:1,7:3", 3)
    out, w = reduce_mod_p(chi)
    assert out == parse_character_literal("1:3,2:4,4:6,7:3", 3)
    assert w.element.unit.coefficient(1) == 2
    assert w.to_text() == "t*(1+t)^2*(1+t^2)*(1+t^3)^2*(1+t^4)^2"
    assert verify_witness(chi, out, w).ok


def test_stage1_leaves_clean_input_alone():
    chi = parse_character_literal("5:1,15:2", 2)
    out, w = reduce_mod_p(chi)
    assert out == chi
    assert w.element == NottinghamElement.identity(2, chi.bound)
    assert w.kernel_value == 0


def test_stage1_postcondition_everywhere():
    rng = random.Random(301)
    for p, l, m in SMALL_TYPES:
        for _ in range(12):
            chi = random_character(rng, p, l, m)
            out, w = reduce_mod_p(chi)
            # no unit values below l, the break type is intact, and the
            # witness is a valid strict-equivalence certificate
            assert all(out.value(j) % p == 0 for j in range(1, l))
            assert break_sequence(out) == (l, m)
            assert char_eval(chi, w.element.unit) == w.kernel_value
            assert verify_witness(chi, out, w).ok


def test_stage1_rejects_non_surjective():
    with pytest.raises(ValueError):
        reduce_mod_p(Character(3, {1: 3}))


# ---------------------------------------------------------------------------
# Stage 2: clearing p-digits outside the window.


def test_stage2_worked_case():
    # type <1,4> over F_3: one step with d=1, e=2 clears the digit at 2
    chi = parse_character_literal("1:1,2:3,4:3", 3)
    out, w = clear_low_p_part(chi)
    assert out == parse_character_literal("1:1,4:3", 3)
    assert w.to_text() == "t*(1+t^2)*(1+t^4)^2"
    assert verify_witness(chi, out, w).ok


def test_stage2_requires_stage1_form():
    # unit value at index 1 below l = 2
    with pytest.raises(ValueError):
        clear_low_p_part(parse_character_literal("1:1,2:1,7:3", 3))


def test_stage2_fixes_reduced_input():
    chi = parse_character_literal("5:1,11:2,15:2", 2)
    out, w = clear_low_p_part(chi)
    assert out == chi
    assert w.element == NottinghamElement.identity(2, chi.bound)


# ---------------------------------------------------------------------------
# Full reduction.


def test_reduce_worked_cases():
    chi = parse_character_literal("1:1,2:3,4:3", 3)
    form, w = reduce(chi)
    assert form.to_character() == parse_character_literal("1:1,4:3", 3)
    assert w.to_text() == "t*(1+t^2)*(1+t^4)^2"

    chi = parse_character_literal("5:1,7:2,15:2", 2)
    form, w = reduce(chi)
    assert form.to_character() == parse_character_literal("5:1,15:2", 2)
    assert w.to_text() == "t*(1+t^8)"
    assert verify_witness(chi, form.to_character(), w).ok

    chi = parse_character_literal("1:1,2:1,7:3", 3)
    form, w = reduce(chi)
    assert form.to_character() == parse_character_literal("2:1,7:3", 3)
    assert w.to_text() == "t*(1+t)^2*(1+t^2)*(1+t^4)^2*(1+t^5)^2*(1+t^6)*(1+t^7)"
    assert verify_witness(chi, form.to_character(), w).ok


def test_reduce_is_identity_on_reduced():
    rng = random.Random(302)
    for p, l, m in SMALL_TYPES:
        from nottorsion.characters import enumerate_reduced_forms

        forms = list(enumerate_reduced_forms(p, l, m))
        for rf in rng.sample(forms, min(4, len(forms))):
            form, w = reduce(rf.to_character())
            assert form == rf
            assert w.element == NottinghamElement.identity(p, rf.to_character().bound)
            assert w.kernel_value == 0


def test_reduce_soundness_randomized():
    rng = random.Random(303)
    for p, l, m in SMALL_TYPES:
        for _ in range(12):
            chi = random_character(rng, p, l, m)
            form, w = reduce(chi)
            psi = form.to_character()
            assert is_reduced(psi)
            chk = verify_witness(chi, psi, w)
            assert chk.ok, (p, l, m, format_character_literal(chi), chk.reason)
            # digit preservation through both stages
            assert psi.value(l) % p == chi.value(l) % p
            if m % p:
                assert psi.value(m) == chi.value(m)


def test_reduce_idempotent():
    rng = random.Random(304)
    for p, l, m in SMALL_TYPES[:8]:
        for _ in range(6):
            chi = random_character(rng, p, l, m)
            form, _ = reduce(chi)
            again, w = reduce(form.to_character())
            assert again == form
            assert w.element == NottinghamElement.identity(p, form.to_character().bound)


# ---------------------------------------------------------------------------
# Witness verification.


def test_verify_accepts_identity():
    chi = parse_character_literal("5:1,15:2", 2)
    chk = verify_witness(chi, chi, NottinghamElement.identity(2, chi.bound))
    assert chk.ok and chk.reason == "ok" and bool(chk)


def test_verify_flags_action_mismatch():
    chi = parse_character_literal("5:1,15:2", 2)
    psi = parse_character_literal("5:1,11:2,15:2", 2)
    chk = verify_witness(chi, psi, NottinghamElement.identity(2, chi.bound))
    assert not chk.ok and chk.reason == "action-mismatch" and not bool(chk)


def test_verify_flags_kernel_violation():
    # t*(1+t) fixes this character's action orbit position but fails the
    # kernel condition: the character takes value 1 on its unit part
    chi = parse_character_literal("1:1,4:3", 3)
    u = parse_nottingham("t*(1+t)", 3, chi.bound)
    assert char_act(u, chi) == chi
    assert char_eval(chi, u.unit) == 1
    chk = verify_witness(chi, chi, u)
    assert not chk.ok and chk.reason == "kernel-violation"


def test_verify_flags_incompatible():
    chi = parse_character_literal("5:1,15:2", 2)
    # wrong prime
    chk = verify_witness(chi, chi, NottinghamElement.identity(3, 15))
    assert not chk.ok and chk.reason == "incompatible"
    # element tracked too shallow to evaluate the action
    chk = verify_witness(chi, chi, NottinghamElement.identity(2, 3))
    assert not chk.ok and chk.reason == "incompatible"
    # an element that is not a NottinghamElement, characters that are not
    # Characters
    u = NottinghamElement.identity(2, chi.bound)
    assert verify_witness(chi, chi, u.unit).reason == "incompatible"
    assert verify_witness("5:1,15:2", chi, u).reason == "incompatible"
    assert verify_witness(chi, "5:1,15:2", u).reason == "incompatible"


def test_verify_accepts_witness_object():
    chi = parse_character_literal("1:1,2:3,4:3", 3)
    form, w = reduce(chi)
    assert verify_witness(chi, form.to_character(), w).ok
    assert verify_witness(chi, form.to_character(), w.element).ok


def test_verify_ignores_cached_kernel_value():
    # the element is the whole certificate; verification recomputes the
    # kernel value instead of trusting the (here doctored) cache
    chi = parse_character_literal("5:1,15:2", 2)
    u = NottinghamElement.identity(2, chi.bound)
    doctored = Witness(u, 2)
    chk = verify_witness(chi, chi, doctored)
    assert chk.ok


def test_act_then_reduce_composite_flow():
    # act by u0 = t*(1+t^3+t^4), with no compensator needed at the top
    # (the kernel value is already 0), then clean up with stage 2; the
    # landing point is the reduced neighbor with an extra digit at 11
    chi = parse_character_literal("5:1,15:2", 2)
    u0 = parse_nottingham("t*(1+t^3+t^4)", 2, 15)
    assert char_eval(chi, u0.unit) == 0
    acted = char_act(u0, chi)
    assert acted == parse_character_literal("3:2,5:1,11:2,15:2", 2)
    assert acted.value(11) == 2
    assert verify_witness(chi, acted, u0).ok
    assert not is_reduced(acted)

    form, w2 = reduce(acted)
    psi = form.to_character()
    assert psi == parse_character_literal("5:1,11:2,15:2", 2)
    # compose the two certificates into one strict equivalence chi -> psi
    total = nott_compose(w2.element, u0)
    chk = verify_witness(chi, psi, total)
    assert chk.ok


def test_witness_check_reason_vocabulary():
    assert WitnessCheck.REASONS == ("ok", "action-mismatch", "kernel-violation", "incompatible")
    with pytest.raises(ValueError):
        WitnessCheck(True, "because")


# ---------------------------------------------------------------------------
# Eager oracles: each step acts on the whole character.


def eager_reduce_mod_p(chi, steps=None):
    """Stage one, step by step; appends each cleared index to steps."""
    prime = chi.prime
    p = prime.p
    l, m = break_sequence(chi)
    x_l = chi.value(l) % p
    cur = chi
    acc = NottinghamElement.identity(prime, m)
    for i in range(l - 1, 0, -1):
        if i % p == 0:
            continue
        x_i = cur.value(i) % p
        if x_i == 0:
            continue
        c = (-x_i * pow(i * x_l % p, -1, p)) % p
        step_unit = UnitSeries(
            prime, tuple(c if d == l - i else 0 for d in range(1, m + 1))
        )
        kernel_part = char_eval(cur, step_unit) % p
        f = (-kernel_part * pow(x_l, -1, p)) % p
        s_unit = unit_mul(step_unit, unit_pow(UnitSeries.basis(prime, l, m), f))
        s = NottinghamElement(prime, s_unit)
        cur = char_act(s, cur)
        acc = nott_compose(s, acc)
        if steps is not None:
            steps.append(i)
    return cur, Witness(acc, char_eval(chi, acc.unit))


def eager_clear_low_p_part(chi, steps=None):
    """Stage two, step by step; appends each step's (q, l + j) to steps."""
    prime = chi.prime
    p = prime.p
    l, m = break_sequence(chi)
    x_l = chi.value(l) % p
    b_m = (char_eval(chi, UnitSeries.basis(prime, m, m)) // p) % p
    cur = chi
    acc = NottinghamElement.identity(prime, m)
    for j in range(1, m - l):
        q = m - l - j
        if q % p == 0:
            continue
        cq = cur.value(q)
        a_q = ((cq - x_l) // p) % p if q == l else (cq // p) % p
        assert q == l or cq % p == 0
        if a_q == 0:
            continue
        d = (-a_q * pow(q * b_m % p, -1, p)) % p
        beta_val = char_eval(cur, UnitSeries.basis(prime, l + j, m))
        beta = (beta_val // p) % p
        e = (-d * beta * pow(b_m, -1, p)) % p
        u_unit = unit_mul(
            unit_pow(UnitSeries.basis(prime, l + j, m), d),
            unit_pow(UnitSeries.basis(prime, m, m), e),
        )
        u_j = NottinghamElement(prime, u_unit)
        cur = char_act(u_j, cur)
        acc = nott_compose(u_j, acc)
        if steps is not None:
            steps.append((q, l + j))
    return cur, Witness(acc, char_eval(chi, acc.unit))


def _stage_text(out, w):
    return format_character_literal(out), w.to_text(), w.kernel_value


def _differential_types():
    """Valid types with p in {2,3,5,7}, l <= 9 and m <= p*l + 12; the cap
    m <= 45 (221 of the 273 types) keeps this test near 3 s."""
    return [
        (p, l, m)
        for p in (2, 3, 5, 7)
        for l in range(1, 10)
        for m in range(p * l, min(p * l + 12, 45) + 1)
        if validate_type(p, l, m)
    ]


def _typed_character(rng, p, l, m):
    """A seeded character of exact type <l, m>, drawn digit by digit."""
    psq = p * p
    coeffs = {}
    for j in range(1, m + 1):
        if j % p == 0:
            continue
        if j < l:
            coeffs[j] = rng.randrange(psq)
        elif j == l:
            coeffs[j] = rng.choice([v for v in range(psq) if v % p])
        elif j < m:
            coeffs[j] = p * rng.randrange(p)
        else:
            coeffs[j] = p * rng.randrange(1, p)
    return Character(p, coeffs)


def test_lazy_stages_match_eager_oracle():
    # one seeded character of each differential type: both stages and
    # reduce give the eager stages' characters, witness text and kernel
    # values
    rng = random.Random(1201)
    seen = set()
    for p, l, m in _differential_types():
        chi = _typed_character(rng, p, l, m)
        steps1, steps2 = [], []
        s1, w1 = eager_reduce_mod_p(chi, steps1)
        s2, w2 = eager_clear_low_p_part(s1, steps2)
        case = (p, l, m, format_character_literal(chi))
        assert _stage_text(*reduce_mod_p(chi)) == _stage_text(s1, w1), case
        assert _stage_text(*clear_low_p_part(s1)) == _stage_text(s2, w2), case
        form, w = reduce(chi)
        total = nott_compose(w2.element, w1.element)
        assert form == ReducedForm.from_character(s2), case
        # reduce's kernel value, carried over from stage one's element, is
        # chi of its witness, which composes both stages' steps
        assert w.kernel_value == char_eval(chi, w.element.unit), case
        expected = Witness(total, char_eval(chi, total.unit))
        assert (w.to_text(), w.kernel_value) == (
            expected.to_text(),
            expected.kernel_value,
        ), case
        if m == p * l:
            seen.add("m = pl")
        if p == 2 and m == 2 * l:
            seen.add("m = 2l over F_2")
        if steps1:
            seen.add("stage-one step")
        if any(q == l for q, _ in steps2):
            seen.add("step at q = l")
        # the degree-m digit that restores the kernel value stands in for
        # the e each step would read at v = l + j, whatever v is
        if any(v % p == 0 for _, v in steps2):
            seen.add("step with p | v")
        if any(v <= q for q, v in steps2):
            seen.add("step with v <= q")
        if steps2:
            seen.add("stage-two steps after stage-one steps" if steps1 else
                     "stage-two steps from the identity")
    assert seen == {
        "m = pl",
        "m = 2l over F_2",
        "stage-one step",
        "step at q = l",
        "step with p | v",
        "step with v <= q",
        "stage-two steps after stage-one steps",
        "stage-two steps from the identity",
    }


def test_stage2_never_moves_the_window():
    # each step u_j = 1 mod t^(l+j), j >= 1, fixes E_v mod t^(m+1) for
    # v > m - l - j, so stage two leaves every window value as it is
    rng = random.Random(1203)
    moved = 0
    for p, l, m in _differential_types():
        s1, _ = reduce_mod_p(_typed_character(rng, p, l, m))
        s2, _ = clear_low_p_part(s1)
        for v in range(m - l, m + 1):
            if v % p:
                assert s2.value(v) == s1.value(v), (p, l, m, v)
        moved += s2 != s1
    # the stage changed most characters below the window
    assert moved > len(_differential_types()) // 2


def test_reduce_form_is_the_action_of_its_witness():
    # reduce reads its form from the values stage two recorded, never from
    # an action; the slow path acts on chi with the returned witness
    rng = random.Random(1204)
    seen = set()
    for p, l, m in _differential_types():
        chi = _typed_character(rng, p, l, m)
        form, w = reduce(chi)
        case = (p, l, m, format_character_literal(chi))
        assert form == ReducedForm.from_character(char_act(w.element, chi)), case
        steps = []
        eager_clear_low_p_part(eager_reduce_mod_p(chi)[0], steps)
        if p == 7 and steps:
            seen.add("p = 7")
        if m == p * l and steps:
            seen.add("m = pl")
        if m == 2 * l and steps:
            seen.add("m = 2l")
        if any(q == l for q, _ in steps):
            seen.add("read at q = l")
        if any(q < v < m - l for q, v in steps):
            seen.add("recorded read at l + j")
        if any(v < q for q, v in steps):
            seen.add("fresh read at l + j")
    assert seen == {
        "p = 7",
        "m = pl",
        "m = 2l",
        "read at q = l",
        "recorded read at l + j",
        "fresh read at l + j",
    }


@pytest.mark.parametrize(
    "p, l, m",
    [(2, 3, 11), (2, 5, 15), (2, 9, 19), (3, 1, 7), (3, 2, 8), (3, 4, 13),
     (5, 2, 12), (5, 7, 37), (7, 2, 15)],
)
def test_reduced_form_of_an_orbit_point_reads_the_first_l_digits(p, l, m):
    # prefix lemma: chi o u and chi o w, with w the first l unit digits of
    # u, reduce to one form; the l >= p types are those the partition walk
    # alone counts
    rng = random.Random(p * 1000 + m)
    for _ in range(40):
        chi = _typed_character(rng, p, l, m)
        digits = [rng.randrange(p) for _ in range(m)]
        u = NottinghamElement.from_unit_coeffs(p, digits)
        w = NottinghamElement.from_unit_coeffs(p, [*digits[:l], *[0] * (m - l)])
        case = (format_character_literal(chi), digits)
        assert reduce(char_act(u, chi))[0] == reduce(char_act(w, chi))[0], case


def test_reduce_digit_check_catches_a_dropped_term(monkeypatch, capsys):
    # a stage-two composition that drops the leading term of its step
    # leaves acc where the recorded values no longer describe it; the
    # per-step digit check refuses, RuntimeError and exit 1
    text = "1:1,2:3,4:6,5:3,7:3"  # type <1,7> over F_3: two stage-two steps
    chi = parse_character_literal(text, 3)
    steps1, steps2 = [], []
    eager_clear_low_p_part(eager_reduce_mod_p(chi, steps1)[0], steps2)
    assert steps1 == [] and steps2 == [(5, 2), (4, 3)]
    compose = reduction._compose_raw

    def dropped(zu, zv, p, n):
        out = compose(zu, zv, p, n)
        k = next(k for k in range(n + 1) if out[k] != zv[k])
        out[k] = zv[k]
        return out

    monkeypatch.setattr(reduction, "_compose_raw", dropped)
    with pytest.raises(RuntimeError, match="stage two did not reach a reduced form at 4"):
        reduce(chi)
    assert cli.main(["reduce", "--p", "3", "--char", text]) == 1
    assert "did not reach a reduced form" in capsys.readouterr().err


def test_reduce_internal_fault_raises_runtime_error(monkeypatch):
    # a stage-one step without its factor (1+t^l)^f leaves the kernel;
    # that is the library's fault, not the caller's, so RuntimeError
    basis_power = reduction._basis_power
    monkeypatch.setattr(
        reduction,
        "_basis_power",
        lambda k, e, p, n: basis_power(k, 0 if k == 2 else e, p, n),
    )
    with pytest.raises(RuntimeError, match="kernel value 7, a unit mod 3"):
        reduce(parse_character_literal("1:1,2:1,7:3", 3))


def test_reduce_stage_two_fault_raises_runtime_error(monkeypatch, capsys):
    # a stage-two step without its factor (1+t^(l+j))^d clears nothing,
    # so the form reduce reaches is not reduced: the library's fault,
    # RuntimeError and exit 1, not the ValueError of a bad input
    text = "1:1,2:3,4:3"  # type <1,4> over F_3: stage two steps at l+j = 2
    chi = parse_character_literal(text, 3)
    steps = []
    eager_clear_low_p_part(chi, steps)
    assert steps == [(2, 2)]
    basis_power = reduction._basis_power
    monkeypatch.setattr(
        reduction,
        "_basis_power",
        lambda k, e, p, n: basis_power(k, 0 if 1 < k < 4 else e, p, n),
    )
    with pytest.raises(RuntimeError, match="did not reach a reduced"):
        reduce(chi)
    # chi is in stage-one form, so the public stage two passes its input
    # check and meets the same fault
    with pytest.raises(RuntimeError, match="did not reach a reduced"):
        clear_low_p_part(chi)
    assert cli.main(["reduce", "--p", "3", "--char", text]) == 1
    assert "verification failure" in capsys.readouterr().err


def test_each_stage_acts_at_most_once(counted_calls):
    # stage one acts at most once; stage two and reduce neither act nor
    # evaluate: the kernel value of their witness is the one their steps
    # keep, chi of stage one's element, which they evaluate themselves
    calls = counted_calls(reduction, "char_act")
    evals = counted_calls(reduction, "char_eval")

    # a reduced character: neither stage takes a step, so neither acts
    chi = parse_character_literal("5:1,15:2", 2)
    assert reduce_mod_p(chi)[0] == chi and calls == []
    assert clear_low_p_part(chi)[0] == chi and calls == []
    del evals[:]
    assert reduce(chi)[0].to_character() == chi
    assert calls == [] and evals == []

    rng = random.Random(1202)
    many1 = many2 = False
    for p, l, m in [(3, 4, 13), (2, 9, 23), (5, 3, 16), (3, 8, 30)]:
        for _ in range(3):
            chi = _typed_character(rng, p, l, m)
            steps1, steps2 = [], []
            s1, _ = eager_reduce_mod_p(chi, steps1)
            eager_clear_low_p_part(s1, steps2)
            del calls[:]
            reduce_mod_p(chi)
            assert len(calls) == min(len(steps1), 1)
            # stage two, like reduce, reads its character from the values
            # its steps recorded
            del calls[:], evals[:]
            clear_low_p_part(s1)
            assert calls == [] and evals == []
            # reduce runs both stages' steps into one element and reads its
            # form from the values stage two recorded
            del calls[:], evals[:]
            reduce(chi)
            assert calls == [] and evals == []
            many1 |= len(steps1) > 1
            many2 |= len(steps2) > 1
    # per-step actions would have shown up as several calls
    assert many1 and many2


def count_kernel(counted_calls, name):
    """One call list per nottorsion module that holds the series kernel
    name, so that their lengths sum to the kernel's calls."""
    return [
        counted_calls(module, name)
        for module_name, module in sorted(sys.modules.items())
        if module_name.startswith("nottorsion")
        and getattr(module, name, None) is getattr(series, name)
    ]


# types <7,37> over F_5 and <13,40> over F_3
STEP_PRODUCT_CASES = [
    ("1:10,2:4,3:12,4:20,6:1,7:21,9:10,11:20,13:20,14:5,18:15,19:15,22:5,"
     "24:20,26:15,28:20,31:5,32:20,34:20,36:20,37:20", 5),
    ("2:3,5:8,7:2,8:4,10:6,11:2,13:7,14:3,16:6,17:6,22:6,23:6,25:6,28:3,"
     "31:6,32:6,35:6,38:6,40:3", 3),
]


@pytest.mark.parametrize(
    "text, p, most",
    [(*STEP_PRODUCT_CASES[0], 220), (*STEP_PRODUCT_CASES[1], 130)],
)
def test_reduce_step_products(counted_calls, text, p, most):
    # a stage-two step writes its unit as (1+t^v)^d + e*t^m from Lucas'
    # theorem, and a composition takes one power of zv per nonzero term
    # of zu, with no trailing product.  Built from two square-and-multiply
    # chains and their product, and composed by gap powers times the
    # previous power and a trailing product, these reductions, of types
    # <7,37> over F_5 and <13,40> over F_3, took 297 and 174 products,
    # and 191 and 111 while stage one still moved its whole unit layer;
    # they take 163 and 105
    chi = parse_character_literal(text, p)
    calls = count_kernel(counted_calls, "_mul_raw")
    assert len(calls) >= 3  # series, characters and reduction
    form, witness = reduce(chi)
    assert sum(map(len, calls)) <= most
    assert verify_witness(chi, form.to_character(), witness)


@pytest.mark.parametrize(
    "text, p, most",
    [(*STEP_PRODUCT_CASES[0], 40), (*STEP_PRODUCT_CASES[1], 42)],
)
def test_reduce_strip_runs(counted_calls, text, p, most):
    # stage one reads the digit x_i and the value behind f off acc, one
    # power and one strip each, where it once acted on its whole unit
    # layer per step; stage two reads nothing at l + j, as its steps'
    # factors (1+t^m)^e fold into one digit at degree m, and strips no
    # window row at an index divisible by p.  These reductions took 61
    # and 65 strips, then 42 and 47; they take 40 and 42
    chi = parse_character_literal(text, p)
    calls = count_kernel(counted_calls, "_strip_run")
    assert len(calls) >= 2  # series and characters
    form, witness = reduce(chi)
    assert sum(map(len, calls)) <= most
    assert verify_witness(chi, form.to_character(), witness)
