"""Constructive reduction of a character to its canonical reduced form.

The reduction runs in two sweeps, each a composition of explicit group
elements that certify the result:

Stage one kills the unit digits below the unit depth l.  For each index
i < l (descending, i coprime to p) with unit digit x_i != 0 it applies

    s = t * (1 + c t^(l-i)) * (1 + t^l)^f

where c solves x_i + i c x_l = 0 mod p (the step cancels the digit at i)
and f solves chi(1 + c t^(l-i)) + f x_l = 0 mod p (the step stays inside
the kernel-compatible part of the group).  A step at i only disturbs
digits strictly below i, so the sweep terminates with only the digit at
l surviving mod p.

Stage two kills the p-part below the window [m-l, m].  For positions
q = m - l - j (descending as j = 1 .. m-l-1, positions divisible by p
skipped) with p-digit a_q != 0 it applies

    u_j = t * (1 + t^(l+j))^d * (1 + t^m)^e

where d solves a_q + d q b_m = 0 mod p and e solves d b_(l+j) + e b_m = 0
mod p, with p b_m = chi(E_m) the invariant top digit.  Each step clears
position q, only disturbs positions below q, and contributes exactly 0
to the kernel value, so the accumulated witness always satisfies
chi(u(t)/t) = 0 mod p.
"""

from __future__ import annotations

from .characters import (
    Character,
    ReducedForm,
    break_sequence,
    char_act,
    char_eval,
    is_reduced,
)
from .series import (
    NottinghamElement,
    UnitSeries,
    format_nottingham_product,
    nott_compose,
    unit_mul,
    unit_pow,
)


class Witness:
    """A certifying group element u with cached kernel value chi(u(t)/t).

    The kernel value is stored mod p^2 and must vanish mod p; that is the
    admissibility condition for strict equivalence.
    """

    __slots__ = ("element", "kernel_value")

    def __init__(self, element, kernel_value):
        if not isinstance(element, NottinghamElement):
            raise ValueError("witness element must be a NottinghamElement")
        kernel_value = int(kernel_value) % element.prime.psq
        if kernel_value % element.prime.p:
            raise ValueError(
                "witness kernel value %d is a unit mod %d"
                % (kernel_value, element.prime.p)
            )
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "kernel_value", kernel_value)

    def __setattr__(self, name, value):
        raise AttributeError("Witness is immutable")

    @property
    def prime(self):
        return self.element.prime

    def to_text(self):
        return format_nottingham_product(self.element)

    def __eq__(self, other):
        return (
            isinstance(other, Witness)
            and other.element == self.element
            and other.kernel_value == self.kernel_value
        )

    def __repr__(self):
        return "Witness(%s, kernel_value=%d)" % (self.to_text(), self.kernel_value)


class WitnessCheck:
    """Outcome of verify_witness: truthy on success, with a reason code."""

    __slots__ = ("ok", "reason")

    REASONS = ("ok", "action-mismatch", "kernel-violation", "incompatible")

    def __init__(self, ok, reason):
        if reason not in self.REASONS:
            raise ValueError("unknown reason %r" % reason)
        object.__setattr__(self, "ok", bool(ok))
        object.__setattr__(self, "reason", reason)

    def __setattr__(self, name, value):
        raise AttributeError("WitnessCheck is immutable")

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "WitnessCheck(ok=%r, reason=%r)" % (self.ok, self.reason)


def reduce_mod_p(chi: Character):
    """Stage one: clear every unit digit below l.

    Returns (character, witness); the output character agrees with chi at
    and above l mod p and has zero unit digits below l.
    """
    prime = chi.prime
    p = prime.p
    ct = break_sequence(chi)
    l, m = ct
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
    for i in range(1, l):
        if i % p and cur.value(i) % p:
            raise RuntimeError("stage one left a unit digit at %d" % i)
    return cur, Witness(acc, char_eval(chi, acc.unit))


def clear_low_p_part(chi: Character):
    """Stage two: clear the p-digits below the window [m-l, m].

    Requires stage-one form (no unit digits below l).  Returns
    (character, witness) with the output reduced.
    """
    prime = chi.prime
    p = prime.p
    ct = break_sequence(chi)
    l, m = ct
    for i in range(1, l):
        if i % p and chi.value(i) % p:
            raise ValueError("expects stage-one form: unit digit at %d" % i)
    x_l = chi.value(l) % p
    top = char_eval(chi, UnitSeries.basis(prime, m, m))
    if top % p:
        raise RuntimeError("top value %d is a unit" % top)
    b_m = (top // p) % p
    if b_m == 0:
        raise RuntimeError("top digit vanished; type bookkeeping is broken")
    cur = chi
    acc = NottinghamElement.identity(prime, m)
    for j in range(1, m - l):
        q = m - l - j
        if q % p == 0:
            continue
        cq = cur.value(q)
        a_q = ((cq - x_l) // p) % p if q == l else (cq // p) % p
        if q != l and cq % p:
            raise RuntimeError("unit digit appeared at %d during stage two" % q)
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
    if not is_reduced(cur):
        raise RuntimeError("stage two did not reach a reduced character")
    return cur, Witness(acc, char_eval(chi, acc.unit))


def reduce(chi: Character):
    """Full reduction: returns (ReducedForm, total witness).

    The witness u satisfies char_act(u, chi) equal to the reduced
    character and chi(u(t)/t) = 0 mod p; both are rechecked before
    returning.
    """
    stage1, w1 = reduce_mod_p(chi)
    stage2, w2 = clear_low_p_part(stage1)
    total = nott_compose(w2.element, w1.element)
    witness = Witness(total, char_eval(chi, total.unit))
    check = verify_witness(chi, stage2, witness)
    if not check:
        raise RuntimeError("reduction produced a bad witness: %s" % check.reason)
    return ReducedForm.from_character(stage2), witness


def verify_witness(chi: Character, psi: Character, u) -> WitnessCheck:
    """Check that u certifies strict equivalence from chi to psi.

    u may be a Witness or a NottinghamElement.  Never raises on bad
    witnesses: failures come back as falsy checks with a reason code.
    """
    if isinstance(u, Witness):
        u = u.element
    if not isinstance(u, NottinghamElement):
        return WitnessCheck(False, "incompatible")
    if not (isinstance(chi, Character) and isinstance(psi, Character)):
        return WitnessCheck(False, "incompatible")
    if chi.prime != psi.prime or u.prime != chi.prime:
        return WitnessCheck(False, "incompatible")
    if u.precision < chi.bound:
        return WitnessCheck(False, "incompatible")
    if char_act(u, chi) != psi:
        return WitnessCheck(False, "action-mismatch")
    if char_eval(chi, u.unit) % chi.prime.p:
        return WitnessCheck(False, "kernel-violation")
    return WitnessCheck(True, "ok")
