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
chi(u(t)/t) = 0 mod p.  Through degree m, (1 + (t z)^m)^e = 1 + e t^m,
so a step's e factor only adds e at degree m of acc's unit; later
compositions carry that digit through unchanged, and no read sees it, as
the row at q reads acc only through degree m - q.  So a step writes only
(1 + t^(l+j))^d, one basis power that Lucas' theorem gives term by term,
and the e's land once, as E at degree m after the last step: the steps
keep the kernel value kappa = chi(acc) of stage one's acc (0 when stage
one took no step), and chi(z + E t^m) = chi(z) + E chi(E_m), so
E = (kappa - chi(acc without the e's)) / (p b_m) mod p.  kappa is the
witness's kernel value.  Steps compose onto acc through the substitution
kernel, which takes one power of acc per nonzero term of the step.

Both stages are lazy.  The character reached after steps with composite
acc takes the value chi(E_v o acc) at v (the action is contravariant):
the strip digits of the row E_v o acc weighed by chi(E_k).  A step
computes only the values it reads.  Stage one reads mod p to depth l
against chi's own unit layer, which sees only strip digits at degrees
<= l: before the step at i, the digit x_i = chi(E_i o acc), and for f,
(chi acc)(1 + c t^r) = chi(1 + c t^r acc^r) with r = l - i; each read
takes one power of acc and one strip.  Steps and acc are raw unit lists.

Stage two evaluates each row of its final acc once.  A step at q moves
acc first at degree m - q, by d, so the rows above q keep their values,
and the row at q moves only its last strip digit, at degree m, by q*d;
chi(E_m) is a multiple of p, so the value at q becomes the value read
plus q*d*chi(E_m), and no later step moves it.  The window [m-l, m],
which no step moves, comes from one chain of powers of stage one's acc
that strips only the rows at indices prime to p, and each q reads one
power of acc: stage two evaluates exactly the rows it returns, and never
acts on chi.  Each step checks that it moved acc that way.  `reduce` is
stage two's one entry, closed by the form's own check and
`_kernel_witness`; `clear_low_p_part` is `reduce` on stage-one input,
where stage one takes no step.  While acc is the identity the values
are chi's own, in closed form (`characters._basis_value`).
"""

from __future__ import annotations

from .characters import (
    Character,
    ReducedForm,
    _row,
    _row_value,
    _value,
    _weights,
    break_sequence,
    char_act,
    char_eval,
)
from .series import (
    NottinghamElement,
    UnitSeries,
    _basis_power,
    _compose_raw,
    _mul_raw,
    _pow_raw,
    _Value,
    format_nottingham_product,
)


class Witness(_Value):
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

    @property
    def prime(self):
        return self.element.prime

    def to_text(self):
        return format_nottingham_product(self.element)

    def __repr__(self):
        return "Witness(%s, kernel_value=%d)" % (self.to_text(), self.kernel_value)


class WitnessCheck(_Value):
    """Outcome of verify_witness: truthy on success, with a reason code."""

    __slots__ = ("ok", "reason")

    REASONS = ("ok", "action-mismatch", "kernel-violation", "incompatible")

    def __init__(self, ok, reason):
        if reason not in self.REASONS:
            raise ValueError("unknown reason %r" % reason)
        object.__setattr__(self, "ok", bool(ok))
        object.__setattr__(self, "reason", reason)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "WitnessCheck(ok=%r, reason=%r)" % (self.ok, self.reason)


def _acted_value(weights, z, v, p, psq, m):
    """chi(E_v o u) for u = t*z through degree m, or chi(E_v) when z is
    None; weights as in `characters._value`."""
    zv = None if z is None else _pow_raw(z, v, p, m - v)
    return _row_value(v, zv, weights, p, psq, m)


def _kernel_witness(chi, element, kernel_value=None):
    """The Witness of an element that the library built for chi, with
    kernel value chi(element's unit), evaluated here unless the caller
    knows it.  A kernel value that is a unit mod p is then an internal
    fault, not bad input, so it raises RuntimeError where the Witness
    constructor would raise ValueError."""
    if kernel_value is None:
        kernel_value = char_eval(chi, element.unit)
    if kernel_value % chi.prime.p:
        raise RuntimeError(
            "built a witness with kernel value %d, a unit mod %d"
            % (kernel_value, chi.prime.p)
        )
    return Witness(element, kernel_value)


def _element(prime, acc, m):
    """The group element t*acc of the raw unit acc, or the identity at
    precision m when acc is None (no step ran)."""
    if acc is None:
        return NottinghamElement.identity(prime, m)
    return NottinghamElement(prime, UnitSeries._from_raw(prime, acc))


def _clear_units(chi, l, m):
    """Stage one's steps on chi of type <l, m>: the raw accumulated unit
    that clears every unit digit below l, or None when no step ran.

    Each step reads the two values it needs off acc, mod p to depth l
    against chi's own unit layer: the digit x_i = chi(E_i o acc) and
    (chi acc)(1 + c t^r) = chi(1 + c t^r acc^r) for f, r = l - i."""
    p = chi.prime.p
    layer = _weights(chi.coeffs, p, p, l)  # chi's values mod p
    x_l = layer[l] % p
    acc = None
    for i in range(l - 1, 0, -1):
        if i % p == 0:
            continue
        x_i = _acted_value(layer, acc, i, p, p, l) % p
        if not x_i:
            continue
        c = (-x_i * pow(i * x_l % p, -1, p)) % p
        r = l - i
        zr = [1] + [0] * i if acc is None else _pow_raw(acc, r, p, i)
        kernel_part = _value(_row(r, [c * z % p for z in zr]), layer, p, p, l)
        f = (-kernel_part * pow(x_l, -1, p)) % p
        step = [1] + [0] * m
        step[r] = c
        s = _mul_raw(step, _basis_power(l, f, p, m), p, m)
        acc = s if acc is None else _compose_raw(s, acc, p, m)
    return acc


def _clear_p_part(chi, l, m, acc):
    """Stage two's steps on chi acted on by acc (no unit digits below l)
    composed onto acc, as an element; chi acted on by it, from its
    values; and kappa = chi(acc), the kernel value the steps keep (0 when
    acc is None).  x_l and b_m are read from chi, as the action keeps
    both.  The steps' factors (1+t^m)^e land last, as one digit at
    degree m that restores kappa."""
    prime = chi.prime
    p, psq = prime.p, prime.psq
    weights = _weights(chi.coeffs, p, psq, m)
    x_l = chi.value(l) % p
    top = weights[m]
    if top % p:
        raise RuntimeError("top value %d is a unit" % top)
    b_m = (top // p) % p
    if b_m == 0:
        raise RuntimeError("top digit vanished; type bookkeeping is broken")
    kappa = 0 if acc is None else _value(acc, weights, p, psq, m)
    # the window [m-l, m], which no step moves, along one chain of powers
    values = {}
    zv = None if acc is None else _pow_raw(acc, m - l - 1, p, l + 1)
    for v in range(m - l, m + 1):
        if zv is not None:
            zv = _mul_raw(zv, acc, p, m - v)
        if v % p:
            values[v] = _row_value(v, zv, weights, p, psq, m)
    stepped = False
    for j in range(1, m - l):
        q = m - l - j
        if q % p == 0:
            continue
        cq = values[q] = _acted_value(weights, acc, q, p, psq, m)
        a_q = ((cq - x_l) // p) % p if q == l else (cq // p) % p
        if q != l and cq % p:
            raise RuntimeError("unit digit appeared at %d during stage two" % q)
        if a_q == 0:
            continue
        d = (-a_q * pow(q * b_m % p, -1, p)) % p
        v = l + j
        u_j = _basis_power(v, d, p, m)
        # the module docstring's argument needs acc moved first at v, by d
        old = [1] + [0] * m if acc is None else acc
        acc = u_j if acc is None else _compose_raw(u_j, acc, p, m)
        if acc[:v] != old[:v] or (acc[v] - old[v] - d) % p:
            raise RuntimeError("stage two did not reach a reduced form at %d" % q)
        values[q] = (cq + q * d * top) % psq
        stepped = True
    if stepped:
        # chi(acc + E*t^m) = chi(acc) + E*top, and the e's sum to E mod p
        rest = kappa - _value(acc, weights, p, psq, m)
        if rest % p:
            raise RuntimeError("stage two moved the kernel value by %d" % rest)
        acc[m] = (acc[m] + rest // p * pow(b_m, -1, p)) % p
    return _element(prime, acc, m), Character(prime, values), kappa


def reduce_mod_p(chi: Character):
    """Stage one: clear every unit digit below l.

    Returns (character, witness); the output character agrees with chi at
    and above l mod p and has zero unit digits below l.
    """
    p = chi.prime.p
    l, m = break_sequence(chi)
    acc = _clear_units(chi, l, m)
    element = _element(chi.prime, acc, m)
    cur = chi if acc is None else char_act(element, chi)
    for i in range(1, l):
        if i % p and cur.value(i) % p:
            raise RuntimeError("stage one left a unit digit at %d" % i)
    return cur, _kernel_witness(chi, element)


def clear_low_p_part(chi: Character):
    """Stage two: clear the p-digits below the window [m-l, m].

    Requires stage-one form (no unit digits below l), on which stage one
    takes no step, so this is `reduce` on chi.  Returns (character,
    witness) with the output reduced.
    """
    p = chi.prime.p
    for i in range(1, break_sequence(chi)[0]):
        if i % p and chi.value(i) % p:
            raise ValueError("expects stage-one form: unit digit at %d" % i)
    form, witness = reduce(chi)
    return form.to_character(), witness


def reduce(chi: Character):
    """Full reduction: returns (ReducedForm, total witness).

    The total witness u runs both stages' steps, and the form is chi
    acted on by u, from stage two's values; before returning, the form
    is checked to be reduced and chi(u(t)/t) to vanish mod p.
    """
    l, m = break_sequence(chi)
    element, form, kappa = _clear_p_part(chi, l, m, _clear_units(chi, l, m))
    witness = _kernel_witness(chi, element, kappa)
    try:
        return ReducedForm.from_character(form), witness
    except ValueError as exc:
        raise RuntimeError("reduction did not reach a reduced form: %s" % exc) from exc


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
