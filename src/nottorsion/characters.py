"""Characters of the principal unit group with values mod p^2.

A continuous character is determined by its values on the basis units
E_j = 1 + t^j with j coprime to p, so it is stored as a finite map
j -> c_j with c_j in Z/p^2 Z.  The natural depth bound of a character is
the largest degree its evaluation can see:

    bound = max(largest supported index, p * largest index with c_j a unit)

and the character is trivial on units congruent to 1 mod t^(bound+1).

The break type <l, m> of a surjective character has l the largest index
carrying a unit value and m its bound.  Valid types satisfy gcd(l,p)=1,
m >= p*l, and p | m forces m = p*l.

The standard expansion splits each value c_j = x_j + p * a_j into a unit
digit x_j and a p-digit a_j, both in 0..p-1; x_j vanishes above l.

The Nottingham group acts on characters by precomposition: the element u
sends chi to the character f |-> chi(f o u).  Reduced forms are the
canonical orbit representatives: their standard expansion has its unit
digit only at l and its p-digits only on the window [m-l, m] (when
m = 2l the two overlap at l and both digits live there).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import re

from .series import (
    NottinghamElement,
    ParseError,
    UnitSeries,
    _decompose_raw,
    _frobenius,
    _mul_raw,
    _strip_run,
    _Value,
    as_prime,
)


class Character(_Value):
    """A character of the principal unit group, valued in Z/p^2 Z.

    `coeffs` maps basis indices j (coprime to p) to values c_j; zero
    values are dropped, so an absent index means value 0.
    """

    __slots__ = ("prime", "coeffs")

    def __init__(self, prime, coeffs):
        prime = as_prime(prime)
        clean = {}
        for j, v in coeffs.items():
            j = int(j)
            if j < 1:
                raise ValueError("character index %d must be >= 1" % j)
            if j % prime.p == 0:
                raise ValueError(
                    "character index %d divisible by p=%d" % (j, prime.p)
                )
            v = int(v) % prime.psq
            if v:
                clean[j] = v
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "coeffs", clean)

    def value(self, j):
        """c_j, the value on the basis unit E_j."""
        return self.coeffs.get(int(j), 0)

    @property
    def support(self):
        return tuple(sorted(self.coeffs))

    @property
    def is_surjective(self):
        """True when some value is a unit mod p, i.e. the image is all of Z/p^2."""
        p = self.prime.p
        return any(v % p for v in self.coeffs.values())

    @property
    def bound(self):
        """Depth through which evaluation must see its argument."""
        p = self.prime.p
        top = 1
        for j, v in self.coeffs.items():
            top = max(top, j * p if v % p else j)
        return top

    def _ident(self):
        return self.prime, tuple(sorted(self.coeffs.items()))

    def __str__(self):
        return "p=%d; %s" % (self.prime.p, format_character_literal(self))

    def __repr__(self):
        return "Character(p=%d, %r)" % (self.prime.p, dict(sorted(self.coeffs.items())))


CharType = collections.namedtuple("CharType", "l m")
CharType.__doc__ = "A break type <l, m>: l the unit depth, m the full depth."


def validate_type(p, l, m) -> bool:
    """True when <l, m> is a realizable break type over F_p."""
    p = as_prime(p).p
    l, m = int(l), int(m)
    if l < 1 or m < 1:
        return False
    if math.gcd(l, p) != 1:
        return False
    if m < p * l:
        return False
    if m > p * l and m % p == 0:
        return False
    return True


def require_valid_type(p, l, m) -> CharType:
    if not validate_type(p, l, m):
        raise ValueError(
            "<%d, %d> is not a valid break type for p=%d" % (l, m, as_prime(p).p)
        )
    return CharType(int(l), int(m))


def break_sequence(chi: Character) -> CharType:
    """Break type of a surjective character."""
    p = chi.prime.p
    units = [j for j, v in chi.coeffs.items() if v % p]
    if not units:
        raise ValueError("character is not surjective, no break type")
    return CharType(max(units), chi.bound)


class StandardExpansion(_Value):
    """Digit split of a surjective character: c_j = x_j + p * a_j.

    Unit digits x_j live at indices j <= l, p-digits a_j at any supported
    index; zero digits are dropped.
    """

    __slots__ = ("prime", "x", "a", "char_type")

    def __init__(self, prime, x, a, char_type):
        prime = as_prime(prime)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "x", {j: v for j, v in x.items() if v})
        object.__setattr__(self, "a", {j: v for j, v in a.items() if v})
        object.__setattr__(self, "char_type", char_type)

    def to_character(self) -> Character:
        p = self.prime.p
        coeffs = dict(self.x)
        for j, v in self.a.items():
            coeffs[j] = coeffs.get(j, 0) + p * v
        return Character(self.prime, coeffs)

    def _ident(self):
        return (
            self.prime,
            tuple(sorted(self.x.items())),
            tuple(sorted(self.a.items())),
            self.char_type,
        )

    def __repr__(self):
        return "StandardExpansion(p=%d, x=%r, a=%r, type=%r)" % (
            self.prime.p,
            dict(sorted(self.x.items())),
            dict(sorted(self.a.items())),
            self.char_type,
        )


def standard_expansion(chi: Character) -> StandardExpansion:
    """Split each value c_j into a unit digit x_j and a p-digit a_j.

    l is the largest index with a unit value, so every x_j above l is 0.
    """
    p = chi.prime.p
    x = {j: v % p for j, v in chi.coeffs.items()}
    a = {j: v // p for j, v in chi.coeffs.items()}
    return StandardExpansion(chi.prime, x, a, break_sequence(chi))


def window_indices(p, l, m):
    """Indices of the reduced-form window: j in [m-l, m], j coprime to p."""
    p = as_prime(p).p
    return tuple(j for j in range(m - l, m + 1) if j % p)


@functools.cache
def _window_digits(p, l, m):
    """Window index -> allowed p-digits: 0..p-1, except that the top digit
    b_m is nonzero when p does not divide m.  The dict is cached per type
    and shared, so callers only read it."""
    return {j: range(1 if j == m and m % p else 0, p) for j in window_indices(p, l, m)}


class ReducedForm(_Value):
    """Canonical orbit representative: unit digit x_l plus window p-digits b.

    The standard expansion of its character has the unit digit x_l only at
    l and the p-digits b_j only on the window [m-l, m].  The window map `b`
    carries every coprime index of the window, zeros included; when p does
    not divide m the top digit b_m is nonzero.  For m = 2l the index l lies
    in the window and carries both digits.
    """

    __slots__ = ("prime", "l", "m", "x_l", "b")

    def __init__(self, prime, l, m, x_l, b):
        prime = as_prime(prime)
        l, m = require_valid_type(prime, l, m)
        x_l = int(x_l)
        if not 1 <= x_l < prime.p:
            raise ValueError("unit digit x_l must lie in 1..%d" % (prime.p - 1))
        digits = _window_digits(prime.p, l, m)
        extra = set(b) - set(digits)
        if extra:
            raise ValueError("window digits at indices outside [m-l, m]: %r" % sorted(extra))
        bb = {}
        for j, allowed in digits.items():
            v = bb[j] = int(b.get(j, 0))
            if v not in allowed:
                raise ValueError(
                    "window digit at %d must lie in %d..%d" % (j, allowed[0], allowed[-1])
                )
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "x_l", x_l)
        object.__setattr__(self, "b", bb)

    @property
    def char_type(self):
        return CharType(self.l, self.m)

    def to_character(self) -> Character:
        return StandardExpansion(
            self.prime, {self.l: self.x_l}, self.b, self.char_type
        ).to_character()

    @classmethod
    def from_character(cls, chi: Character) -> "ReducedForm":
        """The reduced form of chi, or ValueError.  The constructor refuses
        p-digits off the window; this checks that unit digits lie only at l."""
        se = standard_expansion(chi)
        l, m = se.char_type
        stray = sorted(set(se.x) - {l})
        if stray:
            raise ValueError("unit digits below l at %r" % stray)
        return cls(chi.prime, l, m, se.x[l], se.a)

    def _ident(self):
        return self.prime, self.l, self.m, self.x_l, tuple(sorted(self.b.items()))

    def __repr__(self):
        return "ReducedForm(p=%d, l=%d, m=%d, x_l=%d, b=%r)" % (
            self.prime.p,
            self.l,
            self.m,
            self.x_l,
            dict(sorted(self.b.items())),
        )


def is_reduced(chi: Character) -> bool:
    """True when chi is exactly representable as a ReducedForm."""
    if not chi.is_surjective:
        raise ValueError("character is not surjective")
    try:
        ReducedForm.from_character(chi)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Evaluation and the group action.


def char_eval(chi: Character, f: UnitSeries) -> int:
    """chi(f) in Z/p^2 Z; f must be tracked at least to chi's bound."""
    if f.prime != chi.prime:
        raise ValueError("mismatched primes")
    bound = chi.bound
    if f.precision < bound:
        raise ValueError(
            "evaluation needs precision >= %d, have %d" % (bound, f.precision)
        )
    p, psq = chi.prime.p, chi.prime.psq
    return _value(f._raw(), _weights(chi.coeffs, p, psq, bound), p, psq, bound)


def _basis_value(coeffs, v, p, psq):
    """chi(E_v) for any v >= 1, with coeffs mapping each coprime k to chi(E_k).

    Over F_p, E_(pw) = E_w^p, so chi(E_v) is c_v when p does not divide v,
    p * c_(v/p) when p exactly divides v, and 0 when p^2 divides v.
    """
    if v % p:
        return coeffs.get(v, 0)
    if v % psq:
        return p * coeffs.get(v // p, 0) % psq
    return 0


def _pairing(pairs, coeffs, psq):
    """sum(e * chi(E_k)) mod p^2 over (k, e) pairs; coeffs maps k to chi(E_k)."""
    total = 0
    for k, e in pairs:
        c = coeffs.get(k)
        if c:
            total += e * c
    return total % psq


def _weights(coeffs, p, psq, m):
    """[chi(E_k) for k = 0 .. m] (0 at k = 0), from `_basis_value`."""
    return [_basis_value(coeffs, k, p, psq) for k in range(m + 1)]


def _weigh(run, weights, psq):
    """sum(c * weights[k]) mod psq over a strip run's (k, c) pairs."""
    return sum([c * weights[k] for k, c in run]) % psq


def _value(f, weights, p, psq, m):
    """chi(f) mod psq for a raw unit f through degree m, with weights[k] =
    chi(E_k): f is the product of (1+t^k)^c over its strip run."""
    return _weigh(_strip_run(f, p, m), weights, psq)


def _row(j, zj):
    """E_j o u = 1 + t^j z^j as a raw unit, from zj = z^j."""
    return [1, *[0] * (j - 1), *zj]


def _action_row(j, zj, p, psq, m):
    """`_decompose_raw` exponents of E_j o u = 1 + t^j z^j to depth m.

    zj is z^j, the j-th power of the raw unit part of u, through degree
    m - j, so the row reads only the unit digits a_1 .. a_(m-j) of u; or
    None, where the row is E_j itself (see `_action_rows`).
    """
    if zj is None:
        return {j: 1}
    return _decompose_raw(_row(j, zj), p, psq, m)


def _row_value(j, zj, weights, p, psq, m):
    """chi(E_j o u) mod psq, with zj as in `_action_row` and weights as
    in `_value`."""
    if zj is None:
        return weights[j]
    return _value(_row(j, zj), weights, p, psq, m)


def _action_rows(z, p, m):
    """The powers of z behind the rows E_j o u = 1 + t^j z^j, j coprime
    to p, j <= m.

    z is the raw unit part of u, read through degree m - 1.  Lazily
    yields (j, zj) in ascending j, zj = z^j through degree m - j, for
    `_action_row` or `_row_value`; a consumer that stops early skips the
    powers it did not need.

    With z = 1 mod t^r, t^j z^j = t^j mod t^(j+r), so every row with
    j + r > m is E_j itself and comes with zj None, without a power.
    Below that, z^1 is a copy of z, z^j for p | j is the re-indexing
    z^(j/p)(t^p) over F_p, and each other z^j takes one product.
    """
    r = next((k for k, c in enumerate(z[1:m], 1) if c), m)
    powers = [[1], [*z[:m], *[0] * (m - len(z))]]  # z^i through degree m - i
    for j in range(1, (m if m % p else m - 1) + 1):
        if j + r > m:
            if j % p:
                yield j, None
        elif j % p:
            if j > 1:
                powers.append(_mul_raw(powers[-1], z, p, m - j))
            yield j, powers[j]
        else:
            powers.append(_frobenius(powers[j // p], p, m - j))


def char_act(u: NottinghamElement, chi: Character) -> Character:
    """The character f |-> chi(f o u); u moves chi within its orbit."""
    if u.prime != chi.prime:
        raise ValueError("mismatched primes")
    bound = chi.bound
    if u.precision < bound:
        raise ValueError(
            "action needs element precision >= %d, have %d" % (bound, u.precision)
        )
    p, psq = chi.prime.p, chi.prime.psq
    weights = _weights(chi.coeffs, p, psq, bound)
    return Character(chi.prime, {
        j: _row_value(j, zj, weights, p, psq, bound)
        for j, zj in _action_rows(u.unit._raw(), p, bound)
    })


def scalar_mul(n: int, chi: Character) -> Character:
    """The character chi^n, i.e. every value multiplied by n mod p^2."""
    n = int(n)
    return Character(chi.prime, {j: n * v for j, v in chi.coeffs.items()})


# ---------------------------------------------------------------------------
# Enumeration.


@functools.cache
def _type_choice_lists(p, l, m):
    """The tuple of indices a character of type <l, m> carries, ascending,
    and the tuple of the values each index may take, as ranges and tuples.
    Cached per type and shared, so callers only read it."""
    prime = as_prime(p)
    p = prime.p
    require_valid_type(prime, l, m)
    indices = tuple(j for j in range(1, m + 1) if j % p)
    choices = []
    for j in indices:
        if j < l:
            choices.append(range(prime.psq))
        elif j == l:
            choices.append(tuple(v for v in range(prime.psq) if v % p))
        elif j < m:
            choices.append(range(0, prime.psq, p))
        else:  # j == m, only reached when p does not divide m
            choices.append(range(p, prime.psq, p))
    return indices, tuple(choices)


def character_count(p, l, m) -> int:
    """Number of characters of exact break type <l, m>."""
    count = 1
    for choices in _type_choice_lists(p, l, m)[1]:
        count *= len(choices)
    return count


def enumerate_characters(p, l, m):
    """All characters of exact break type <l, m>, in lexicographic order.

    Order: coefficient vectors over ascending indices compare left to
    right, each coefficient ascending.
    """
    prime = as_prime(p)
    indices, choices = _type_choice_lists(prime.p, l, m)
    for values in itertools.product(*choices):
        yield Character(prime, dict(zip(indices, values)))


def enumerate_reduced_forms(p, l, m):
    """All reduced forms of type <l, m>, in lexicographic order."""
    prime = as_prime(p)
    require_valid_type(prime, l, m)
    digits = _window_digits(prime.p, l, m)
    for x_l in range(1, prime.p):
        for values in itertools.product(*digits.values()):
            yield ReducedForm(prime, l, m, x_l, dict(zip(digits, values)))


# ---------------------------------------------------------------------------
# Text format.


_PAIR_RE = re.compile(r"\s*(\d+)\s*:\s*(\d+)\s*$")


def format_character_literal(chi: Character) -> str:
    """Bare literal "5:1,15:2" (ascending indices); "0" when empty."""
    if not chi.coeffs:
        return "0"
    return ",".join("%d:%d" % (j, chi.coeffs[j]) for j in sorted(chi.coeffs))


def parse_character_literal(text: str, p) -> Character:
    """Parse "5:1,15:2" with a given prime; indices must be coprime to p,
    values must lie in 0..p^2-1."""
    prime = as_prime(p)
    coeffs = {}
    pos = 0
    stripped = text.strip()
    if stripped == "" or stripped == "0":
        return Character(prime, {})
    for chunk in text.split(","):
        m = _PAIR_RE.match(chunk)
        if not m:
            raise ParseError("unreadable index:value pair %r" % chunk.strip(),
                             pos + len(chunk) - len(chunk.lstrip()))
        j, v = int(m.group(1)), int(m.group(2))
        if j < 1 or j % prime.p == 0:
            raise ParseError(
                "index %d must be positive and coprime to p=%d" % (j, prime.p),
                pos + m.start(1),
            )
        if v >= prime.psq:
            raise ParseError(
                "value %d out of range 0..%d" % (v, prime.psq - 1),
                pos + m.start(2),
            )
        if j in coeffs:
            raise ParseError("repeated index %d" % j, pos + m.start(1))
        coeffs[j] = v
        pos += len(chunk) + 1
    return Character(prime, coeffs)
