"""Truncated power series arithmetic over a prime field.

Everything in this module is exact integer arithmetic.  A principal unit

    1 + a_1 t + a_2 t^2 + ... + a_N t^N        (coefficients mod p)

is stored as a tuple of residues, and a group element t*(unit) composes
by substitution of series.  The basis units E_j = 1 + t^j with j coprime
to p act as a multiplicative coordinate system: modulo t^(m+1) every
principal unit is a product of E_j powers with exponents mod p^2 (higher
p-power multiplicities of an index contribute nothing mod p^2), and
`unit_decompose` recovers those exponents by greedy stripping from the
lowest degree up.

All operations truncate at a fixed precision N, meaning degrees above N
are unknown rather than zero.  Operations never mutate their inputs.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from array import array


class ParseError(ValueError):
    """Malformed text input.

    `args[0]` is the bare message.  `offset`, when given, is the index in
    the input text of the first character of the bad part, and str()
    appends it as "(at offset N)".
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset

    def __str__(self):
        if self.offset is None:
            return self.args[0]
        return "%s (at offset %d)" % (self.args[0], self.offset)


class _Value:
    """Base of the library's records: immutable, equal and hashed by
    content, and restored by pickle and copy.

    A record sets its slots once, in its constructor, through
    object.__setattr__.  Equality and hashing read the type and
    `_ident()`, by default the tuple of the record's slots; a record that
    holds a dict overrides `_ident` to sort the dict's items there, when
    the key is read, and stores no key.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _ident(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return other is self or (
            type(other) is type(self) and other._ident() == self._ident()
        )

    def __hash__(self):
        return hash((type(self), self._ident()))

    def __setstate__(self, state):
        # pickle and copy hand back (None, {slot: value}); setting the
        # slots through __setattr__ would raise
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Prime(_Value):
    """A prime p in the supported range 2..31, with p^2 cached."""

    __slots__ = ("p", "psq")

    def __init__(self, p):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError("prime must be an integer, got %r" % (p,))
        if p < 2 or p > 31:
            raise ValueError("prime must lie in 2..31, got %d" % p)
        if any(p % d == 0 for d in range(2, p)):
            raise ValueError("%d is not prime" % p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "psq", p * p)

    def __repr__(self):
        return "Prime(%d)" % self.p


def as_prime(p):
    """Coerce an int or Prime to a Prime."""
    return p if isinstance(p, Prime) else Prime(p)


# ---------------------------------------------------------------------------
# Raw kernels.  A raw series is a plain list c[0..n] of residues mod p with
# c[d] the coefficient of t^d.  These run in the innermost search loops, so
# they stay free of object overhead.

# _mul_raw packs one coefficient per field of an unsigned array, in native
# byte order; these are the typecodes by item size ("I" takes size 4 where
# "L" is 4 too).
_FIELD_CODES = {array(code).itemsize: code for code in "QLI"}
_ORDER = sys.byteorder


def _field_width(n, p):
    """Bytes per field that hold every coefficient of a `_mul_raw` product.

    With both operands cut to n+1 residues, each coefficient of their full
    product is a sum of at most n+1 products of two residues, so it is at
    most (n+1)(p-1)^2: 4-byte fields hold that below 2^32, 8-byte ones
    below 2^64.  Past that no field is safe, and the product refuses.
    """
    top = (n + 1) * (p - 1) ** 2
    if top < 1 << 32:
        return 4
    if top < 1 << 64:
        return 8
    raise ValueError("coefficients up to %d overflow an 8-byte field" % top)


def _mul_raw(a, b, p, n):
    # Kronecker substitution: pack each operand into one int with one
    # fixed-width field per coefficient, multiply once, and unpack the low
    # n+1 fields.  Entries must be residues 0..p-1, so `_field_width`
    # keeps every field of the product from carrying into its neighbour.
    # Packing and unpacking both read bytes in native order, so on either
    # endianness field k of the unpacked array is the coefficient of t^k.
    a, b = a[: n + 1], b[: n + 1]
    width = _field_width(n, p)
    code = _FIELD_CODES[width]
    prod = int.from_bytes(array(code, a).tobytes(), _ORDER) * int.from_bytes(
        array(code, b).tobytes(), _ORDER
    )
    size = len(a) + len(b) - 1
    low = prod.to_bytes(size * width, _ORDER)[: (n + 1) * width]
    out = [v % p for v in array(code, low)]
    if size <= n:
        out += [0] * (n + 1 - size)
    return out


def _frobenius(x, p, k):
    """x(t^p), which is x^p over F_p, truncated at degree k; reads
    x[0 .. k // p], which must all be there."""
    out = [0] * (k + 1)
    out[::p] = x[: k // p + 1]
    return out


def _pow_digit(a, d, p, k):
    """a^d truncated at degree k, for a digit 1 <= d < p; length k+1."""
    base = list(a[: k + 1])
    base += [0] * (k + 1 - len(base))
    out = None
    while True:
        if d & 1:
            out = base if out is None else _mul_raw(out, base, p, k)
        d >>= 1
        if not d:
            return out
        base = _mul_raw(base, base, p, k)


def _pow_raw(a, e, p, n):
    # a^e truncated at degree n, for a unit a (a[0] == 1) and any integer e.
    # Over F_p, x^p = x(t^p), so a p-th power is a re-indexing.  With e in
    # base p, Horner from the top digit makes each step out <- out(t^p) *
    # a^d, both truncated at n // p^i at digit i: only the digit powers
    # multiply, and the high digits do so at low precision.  The principal
    # units mod t^(n+1) have exponent p^L, the least p-power above n, so e
    # is taken mod p^L first; that also turns a negative e into a positive
    # one.
    q = 1
    while q <= n:
        q *= p
    e %= q
    out = None
    while q > 1:
        q //= p
        k = n // q
        if out is not None:
            out = _frobenius(out, p, k)
        d = e // q % p
        if d:
            x = _pow_digit(a, d, p, k)
            out = x if out is None else _mul_raw(out, x, p, k)
    if out is None:
        return [1] + [0] * n
    return out


def _subst_raw(f, z, p, n):
    # f(t*z(t)) truncated at degree n, where f is a raw series and z the
    # unit part of the substituted element; z^k is only needed to degree
    # n-k, so z^n is its constant 1.  Only the nonzero f[k] need z^k, and
    # each takes one power: z itself at k = 1, one product of the previous
    # power next to it, one `_pow_raw` across a gap, none at k = n.  The
    # steps (1+t^k)^d (1+t^m)^e of a reduction are sparse by Lucas' theorem.
    out = [0] * (n + 1)
    out[0] = f[0]
    zp, prev = None, 0
    for k in range(1, min(len(f), n + 1)):
        fk = f[k]
        if not fk:
            continue
        if k == n:
            out[n] += fk
            continue
        if k == 1:
            zp = z[:n]
        elif k - prev == 1:
            zp = _mul_raw(zp, z, p, n - k)
        else:
            zp = _pow_raw(z, k, p, n - k)
        prev = k
        for d, zd in enumerate(zp):
            if zd:
                out[k + d] += fk * zd
    return [v % p for v in out]


@functools.lru_cache(maxsize=None)
def _strip_tables(p, m):
    """Binomial rows of (1+t^k)^c mod p, truncated at degree m.

    tables[(k, c)] is a tuple of (degree, coefficient) pairs, the terms
    C(c, i) t^(i*k) with 1 <= i <= c and i*k <= m (the leading 1 is
    implicit).  Entries exist for 1 <= k <= m // 2, the degrees at which
    `_strip_run` divides, and 1 <= c < p; as c < p, no C(c, i) vanishes
    mod p, so a row has at most c terms.
    """
    return {
        (k, c): tuple(
            (i * k, math.comb(c, i) % p) for i in range(1, min(c, m // k) + 1)
        )
        for k in range(1, m // 2 + 1)
        for c in range(1, p)
    }


def _strip_run(f, p, n):
    """Greedy run of the unit f over the units 1+t^k, k = 1..n.

    Scans degrees 1..n; at each nonzero residual coefficient c at degree
    k it records (k, c), then divides the residual by the binomial
    (1+t^k)^c in place, so f = prod (1+t^k)^c mod t^(n+1) over the
    returned list of pairs.  Only f[0..n] is read and f is never mutated;
    f[0] must be 1.
    """
    tables = _strip_tables(p, n)
    r = list(f[: n + 1])
    run = []
    half = n // 2
    for k in range(1, half + 1):
        cv = r[k]
        if not cv:
            continue
        run.append((k, cv))
        tab = tables[(k, cv)]
        # ascending division: the quotient at d is r[d] less the row times
        # the quotient at d - i*k, which is already in place.  The residual
        # is 1 below degree k and the quotient is 0 at k, so degrees k+1 ..
        # 2k-1 keep their values and the division starts at 2k.
        r[k] = 0
        for d in range(2 * k, n + 1):
            acc = r[d]
            for dk, w in tab:
                if dk > d:
                    break
                acc -= w * r[d - dk]
            r[d] = acc % p
    # a division at k > n/2 starts beyond n, so above n/2 the residual's
    # coefficients are the run's digits
    run += [(k, cv) for k, cv in enumerate(r[half + 1 :], half + 1) if cv]
    return run


def _decompose_raw(f, p, psq, m):
    """Greedy exponents of f on the basis units E_j, j coprime to p, j <= m.

    A digit c of the strip run at degree k = j*p^s feeds c*p^s into the
    exponent of E_j (nothing survives mod p^2 for s >= 2).  Requires
    f[0] == 1 and len(f) >= m+1.
    """
    e = {}
    for k, cv in _strip_run(f, p, m):
        kk, s = k, 0
        while kk % p == 0:
            kk //= p
            s += 1
        if s == 0:
            e[kk] = (e.get(kk, 0) + cv) % psq
        elif s == 1:
            e[kk] = (e.get(kk, 0) + cv * p) % psq
    return {j: v for j, v in e.items() if v}


def _basis_power(k, e, p, n):
    """Raw (1 + t^k)^e through degree n, for 1 <= k <= n and any integer e.

    (1+t^k)^q = 1 + t^(kq) over F_p for a p-power q, so with q the least
    p-power above n // k only e mod q matters, which also makes a negative
    e positive.  By Lucas' theorem the coefficient of t^(ik) is then
    prod C(e_s, i_s) mod p over the base-p digits of e and i: it is nonzero
    exactly when every digit of i is at most e's.  The terms are built
    digit by digit from the top, keeping only i <= n // k.
    """
    top = n // k
    q = 1
    while q <= top:
        q *= p
    e %= q
    terms = [(0, 1)]
    while q > 1:
        q //= p
        d, e = divmod(e, q)
        terms = [
            (i + a * q, c * math.comb(d, a) % p)
            for i, c in terms
            for a in range(d + 1)
            if i + a * q <= top
        ]
    raw = [0] * (n + 1)
    for i, c in terms:
        raw[i * k] = c
    return raw


def _compose_raw(zu, zv, p, n):
    """Raw unit part of u(v(t)) through degree n, from the raw unit parts
    zu of u and zv of v.  u(v(t)) = (t*zu)(t*zv), so it is the substitution
    of t*zv into t*zu through degree n+1, less its leading factor t: the
    term of zu at degree k takes zv^(k+1)."""
    return _subst_raw([0, *zu], zv, p, n + 1)[1:]


# ---------------------------------------------------------------------------
# Public value types.


class UnitSeries(_Value):
    """A principal unit 1 + a_1 t + ... + a_N t^N over F_p.

    `coeffs` holds (a_1, ..., a_N); the constant term is always 1.  The
    precision N is the highest tracked degree and must be at least 1.
    """

    __slots__ = ("prime", "coeffs")

    def __init__(self, prime, coeffs):
        prime = as_prime(prime)
        coeffs = tuple(int(c) % prime.p for c in coeffs)
        if not coeffs:
            raise ValueError("unit series needs precision >= 1")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def precision(self):
        return len(self.coeffs)

    @classmethod
    def one(cls, prime, precision):
        return cls(prime, (0,) * precision)

    @classmethod
    def basis(cls, prime, j, precision):
        """E_j = 1 + t^j at the given precision."""
        if not 1 <= j <= precision:
            raise ValueError("basis index %d outside 1..%d" % (j, precision))
        return cls(prime, tuple(1 if d == j else 0 for d in range(1, precision + 1)))

    @classmethod
    def _from_raw(cls, prime, raw):
        """Wrap a raw kernel output, whose entries are already residues
        mod p, without reducing them again."""
        coeffs = tuple(raw[1:])
        if not coeffs:
            raise ValueError("unit series needs precision >= 1")
        unit = object.__new__(cls)
        object.__setattr__(unit, "prime", prime)
        object.__setattr__(unit, "coeffs", coeffs)
        return unit

    def _raw(self):
        return [1, *self.coeffs]

    def coefficient(self, d):
        """Coefficient of t^d, with d <= precision (d = 0 gives 1)."""
        if d == 0:
            return 1
        if not 1 <= d <= self.precision:
            raise ValueError("degree %d outside tracked range" % d)
        return self.coeffs[d - 1]

    def at_precision(self, n):
        """Truncate, or extend by explicit zeros (for literal polynomials)."""
        if n < 1:
            raise ValueError("precision must be >= 1")
        if n <= self.precision:
            return UnitSeries(self.prime, self.coeffs[:n])
        return UnitSeries(self.prime, self.coeffs + (0,) * (n - self.precision))

    def __mul__(self, other):
        return unit_mul(self, other)

    def __pow__(self, e):
        return unit_pow(self, e)

    def __str__(self):
        return format_unit(self)

    def __repr__(self):
        return "UnitSeries(p=%d, %s)" % (self.prime.p, format_unit(self))


class NottinghamElement(_Value):
    """A group element u(t) = t * z(t) with z a principal unit.

    The unit part is tracked through degree N (its precision), so u itself
    is known through total degree N + 1.  Composition is substitution.
    """

    __slots__ = ("prime", "unit")

    def __init__(self, prime, unit):
        prime = as_prime(prime)
        if not isinstance(unit, UnitSeries):
            raise ValueError("unit part must be a UnitSeries")
        if unit.prime != prime:
            raise ValueError("unit part has mismatched prime")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "unit", unit)

    @property
    def precision(self):
        return self.unit.precision

    @classmethod
    def identity(cls, prime, precision):
        prime = as_prime(prime)
        return cls(prime, UnitSeries.one(prime, precision))

    @classmethod
    def from_unit_coeffs(cls, prime, coeffs):
        prime = as_prime(prime)
        return cls(prime, UnitSeries(prime, coeffs))

    def __str__(self):
        if all(c == 0 for c in self.unit.coeffs):
            return "t"
        return "t*(%s)" % format_unit(self.unit)

    def __repr__(self):
        return "NottinghamElement(p=%d, %s)" % (self.prime.p, str(self))


class ExponentVector(_Value):
    """Exponents on the basis units E_j: a map j -> e_j mod p^2.

    Keys are coprime to p and bounded by `bound`; zero exponents are
    dropped, so an absent key means exponent 0.
    """

    __slots__ = ("prime", "bound", "exps")

    def __init__(self, prime, bound, exps):
        prime = as_prime(prime)
        bound = int(bound)
        if bound < 1:
            raise ValueError("bound must be >= 1")
        clean = {}
        for j, v in exps.items():
            j = int(j)
            if j < 1 or j > bound:
                raise ValueError("index %d outside 1..%d" % (j, bound))
            if j % prime.p == 0:
                raise ValueError("index %d divisible by p=%d" % (j, prime.p))
            v = int(v) % prime.psq
            if v:
                clean[j] = v
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "exps", clean)

    def _ident(self):
        return self.prime, self.bound, tuple(sorted(self.exps.items()))

    def __repr__(self):
        return "ExponentVector(p=%d, bound=%d, %r)" % (
            self.prime.p,
            self.bound,
            dict(sorted(self.exps.items())),
        )


# ---------------------------------------------------------------------------
# Operations.


def _require_same_prime(a, b):
    if a.prime != b.prime:
        raise ValueError("mismatched primes: %d vs %d" % (a.prime.p, b.prime.p))


def unit_mul(a: UnitSeries, b: UnitSeries) -> UnitSeries:
    """Product of two units at their common precision."""
    _require_same_prime(a, b)
    if a.precision != b.precision:
        raise ValueError(
            "mismatched precisions: %d vs %d" % (a.precision, b.precision)
        )
    n = a.precision
    return UnitSeries._from_raw(a.prime, _mul_raw(a._raw(), b._raw(), a.prime.p, n))


def unit_pow(a: UnitSeries, e: int) -> UnitSeries:
    """Integer power of a unit; negative exponents invert first."""
    n = a.precision
    return UnitSeries._from_raw(a.prime, _pow_raw(a._raw(), int(e), a.prime.p, n))


def unit_subst(f: UnitSeries, u: NottinghamElement) -> UnitSeries:
    """f(u(t)) for a unit f, truncated to u's precision."""
    _require_same_prime(f, u)
    if f.precision < u.precision:
        raise ValueError(
            "substitution needs f precision >= element precision (%d < %d)"
            % (f.precision, u.precision)
        )
    n = u.precision
    raw = _subst_raw(f._raw(), u.unit._raw(), f.prime.p, n)
    return UnitSeries._from_raw(f.prime, raw)


def nott_compose(u: NottinghamElement, v: NottinghamElement) -> NottinghamElement:
    """Composition u(v(t)); apply v first, then u."""
    _require_same_prime(u, v)
    if u.precision != v.precision:
        raise ValueError(
            "mismatched precisions: %d vs %d" % (u.precision, v.precision)
        )
    raw = _compose_raw(u.unit._raw(), v.unit._raw(), u.prime.p, u.precision)
    return NottinghamElement(u.prime, UnitSeries._from_raw(u.prime, raw))


def nott_inverse(u: NottinghamElement) -> NottinghamElement:
    """Compositional inverse: the w with u(w(t)) = w(u(t)) = t."""
    p, n = u.prime.p, u.precision
    uraw = u.unit._raw()
    # Newton by doubling: with u(w(t)) = t + delta, delta = O(t^(k+2)) when
    # w's unit is right through degree k, w(2t - u(w(t))) leaves the defect
    # -delta'(t) delta(t) + O(delta^2) = O(t^(2k+3)); two compositions a round
    w, k = [1], 0
    while k < n:
        k = min(2 * k + 1, n)
        g = _compose_raw(uraw, w, p, k)
        w = _compose_raw(w, [1, *[-c % p for c in g[1:]]], p, k)
    return NottinghamElement(u.prime, UnitSeries._from_raw(u.prime, w))


def unit_decompose(f: UnitSeries, m: int) -> ExponentVector:
    """Exponents of f on the basis units E_j (j coprime to p) up to depth m."""
    m = int(m)
    if m < 1:
        raise ValueError("depth must be >= 1")
    if f.precision < m:
        raise ValueError(
            "decomposition to depth %d needs precision >= %d, have %d"
            % (m, m, f.precision)
        )
    p = f.prime.p
    exps = _decompose_raw(f._raw(), p, f.prime.psq, m)
    return ExponentVector(f.prime, m, exps)


def unit_recompose(e: ExponentVector, precision: int) -> UnitSeries:
    """Product of E_j^{e_j} at the given precision (>= e.bound)."""
    precision = int(precision)
    if precision < e.bound:
        raise ValueError(
            "precision %d below exponent bound %d" % (precision, e.bound)
        )
    p = e.prime.p
    raw = [1] + [0] * precision
    for j in sorted(e.exps):
        raw = _mul_raw(raw, _basis_power(j, e.exps[j], p, precision), p, precision)
    return UnitSeries._from_raw(e.prime, raw)


# ---------------------------------------------------------------------------
# Text formats.
#
# Unit literals are sums of monomials: "1+t^3+2*t^4".  Group element
# literals are products "t*(1+t^3+t^4)*(1+t^15)^2" with integer exponents;
# the bare "t" is the identity.


_TERM_RE = re.compile(r"\s*(?:(\d+)\s*(?:\*\s*)?)?(t(?:\^(\d+))?)?\s*$")


def format_unit(u: UnitSeries) -> str:
    parts = ["1"]
    for d, c in enumerate(u.coeffs, start=1):
        if not c:
            continue
        if d == 1:
            parts.append("t" if c == 1 else "%d*t" % c)
        else:
            parts.append("t^%d" % d if c == 1 else "%d*t^%d" % (c, d))
    return "+".join(parts)


def parse_unit(text: str, p, precision: int | None = None) -> UnitSeries:
    """Parse a unit literal like "1+t^3+2*t^4".

    The constant term must come to 1 mod p.  Without an explicit precision
    the highest degree appearing in the text is used.
    """
    prime = as_prime(p)
    const = 0
    coeffs = {}
    pos = 0
    if text.strip() == "":
        raise ParseError("empty series literal", 0)
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            bad = chunk.lstrip()
            raise ParseError("unreadable term %r" % bad.rstrip(), pos + len(chunk) - len(bad))
        coef = int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            const += coef
        else:
            deg = int(m.group(3)) if m.group(3) is not None else 1
            if deg == 0:
                const += coef
            else:
                coeffs[deg] = coeffs.get(deg, 0) + coef
        pos += len(chunk) + 1
    if const % prime.p != 1:
        raise ParseError("unit literal must have constant term 1 mod %d" % prime.p, 0)
    n = precision if precision is not None else max(coeffs, default=1)
    if n < 1:
        raise ParseError("precision must be >= 1", 0)
    # an explicit precision silently truncates higher literal terms
    return UnitSeries(prime, [coeffs.get(d, 0) % prime.p for d in range(1, n + 1)])


_FACTOR_RE = re.compile(r"\s*\*\s*\(([^()]*)\)\s*(?:\^\s*(-?\d+))?")


def format_nottingham_product(u: NottinghamElement) -> str:
    """Canonical product form t*(1+t^k1)^n1*... with exponents in 1..p-1.

    Every group element factors uniquely this way up to its precision, so
    the output can be parsed back and recomposed exactly.
    """
    parts = ["t"]
    for k, c in _strip_run(u.unit._raw(), u.prime.p, u.precision):
        base = "(1+t^%d)" % k if k > 1 else "(1+t)"
        parts.append(base if c == 1 else "%s^%d" % (base, c))
    return "*".join(parts)


def parse_nottingham(text: str, p, precision: int | None = None) -> NottinghamElement:
    """Parse a group element literal like "t*(1+t^3+t^4)*(1+t^15)^2".

    Each factor is read at its own precision and lifted to the element's:
    the explicit one, which truncates, or else the highest degree appearing
    in any factor (minimum 1).  An explicit precision below 1 raises
    ValueError once the text has parsed.
    """
    prime = as_prime(p)
    end = len(text.rstrip())
    pos = len(text) - len(text.lstrip())
    if not text.startswith("t", pos):
        raise ParseError("group element literal must start with t", pos)
    pos += 1
    factors = []
    while pos < end:
        m = _FACTOR_RE.match(text, pos, end)
        if not m:
            bad = text[pos:end].lstrip()
            raise ParseError("unreadable factor near %r" % bad[:20], end - len(bad))
        try:
            base = parse_unit(m.group(1), prime)
        except ParseError as exc:
            raise ParseError(exc.args[0], m.start(1) + exc.offset) from None
        factors.append((base, int(m.group(2) or 1)))
        pos = m.end()
    if precision is None:
        precision = max((base.precision for base, _ in factors), default=1)
    unit = UnitSeries.one(prime, precision)
    for base, exp in factors:
        unit = unit_mul(unit, unit_pow(base.at_precision(precision), exp))
    return NottinghamElement(prime, unit)
