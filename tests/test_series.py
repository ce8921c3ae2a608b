"""Series arithmetic tests.

Expected values come from independent in-test oracles (naive
convolution, binomial coefficients, explicit recomposition) or from
hand-checked computations frozen as constants.
"""

import math
import random
import re

import pytest
from test_kernels import dense_subst

from nottorsion.series import (
    ExponentVector,
    NottinghamElement,
    ParseError,
    Prime,
    UnitSeries,
    _mul_raw,
    _pow_raw,
    _subst_raw,
    format_nottingham_product,
    format_unit,
    nott_compose,
    nott_inverse,
    parse_nottingham,
    parse_unit,
    unit_decompose,
    unit_mul,
    unit_pow,
    unit_recompose,
    unit_subst,
)


def naive_mul(a, b, p):
    """Oracle: full convolution of raw coefficient lists (degree 0 first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return [v % p for v in out]


def raw(u):
    return [1, *u.coeffs]


def random_unit(rng, p, n):
    return UnitSeries(p, [rng.randrange(p) for _ in range(n)])


def random_elt(rng, p, n):
    return NottinghamElement.from_unit_coeffs(p, [rng.randrange(p) for _ in range(n)])


# ---------------------------------------------------------------------------
# Prime.


def test_prime_validation():
    assert Prime(2).psq == 4
    assert Prime(31).p == 31
    for bad in (0, 1, 4, 9, 33, 37, -3, 2.0, True):
        with pytest.raises(ValueError):
            Prime(bad)


# ---------------------------------------------------------------------------
# Multiplication, powers, inverses.


def test_unit_mul_example():
    a = parse_unit("1+t", 2, 3)
    b = parse_unit("1+t+t^2", 2, 3)
    assert unit_mul(a, b) == parse_unit("1+t^3", 2, 3)


def test_unit_mul_matches_naive_convolution():
    rng = random.Random(101)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 16)
        a, b = random_unit(rng, p, n), random_unit(rng, p, n)
        expect = naive_mul(raw(a), raw(b), p)[: n + 1]
        assert raw(unit_mul(a, b)) == expect


def test_unit_mul_mismatch_errors():
    with pytest.raises(ValueError):
        unit_mul(parse_unit("1+t", 2, 3), parse_unit("1+t", 3, 3))
    with pytest.raises(ValueError):
        unit_mul(parse_unit("1+t", 2, 3), parse_unit("1+t", 2, 4))


def test_unit_pow_binomial_oracle():
    # (1+t)^e has coefficients C(e, k); precision keeps every degree <= N
    got = unit_pow(parse_unit("1+t", 3, 3), 8)
    assert raw(got) == [math.comb(8, k) % 3 for k in range(4)]
    got = unit_pow(parse_unit("1+t", 2, 3), 8)
    assert raw(got) == [math.comb(8, k) % 2 for k in range(4)]


def test_unit_pow_matches_repeated_mul():
    rng = random.Random(102)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 12)
        a = random_unit(rng, p, n)
        e = rng.randrange(0, 9)
        expect = UnitSeries.one(p, n)
        for _ in range(e):
            expect = unit_mul(expect, a)
        assert unit_pow(a, e) == expect


def test_unit_pow_negative():
    a = parse_unit("1+t", 2, 3)
    inv = unit_pow(a, -1)
    assert inv == parse_unit("1+t+t^2+t^3", 2, 3)
    assert unit_mul(a, inv) == UnitSeries.one(2, 3)
    rng = random.Random(103)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        a = random_unit(rng, p, rng.randrange(1, 12))
        assert unit_mul(a, unit_pow(a, -1)) == UnitSeries.one(p, a.precision)
        assert unit_pow(a, -3) == unit_pow(unit_pow(a, 3), -1)


def test_frobenius_power_is_exact():
    # (1 + t^j)^p = 1 + t^(pj) exactly in characteristic p
    rng = random.Random(104)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(p, 26)
        j = rng.randrange(1, n // p + 1)
        assert unit_pow(UnitSeries.basis(p, j, n), p) == UnitSeries.basis(p, p * j, n)


# ---------------------------------------------------------------------------
# Substitution and composition.


def test_subst_example():
    u = parse_nottingham("t*(1+t^3+t^4)", 2, 15)
    f = UnitSeries.basis(2, 11, 15)
    assert unit_subst(f, u) == parse_unit("1+t^11+t^14+t^15", 2, 15)


def test_subst_is_multiplicative():
    rng = random.Random(105)
    for _ in range(200):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 12)
        f, g = random_unit(rng, p, n), random_unit(rng, p, n)
        u = random_elt(rng, p, n)
        lhs = unit_subst(unit_mul(f, g), u)
        rhs = unit_mul(unit_subst(f, u), unit_subst(g, u))
        assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sparse_subst_matches_dense_oracle(p):
    # _subst_raw skips the zero coefficients of f and jumps each gap with
    # one power of z; f runs from dense through sparse to 1 alone, and is
    # often shorter than n + 1
    rng = random.Random(1000 + p)
    for _ in range(60):
        n = rng.randrange(1, 30)
        z = [1] + [rng.randrange(p) for _ in range(rng.randrange(0, n + 2))]
        density = rng.choice([1.0, 0.5, 0.1, 0.0])
        f = [1] + [
            rng.randrange(1, p) if rng.random() < density else 0
            for _ in range(rng.randrange(0, n + 3))
        ]
        assert _subst_raw(f, z, p, n) == dense_subst(f, z, p, n)


def test_subst_precision_requirement():
    u = random_elt(random.Random(0), 2, 5)
    with pytest.raises(ValueError):
        unit_subst(UnitSeries.one(2, 3), u)


def test_compose_associative_and_identity():
    rng = random.Random(106)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 10)
        u, v, w = (random_elt(rng, p, n) for _ in range(3))
        assert nott_compose(nott_compose(u, v), w) == nott_compose(u, nott_compose(v, w))
        e = NottinghamElement.identity(p, n)
        assert nott_compose(u, e) == u
        assert nott_compose(e, u) == u


def test_compose_inverse():
    rng = random.Random(107)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 10)
        u = random_elt(rng, p, n)
        w = nott_inverse(u)
        e = NottinghamElement.identity(p, n)
        assert nott_compose(u, w) == e
        assert nott_compose(w, u) == e


def test_from_raw_wraps_kernel_outputs_unchanged():
    # _from_raw trusts the kernels to return residues; the checked
    # constructor, which reduces every coefficient again, must agree
    rng = random.Random(110)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 31])
        prime = Prime(p)
        n = rng.randrange(1, 24)
        a, b = raw(random_unit(rng, p, n)), raw(random_unit(rng, p, n))
        outputs = [
            _mul_raw(a, b, p, n),
            _pow_raw(a, rng.randrange(-p * p, p * p), p, n),
            _subst_raw(a, b, p, n),
            nott_inverse(NottinghamElement(prime, UnitSeries(p, a[1:]))).unit._raw(),
        ]
        for out in outputs:
            assert UnitSeries._from_raw(prime, out) == UnitSeries(prime, out[1:])
    with pytest.raises(ValueError):
        UnitSeries._from_raw(Prime(3), [1])


def test_truncation_stability():
    # computing at high precision and truncating agrees with computing low
    rng = random.Random(108)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        hi = rng.randrange(3, 14)
        lo = rng.randrange(1, hi)
        a, b = random_unit(rng, p, hi), random_unit(rng, p, hi)
        assert unit_mul(a, b).at_precision(lo) == unit_mul(a.at_precision(lo), b.at_precision(lo))
        assert unit_pow(a, 5).at_precision(lo) == unit_pow(a.at_precision(lo), 5)
        u = NottinghamElement(Prime(p), a)
        v = NottinghamElement(Prime(p), b)
        lo_u = NottinghamElement(Prime(p), a.at_precision(lo))
        lo_v = NottinghamElement(Prime(p), b.at_precision(lo))
        assert nott_compose(u, v).unit.at_precision(lo) == nott_compose(lo_u, lo_v).unit


# ---------------------------------------------------------------------------
# Basis decomposition.


def test_decompose_examples():
    assert unit_decompose(parse_unit("1+t^2", 2, 5), 5).exps == {1: 2}
    assert unit_decompose(parse_unit("1+t+t^2", 2, 3), 3).exps == {1: 3, 3: 1}
    # cross-check the second one by explicit recomposition
    e = unit_decompose(parse_unit("1+t+t^2", 2, 3), 3)
    assert unit_recompose(e, 3) == parse_unit("1+t+t^2", 2, 3)


def test_decompose_deeper_example():
    # 1+t^5+t^10 = (1+t^5)^3 (1+t^15) mod t^16 over F_2
    f = parse_unit("1+t^5+t^10", 2, 15)
    e = unit_decompose(f, 15)
    assert e.exps == {5: 3, 15: 1}
    assert unit_recompose(e, 15) == f


def test_decompose_recompose_roundtrip_below_p_squared():
    # exponents are tracked mod p^2, so the round trip is exact as long as
    # no basis unit has order p^3 or more in the truncation, i.e. m < p^2
    rng = random.Random(109)
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        m = rng.randrange(1, p * p)
        f = random_unit(rng, p, m)
        e = unit_decompose(f, m)
        assert unit_recompose(e, m) == f


def test_decompose_is_idempotent_at_any_bound():
    # for large m the round trip may drop mod-p^2-invisible data, but the
    # exponent vector itself is always stable under recompose + decompose
    rng = random.Random(113)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        m = rng.randrange(1, 16)
        f = random_unit(rng, p, m)
        e = unit_decompose(f, m)
        assert unit_decompose(unit_recompose(e, m), m) == e


def test_recompose_decompose_is_identity_on_exponents():
    # canonical exponents: mod p^2 when p*j <= m, mod p once p*j > m
    # (there (1+t^j)^p is already trivial)
    rng = random.Random(110)
    for _ in range(200):
        p = rng.choice([2, 3])
        m = rng.randrange(1, 13)
        exps = {}
        for j in range(1, m + 1):
            if j % p and rng.randrange(2):
                exps[j] = rng.randrange(p * p) if p * j <= m else rng.randrange(1, p)
        from nottorsion.series import ExponentVector

        e = ExponentVector(p, m, exps)
        assert unit_decompose(unit_recompose(e, m), m) == e


def test_decompose_precision_error():
    with pytest.raises(ValueError):
        unit_decompose(parse_unit("1+t", 2, 3), 5)


# ---------------------------------------------------------------------------
# Text formats.


def test_parse_format_unit_roundtrip():
    rng = random.Random(111)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        u = random_unit(rng, p, rng.randrange(1, 12))
        assert parse_unit(format_unit(u), p, u.precision) == u


def test_parse_unit_errors():
    with pytest.raises(ParseError):
        parse_unit("", 2)
    with pytest.raises(ParseError):
        parse_unit("2+t", 3)  # constant 2 is not 1 mod 3
    with pytest.raises(ParseError):
        parse_unit("1+x^2", 2)
    err = None
    try:
        parse_unit("1+t^2+?", 2)
    except ParseError as exc:
        err = exc
    assert err is not None and err.offset is not None


def test_parse_unit_reads_t0_as_a_constant_term():
    # 2 + 2*t^0 is 4 = 1 mod 3; without the t^0 term the constant is 2
    assert parse_unit("2+2*t^0+t", 3) == UnitSeries(3, [1])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: UnitSeries.basis(2, 5, 4), "basis index 5 outside 1..4"),
        (lambda: UnitSeries.basis(2, 0, 4), "basis index 0 outside 1..4"),
        (lambda: UnitSeries(3, [1, 2]).coefficient(3), "degree 3 outside tracked range"),
        (lambda: UnitSeries(3, [1, 2]).coefficient(-1), "degree -1 outside tracked range"),
        (lambda: UnitSeries(3, [1, 2]).at_precision(0), "precision must be >= 1"),
        (lambda: NottinghamElement(3, (1, 2)), "unit part must be a UnitSeries"),
        (lambda: NottinghamElement(3, UnitSeries(5, [1])), "unit part has mismatched prime"),
        (lambda: ExponentVector(3, 0, {}), "bound must be >= 1"),
        (lambda: ExponentVector(3, 4, {5: 1}), "index 5 outside 1..4"),
        (lambda: ExponentVector(3, 4, {0: 1}), "index 0 outside 1..4"),
        (lambda: ExponentVector(3, 4, {3: 1}), "index 3 divisible by p=3"),
        (lambda: nott_compose(NottinghamElement.identity(3, 4), NottinghamElement.identity(3, 5)),
         "mismatched precisions: 4 vs 5"),
        (lambda: unit_decompose(UnitSeries(3, [1, 2]), 0), "depth must be >= 1"),
        (lambda: unit_recompose(ExponentVector(3, 4, {1: 1}), 3),
         "precision 3 below exponent bound 4"),
        (lambda: parse_unit("1+t", 3, 0), "precision must be >= 1"),
    ],
    ids=["basis-above", "basis-zero", "coefficient-above", "coefficient-negative",
         "at-precision-0", "element-non-unit", "element-prime", "exponents-bound",
         "exponents-above", "exponents-zero", "exponents-divisible", "compose-precisions",
         "decompose-depth-0", "recompose-below-bound", "parse-unit-precision-0"],
)
def test_series_entry_points_refuse_bad_arguments(call, message):
    # a ParseError is a ValueError, so one check covers both
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_parse_nottingham_and_product_form():
    u = parse_nottingham("t*(1+t^2)*(1+t^4)^2", 3, 4)
    assert u.unit == parse_unit("1+t^2+2*t^4", 3, 4)
    assert format_nottingham_product(u) == "t*(1+t^2)*(1+t^4)^2"
    assert parse_nottingham("t", 5, 3) == NottinghamElement.identity(5, 3)
    assert format_nottingham_product(NottinghamElement.identity(5, 3)) == "t"
    with pytest.raises(ParseError):
        parse_nottingham("(1+t)", 2)
    with pytest.raises(ParseError):
        parse_nottingham("t*(2+t)", 3)


def test_product_form_roundtrip():
    rng = random.Random(112)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        u = random_elt(rng, p, rng.randrange(1, 14))
        text = format_nottingham_product(u)
        assert parse_nottingham(text, p, u.precision) == u


def random_literal(rng, p):
    """A group element literal with random spacing, term order and
    exponents, and its factors as (degree -> coefficient, exponent)."""
    def sep():
        return rng.choice(["", " "])

    parts, factors = ["t"], []
    for _ in range(rng.randrange(4)):
        terms = {d: rng.randrange(2 * p) for d in rng.sample(range(1, 12), rng.randrange(4))}
        chunks = ["1"]
        for d, c in terms.items():
            term = "t" if d == 1 else "t^%d" % d
            if c != 1 or rng.random() < 0.5:
                term = "%d%s*%s%s" % (c, sep(), sep(), term)
            chunks.append(term)
        rng.shuffle(chunks)
        exp = rng.choice([1, 1, 2, -1, p + 1])
        body = (sep() + "+" + sep()).join(chunks)
        parts.append("(%s)%s" % (body, "" if exp == 1 else "%s^%d" % (sep(), exp)))
        factors.append((terms, exp))
    return sep() + (sep() + "*" + sep()).join(parts) + sep(), factors


def literal_oracle(factors, p, n):
    """The element a literal names at precision n: the product of its
    factors truncated at degree n."""
    unit = UnitSeries.one(p, n)
    for terms, exp in factors:
        base = UnitSeries(p, [terms.get(d, 0) for d in range(1, n + 1)])
        unit = unit_mul(unit, unit_pow(base, exp))
    return NottinghamElement(p, unit)


def test_parse_nottingham_on_seeded_literals():
    # sum-form factors "(1+2*t^3+t^5)" and product forms "(1+t^4)^2"
    # mixed; without a precision the highest degree in any factor counts,
    # with one every factor is truncated or extended to it
    rng = random.Random(113)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        text, factors = random_literal(rng, p)
        own = max((max(terms, default=1) for terms, _ in factors), default=1)
        assert parse_nottingham(text, p) == literal_oracle(factors, p, own), text
        n = rng.randrange(1, 14)
        assert parse_nottingham(text, p, n) == literal_oracle(factors, p, n), (text, n)


# literal, bare message, and the text that starts at the reported offset
MALFORMED_LITERALS = [
    ("t*(1+x)*(1+t)", "unreadable term 'x'", "x)*"),
    ("t*(1+t) *(1+x)", "unreadable term 'x'", "x)"),  # offset 12
    ("  t*(1+t)*(1+t^2+?)", "unreadable term '?'", "?)"),
    ("  x*(1+t)", "group element literal must start with t", "x*"),
    ("t * ( 1 +  y ) ", "unreadable term 'y'", "y )"),
    ("t*(1+t)*()", "empty series literal", ")"),
    ("t*(1+t)*(2+t)", "unit literal must have constant term 1 mod 3", "2+t"),
    ("t*(1+t))", "unreadable factor near ')'", ")"),
    ("t*(1+t)  junk ", "unreadable factor near 'junk'", "junk"),
]


@pytest.mark.parametrize("text, message, bad", MALFORMED_LITERALS)
def test_parse_nottingham_reports_absolute_offsets(text, message, bad):
    with pytest.raises(ParseError) as info:
        parse_nottingham(text, 3)
    exc = info.value
    assert exc.args[0] == message
    assert text[exc.offset:].startswith(bad)
    assert str(exc) == "%s (at offset %d)" % (message, exc.offset)
    assert str(exc).count("(at offset") == 1


@pytest.mark.parametrize("text", ["t", "t*(1+t)", "t*(1+t^3)^2"])
def test_parse_nottingham_precision_below_one_is_a_value_error(text):
    # the precision is an argument, not part of the text: ValueError,
    # never a ParseError with an offset, with or without factors
    for n in (0, -1):
        with pytest.raises(ValueError) as info:
            parse_nottingham(text, 3, n)
        assert not isinstance(info.value, ParseError)


def test_parse_error_without_offset():
    exc = ParseError("bad")
    assert exc.offset is None and str(exc) == "bad" and exc.args == ("bad",)


def test_negative_exponent_literal():
    u = parse_nottingham("t*(1+t)^-1", 2, 4)
    assert u.unit == unit_pow(parse_unit("1+t", 2, 4), -1)
