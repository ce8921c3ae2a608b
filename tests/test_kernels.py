"""Differential tests of the raw series kernels against slow oracles.

The oracles are the straightforward algorithms the kernels replaced:
the schoolbook product, square-and-multiply powers with inversion by
back substitution, the dense substitution that builds every power of z,
the greedy strip that multiplies the residual by the dense inverse
(1+t^k)^(-c), descending, and the compositional inverse solved degree by
degree.  Square-and-multiply is also the oracle of the basis powers
(1+t^k)^e, which the kernel writes from Lucas' theorem.
Every case is drawn from a fixed seed, so a failure repeats exactly.
"""

import functools
import math
import random
from array import array

import pytest

from nottorsion import series
from nottorsion.characters import (
    _action_row,
    _action_rows,
    _pairing,
    _row_value,
    _value,
    _weights,
)
from nottorsion.series import (
    _FIELD_CODES,
    NottinghamElement,
    _basis_power,
    _compose_raw,
    _decompose_raw,
    _field_width,
    _mul_raw,
    _pow_raw,
    _strip_run,
    _strip_tables,
    _subst_raw,
    nott_inverse,
)

PRIMES = (2, 3, 5, 7, 11, 31)


# ---------------------------------------------------------------------------
# Oracles.


def school_mul(a, b, p, n):
    """Schoolbook product truncated at degree n, skipping zero terms."""
    out = [0] * (n + 1)
    for i in range(min(len(a), n + 1)):
        ai = a[i]
        if ai:
            for j in range(min(len(b), n + 1 - i)):
                if b[j]:
                    out[i + j] += ai * b[j]
    return [v % p for v in out]


def back_sub_inverse(a, p, n):
    """1/a truncated at degree n, degree by degree; a[0] must be 1."""
    out = [0] * (n + 1)
    out[0] = 1
    for d in range(1, n + 1):
        s = sum(a[i] * out[d - i] for i in range(1, min(d, len(a) - 1) + 1))
        out[d] = (-s) % p
    return out


def square_multiply_pow(a, e, p, n):
    """a^e truncated at degree n by binary powering; e < 0 inverts first."""
    if e < 0:
        a, e = back_sub_inverse(a, p, n), -e
    result = [1] + [0] * n
    base = list(a[: n + 1]) + [0] * max(0, n + 1 - len(a))
    while e:
        if e & 1:
            result = school_mul(result, base, p, n)
        e >>= 1
        if e:
            base = school_mul(base, base, p, n)
    return result


def dense_subst(f, z, p, n):
    """f(t*z) truncated at degree n: the sum of f[k] t^k z^k over every
    degree k <= n, with z^k built by one product per degree whether f[k]
    vanishes or not."""
    out = [0] * (n + 1)
    zk = [1]
    for k in range(min(len(f), n + 1)):
        for d, c in enumerate(zk[: n + 1 - k]):
            out[k + d] += f[k] * c
        zk = school_mul(zk, z, p, n - k)
    return [v % p for v in out]


def degree_by_degree_inverse(zu, p, n):
    """Raw unit part of the compositional inverse w of u = t*zu through
    degree n, one degree per substitution: with w's digit at k still 0,
    the degree k+1 defect of u(w(t)) is linear in that digit, with
    coefficient 1."""
    w = [1] + [0] * n
    for k in range(1, n + 1):
        comp = school_mul(w[: k + 1], dense_subst(zu, w, p, k), p, k)
        w[k] = (-comp[k]) % p
    return w


@functools.lru_cache(maxsize=None)
def inverse_row(p, n, k, c):
    """(1+t^k)^(-c) truncated at degree n, as (degree, coefficient)
    pairs at degrees >= k."""
    ek = [0] * (n + 1)
    ek[0] = ek[k] = 1
    inv = square_multiply_pow(back_sub_inverse(ek, p, n), c, p, n)
    return tuple((d, inv[d]) for d in range(k, n + 1) if inv[d])


def inverse_strip_run(f, p, n):
    """The greedy (k, c) run of f, multiplying the residual by the dense
    inverse (1+t^k)^(-c) in place, descending."""
    r = list(f[: n + 1])
    run = []
    for k in range(1, n + 1):
        cv = r[k]
        if not cv:
            continue
        run.append((k, cv))
        tab = inverse_row(p, n, k, cv)
        for d in range(n, k - 1, -1):
            acc = r[d]
            for dk, w in tab:
                if dk > d:
                    break
                acc += w * r[d - dk]
            r[d] = acc % p
    return run


def oracle_decompose(f, p, m):
    """Exponents on E_j from the oracle run: c at k = j*p^s adds c*p^s."""
    psq = p * p
    e = {}
    for k, cv in inverse_strip_run(f, p, m):
        s = 0
        while k % p == 0:
            k //= p
            s += 1
        if s < 2:
            e[k] = (e.get(k, 0) + cv * p**s) % psq
    return {j: v for j, v in e.items() if v}


def oracle_rows(z, p, m):
    """Every coprime row of E_j o u, each from a fully computed z^j."""
    top = m if m % p else m - 1
    rows = []
    for j in range(1, top + 1):
        if j % p:
            zj = square_multiply_pow(z, j, p, m - j)
            rows.append((j, oracle_decompose([1] + [0] * (j - 1) + zj, p, m)))
    return rows


# ---------------------------------------------------------------------------
# Random inputs.


def random_series(rng, p, length, unit):
    """Residues of a given length; dense, sparse or one term, and with a
    leading 1 when unit is set."""
    density = rng.choice([1.0, 0.3, 0.05])
    out = [
        rng.randrange(1, p) if rng.random() < density else 0 for _ in range(length)
    ]
    if unit and out:
        out[0] = 1
    return out


def random_length(rng, n):
    # shorter than, equal to and longer than n+1
    return rng.choice(
        [rng.randrange(1, n + 2), n + 1, n + 1 + rng.randrange(1, 8)]
    )


def random_precision(rng):
    return rng.choice(
        [rng.randrange(0, 12), rng.randrange(0, 30), rng.randrange(0, 61)]
    )


# ---------------------------------------------------------------------------
# Tests.


def test_field_width_rule_at_the_boundary():
    # (n+1)(p-1)^2 at 2^32 - 1 still fits 4 bytes, 2^32 needs 8; at
    # 2^64 no field holds it.  Nothing of that size is built.
    assert _field_width(2**32 - 2, 2) == 4
    assert _field_width(2**32 - 1, 2) == 8
    assert _field_width(2**30 - 2, 3) == 4  # 4 * (2^30 - 1) = 2^32 - 4
    assert _field_width(2**30 - 1, 3) == 8  # 4 * 2^30 = 2^32
    assert _field_width(2**64 - 2, 2) == 8
    with pytest.raises(ValueError):
        _field_width(2**64 - 1, 2)
    assert _field_width(60, 31) == 4
    for width in (4, 8):
        code = _FIELD_CODES[width]
        assert array(code).itemsize == width
        assert code.isupper()  # unsigned


def test_mul_matches_schoolbook():
    rng = random.Random(11)
    for _ in range(1500):
        p = rng.choice(PRIMES)
        n = random_precision(rng)
        a = random_series(rng, p, random_length(rng, n), unit=False)
        b = random_series(rng, p, random_length(rng, n), unit=False)
        assert _mul_raw(a, b, p, n) == school_mul(a, b, p, n), (p, n, a, b)
    assert _mul_raw([], [1, 2], 3, 2) == [0, 0, 0]


def test_mul_with_eight_byte_fields(monkeypatch):
    # the 8-byte packing is reached only at (n+1)(p-1)^2 >= 2^32; force it
    monkeypatch.setattr(series, "_field_width", lambda n, p: 8)
    rng = random.Random(12)
    for _ in range(200):
        p = rng.choice(PRIMES)
        n = random_precision(rng)
        a = random_series(rng, p, random_length(rng, n), unit=False)
        b = random_series(rng, p, random_length(rng, n), unit=False)
        assert _mul_raw(a, b, p, n) == school_mul(a, b, p, n)


def test_pow_matches_square_and_multiply():
    rng = random.Random(13)
    for _ in range(800):
        p = rng.choice(PRIMES)
        n = random_precision(rng)
        a = random_series(rng, p, random_length(rng, n), unit=True)
        e = rng.choice(
            [rng.randrange(-60, 200), rng.randrange(-3, 4), p * rng.randrange(1, 8)]
        )
        assert _pow_raw(a, e, p, n) == square_multiply_pow(a, e, p, n), (p, n, a, e)


def test_basis_power_matches_square_and_multiply():
    # every k from 1 to n, past n // 2 too, where (1+t^k)^e has at most
    # one term besides its 1; e negative, in range, and at or above p^L,
    # the least p-power above n // k, modulo which the kernel reduces it
    rng = random.Random(17)
    for p in PRIMES:
        for n in (1, 2, 9, rng.randrange(10, 41)):
            for k in range(1, n + 1):
                q = 1
                while q <= n // k:
                    q *= p
                ek = [1] + [0] * n
                ek[k] = 1
                for e in (
                    -rng.randrange(1, 3 * q + 1),
                    rng.randrange(q),
                    q * rng.randrange(1, 4) + rng.randrange(q),
                ):
                    want = square_multiply_pow(ek, e, p, n)
                    assert _basis_power(k, e, p, n) == want, (p, n, k, e)


def dense_and_sparse_units(rng, p, n):
    """A raw unit through degree n: dense, sparse, or a reduction step
    (1+t^k)^d + e*t^n, whose terms sit at the multiples of k and at n."""
    kind = rng.randrange(3)
    if kind == 2:
        k = rng.randrange(1, n + 1)
        z = _basis_power(k, rng.randrange(1, p), p, n)
        z[n] = (z[n] + rng.randrange(p)) % p
        return z
    return random_series(rng, p, n + 1, unit=True)


def test_compose_matches_product_of_substitution():
    # u(v(t)) = t * zv * zu(t*zv): the kernel substitutes t*zv into t*zu,
    # so the term of zu at degree k takes zv^(k+1)
    rng = random.Random(18)
    for _ in range(400):
        p = rng.choice(PRIMES)
        n = rng.randrange(1, 41)
        zu = dense_and_sparse_units(rng, p, n)
        zv = dense_and_sparse_units(rng, p, n)
        want = school_mul(zv, dense_subst(zu, zv, p, n), p, n)
        assert _compose_raw(zu, zv, p, n) == want, (p, n, zu, zv)


def test_subst_matches_dense_substitution_term_by_term():
    # f's terms cover every rule of the kernel: one at k = 1, which takes z
    # itself, runs of adjacent terms, each one product of the previous
    # power, gaps of 2 or more, each one power, and one at degree n, which
    # takes none; f may be shorter or longer than n + 1, and z shorter
    rng = random.Random(19)
    for _ in range(400):
        p = rng.choice(PRIMES)
        n = rng.randrange(2, 41)
        f = [rng.randrange(p)] + [0] * n
        k = 1
        while k < n:
            for d in range(k, min(k + rng.randrange(1, 4), n)):
                f[d] = rng.randrange(1, p)
            k = d + rng.randrange(2, 6)
        f[n] = rng.randrange(1, p)
        f = f[: rng.choice([n + 1, n + 1, rng.randrange(2, n + 1)])]
        f += [rng.randrange(p) for _ in range(rng.choice([0, 0, 3]))]
        z = random_series(rng, p, rng.choice([n, n + 1, rng.randrange(1, n + 1)]), unit=True)
        assert _subst_raw(f, z, p, n) == dense_subst(f, z, p, n), (p, n, f, z)


def test_inverse_matches_degree_by_degree_solver():
    # the doubling rounds stop at n, so both the shortest precisions and
    # the ones just past a round's 2k+1 are drawn
    rng = random.Random(20)
    precisions = [1, 2, 3, 4, 7, 8, 15, 16] + [rng.randrange(1, 45) for _ in range(300)]
    for i, n in enumerate(precisions):
        p = PRIMES[i % len(PRIMES)]
        zu = dense_and_sparse_units(rng, p, n)
        u = NottinghamElement.from_unit_coeffs(p, zu[1:])
        want = degree_by_degree_inverse(zu, p, n)
        assert nott_inverse(u).unit._raw() == want, (p, n, zu)


def test_strip_tables_are_binomial_rows():
    # rows exist only where _strip_run divides, at k <= m // 2
    for p in PRIMES:
        tables = _strip_tables(p, 20)
        for k in (1, 3, 7, 10):
            for c in range(1, p):
                expect = [
                    (i * k, math.comb(c, i) % p) for i in range(1, c + 1) if i * k <= 20
                ]
                assert list(tables[(k, c)]) == expect
        for m in (20, 21):
            assert max(k for k, _ in _strip_tables(p, m)) == m // 2


def test_strip_and_decompose_match_inverse_strip():
    rng = random.Random(14)
    for _ in range(600):
        p = rng.choice(PRIMES)
        n = random_precision(rng)
        f = random_series(rng, p, random_length(rng, n), unit=True)
        f += [0] * (n + 1 - len(f))
        assert _strip_run(f, p, n) == inverse_strip_run(f, p, n), (p, n, f)
        if n:
            assert _decompose_raw(f, p, p * p, n) == oracle_decompose(f, p, n)


def test_strip_run_returns_digits_without_mutating():
    f = [1, 1, 2, 0, 1, 2, 2]
    assert _strip_run(f, 3, 6) == [(1, 1), (2, 2), (3, 1), (4, 2), (6, 2)]
    assert f == [1, 1, 2, 0, 1, 2, 2]


def unit_with_valuation(rng, p, m, r):
    """A raw unit z through degree m - 1 with z = 1 mod t^r exactly, or
    the identity at r = m."""
    z = [1] + [0] * (r - 1)
    if r < m:
        z += [rng.randrange(1, p)]
        z += [rng.randrange(p) for _ in range(m - 1 - r)]
    else:
        z += [0] * (m - r)
    return z


@pytest.mark.parametrize("p", PRIMES)
def test_action_rows_match_full_rows(p):
    # z = 1 mod t^r exactly, for every valuation r = 1..m-1 and the
    # identity: the rows with j + r > m come back without a power, as
    # {j: 1} once decomposed, and must agree with fully computed rows.
    # z^1 takes no product: it is z through degree m - 1, in a list of
    # its own, so consuming the rows leaves z as it was
    rng = random.Random(15 + p)
    psq = p * p
    for m in rng.sample(range(2, 31), 6):
        for r in range(1, m + 1):
            z = unit_with_valuation(rng, p, m, r)
            before = list(z)
            powers = list(_action_rows(z, p, m))
            assert all((zj is None) == (j + r > m) for j, zj in powers), (m, r, z)
            if r < m:
                j, z1 = powers[0]
                assert j == 1 and z1 is not z, (m, r, z)
                assert len(z1) == m and z1 == _mul_raw([1], z, p, m - 1), (m, r, z)
            rows = [(j, _action_row(j, zj, p, psq, m)) for j, zj in powers]
            assert rows == oracle_rows(z, p, m), (m, r, z)
            assert z == before, (m, r)


@pytest.mark.parametrize("p", PRIMES)
def test_values_match_pairing_of_decomposition(p):
    # the value kernel weighs strip digits by chi(E_k); the slow path
    # decomposes onto the E_j and pairs the exponents with chi.  Rows
    # come from every valuation r, so the rows with j + r > m, which
    # carry no power, are covered too
    rng = random.Random(16 + p)
    psq = p * p
    for m in rng.sample(range(2, 31), 6):
        coeffs = {k: rng.randrange(psq) for k in range(1, m + 1) if k % p}
        weights = _weights(coeffs, p, psq, m)
        for _ in range(20):
            f = random_series(rng, p, m + 1, unit=True)
            slow = _pairing(_decompose_raw(f, p, psq, m).items(), coeffs, psq)
            assert _value(f, weights, p, psq, m) == slow, (m, f)
        for r in range(1, m + 1):
            z = unit_with_valuation(rng, p, m, r)
            for j, zj in _action_rows(z, p, m):
                row = [1] + [0] * (j - 1) + square_multiply_pow(z, j, p, m - j)
                slow = _pairing(_decompose_raw(row, p, psq, m).items(), coeffs, psq)
                assert _row_value(j, zj, weights, p, psq, m) == slow, (m, r, j, z)
