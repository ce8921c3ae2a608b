"""
Truncated power series and substitution over F_p
================================================

Everything downstream rests on exact arithmetic with principal units
1 + a_1 t + ... + a_N t^N over F_p and with group elements t * z(t)
composed by substitution.  This script walks through the raw moves.
"""

from nottorsion import (
    NottinghamElement,
    nott_compose,
    nott_inverse,
    parse_nottingham,
    parse_unit,
    unit_decompose,
    unit_recompose,
)

p = 3
N = 12

# a principal unit is stored by its coefficient tuple (a_1, ..., a_N)
f = parse_unit("1+t+2*t^3", p, precision=N)
g = parse_unit("1+2*t^2+t^5", p, precision=N)
print("f      =", f)
print("g      =", g)
print("f*g    =", f * g)
print("f^3    =", f**3)

# cube of a unit only keeps multiples-of-3 structure: Frobenius at work
print("f^3 coefficients:", (f**3).coeffs)

# group elements are t * (principal unit); composition = substitution
u = parse_nottingham("t*(1+t^3+t^4)", p, precision=N)
v = parse_nottingham("t*(1+2*t^2)", p, precision=N)
print()
print("u          =", u)
print("v          =", v)
print("u after v  =", nott_compose(u, v))
print("u inverse  =", nott_inverse(u))

# composing with the inverse recovers the identity up to precision
w = nott_compose(u, nott_inverse(u))
print("u o u^-1   =", w)
assert w == NottinghamElement.identity(p, N)

# every unit factors as a product of basis units (1+t^j)^e_j with
# p not dividing j; the exponents live mod p^2
h = parse_unit("1+t^5+t^10", p, precision=15)
e = unit_decompose(h, 15)
print()
print("h          =", h)
print("exponents  =", e.exps)
back = unit_recompose(e, 15)
print("recomposed =", back)
assert back == h

# the factorization is exact below p^2 and canonical mod p^2 above;
# decomposing a recomposition is always a fixed point
e2 = unit_decompose(unit_recompose(e, 15), 15)
assert e2 == e
print()
print("decompose(recompose(e)) == e holds")
