"""
Characters mod p^2 and their break types
========================================

A character assigns a value in Z/p^2 Z to each basis unit 1 + t^j with
p not dividing j, and extends to every principal unit through the
factorization demonstrated in demo 01.  Its break type <l, m> records
the last index carrying a unit value and the last index carrying any
value at all.
"""

from nottorsion import (
    break_sequence,
    char_act,
    char_eval,
    character_count,
    enumerate_characters,
    format_character_literal,
    parse_character_literal,
    parse_nottingham,
    parse_unit,
    scalar_mul,
    standard_expansion,
    validate_type,
)

p = 3

# a character is a finite map index -> value; "5:1,15:2" means the
# basis unit 1+t^5 goes to 1 and 1+t^15 goes to 2, everything else to 0
chi = parse_character_literal("1:1,2:3,4:3", p)
print("chi        =", format_character_literal(chi))
print("break type =", tuple(break_sequence(chi)))
print("bound      =", chi.bound)

# evaluation is linear in the exponent vector of the argument
f = parse_unit("1+t+t^2", p, precision=chi.bound)
print()
print("chi(%s) = %d (mod %d)" % (f, char_eval(chi, f), p * p))

# values add when units multiply
g = parse_unit("1+2*t^2", p, precision=chi.bound)
lhs = char_eval(chi, f * g)
rhs = (char_eval(chi, f) + char_eval(chi, g)) % (p * p)
print("chi(f*g) = %d = chi(f)+chi(g) = %d" % (lhs, rhs))
assert lhs == rhs

# the group t*z(t) acts by substitution inside the argument
u = parse_nottingham("t*(1+t^3+t^4)", p, precision=chi.bound)
acted = char_act(u, chi)
print()
print("u          =", u)
print("u . chi    =", format_character_literal(acted))
# the action never moves the break type
assert tuple(break_sequence(acted)) == tuple(break_sequence(chi))

# scalar multiples scale every value; chi and 2*chi share a type
print("2 * chi    =", format_character_literal(scalar_mul(2, chi)))

# splitting off the order-p part: x carries the values mod p, the
# remainder collects the p-multiples
exp = standard_expansion(chi)
print()
print("unit part x      =", dict(exp.x))
print("p-multiple part  =", dict(exp.a))

# not every <l, m> occurs: l must avoid p, m must reach p*l, and any
# overshoot must avoid p as well
for l, m in [(1, 3), (1, 4), (2, 6), (2, 5), (3, 6), (1, 6)]:
    print("type <%d,%d> valid: %s" % (l, m, validate_type(p, l, m)))

# all characters of one type, in a fixed lexicographic order
l, m = 1, 3
print()
print("%d characters of type <%d,%d>:" % (character_count(p, l, m), l, m))
for c in enumerate_characters(p, l, m):
    print("   ", format_character_literal(c))
