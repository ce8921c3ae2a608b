"""
Counting equivalence classes of reduced forms
=============================================

Reduced forms of a type can still be equivalent to each other; an
exhaustive search over all group elements settles which ones merge.
The closed-form count p^k (p-1)^eps bounds the class count and is
attained exactly when l < p.  For l >= p some forms merge and the
partition records a verified witness for every merge.
"""

from nottorsion import (
    bound_exponents,
    count_classes,
    enumerate_reduced_forms,
    format_character_literal,
    format_nottingham_product,
    partition_reduced_forms,
    reduced_form_bound,
    strict_equiv_search,
    type_1m_class_count,
    verify_witness,
)

# the closed-form bound
for p, l, m in [(3, 1, 4), (3, 2, 6), (2, 3, 6), (2, 5, 15)]:
    k, eps = bound_exponents(p, l, m)
    print("B(p=%d, l=%d, m=%d) = %d   (k=%d, eps=%d)"
          % (p, l, m, reduced_form_bound(p, l, m), k, eps))

# depth-one types attain the bound, matching the legacy table
print()
for m in (3, 4, 5):
    assert count_classes(3, 1, m) == type_1m_class_count(3, m)
    print("d(3, <1,%d>) = %d" % (m, type_1m_class_count(3, m)))

# l >= p: reduced forms of type <3,6> over F_2 merge in pairs
p, l, m = 2, 3, 6
rep = partition_reduced_forms(p, l, m)
print()
print("type <%d,%d> over F_%d: %d reduced forms, %d classes"
      % (l, m, p, rep.bound, rep.class_count))
for idx, cls in enumerate(rep.classes):
    members = [format_character_literal(rep.forms[i].to_character()) for i in cls]
    print("  class %d: %s" % (idx, "  ".join(members)))
for i, j, elt in rep.witnesses:
    print("  witness %d -> %d: %s" % (i, j, format_nottingham_product(elt)))

# each recorded witness is independently checkable
for i, j, elt in rep.witnesses:
    chi = rep.forms[i].to_character()
    psi = rep.forms[j].to_character()
    assert verify_witness(chi, psi, elt).ok

# a direct search between two merging forms returns the smallest witness
forms = list(enumerate_reduced_forms(p, l, m))
chi = forms[0].to_character()
psi = forms[1].to_character()
w = strict_equiv_search(chi, psi)
print()
print("search %s -> %s found %s"
      % (format_character_literal(chi), format_character_literal(psi),
         w.to_text()))

# the extreme merge: all four reduced forms of <5,15> over F_2 collapse
rep = partition_reduced_forms(2, 5, 15)
print()
print("type <5,15> over F_2: bound %d, classes %d" % (rep.bound, rep.class_count))
assert rep.class_count == 1
