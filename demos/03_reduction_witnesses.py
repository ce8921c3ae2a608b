"""
Reducing a character with a checkable witness
=============================================

Any character of type <l, m> can be pushed to a canonical reduced form
by acting with explicit group elements.  The reduced form keeps only the
unit value at l and p-multiples on the window [m-l, m].  Every move is
certified: the witness element u satisfies u . chi = reduced and fixes
the kernel condition, and verify_witness re-derives both facts from
scratch.
"""

from nottorsion import (
    break_sequence,
    char_act,
    clear_low_p_part,
    format_character_literal,
    is_reduced,
    parse_character_literal,
    reduce,
    reduce_mod_p,
    verify_witness,
    window_indices,
)

p = 3
chi = parse_character_literal("1:1,2:1,7:3", p)
l, m = break_sequence(chi)
print("chi     =", format_character_literal(chi))
print("type    = <%d,%d>" % (l, m))
print("window  =", window_indices(p, l, m))
print("reduced?", is_reduced(chi))

# stage one clears the unit digits below l
stage1, w1 = reduce_mod_p(chi)
print()
print("after stage one :", format_character_literal(stage1))
print("stage-one witness:", w1.to_text())

# stage two clears the p-multiples outside the window
stage2, w2 = clear_low_p_part(stage1)
print("after stage two :", format_character_literal(stage2))
print("stage-two witness:", w2.to_text())
assert is_reduced(stage2)

# the one-call version runs both stages' steps into one element and reads
# the form from the values its steps recorded, without acting
form, w = reduce(chi)
psi = form.to_character()
print()
print("reduced form    :", format_character_literal(psi))
print("total witness   :", w.to_text())
print("kernel value    :", w.kernel_value)

# verification recomputes the action and the kernel condition; the
# witness element alone is the certificate
check = verify_witness(chi, psi, w)
print("verify          :", check.reason)
assert check.ok
assert char_act(w.element, chi) == psi

# feeding a wrong target is caught, with a reason
bad = verify_witness(chi, chi, w)
print("wrong target    :", bad.reason)
assert not bad.ok

# reduction is idempotent: a reduced character is its own reduced form
again, w_id = reduce(psi)
assert again.to_character() == psi
print()
print("re-reducing the reduced form gives witness", w_id.to_text())
