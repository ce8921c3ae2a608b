"""Pruned, complete equivalence searches and closed-form class counts.

Two surjective characters of the same break type <l, m> are strictly
equivalent when some group element u maps one to the other by the
precomposition action while keeping chi(u(t)/t) = 0 mod p; dropping the
kernel condition gives weak equivalence.  The searches here prune by the
unit layer, the kernel test and compared values, never a candidate that
could witness, so they are complete: a miss is a proof of
non-equivalence, subject only to the cost budget.

The action of u on a character of bound m reads only the unit
coefficients a_1 .. a_(m-1) of u, and the kernel condition mod p reads
only a_1 .. a_l.  The unit layer reads fewer still: mod p, chi(E_k) is
the unit digit x_k, which vanishes above l, so the acted value at a
coprime j <= l, read mod p, weighs only the strip digits of E_j o u up
to degree l and reads only a_1 .. a_(l-j).  The strict and weak searches
scan F_p^(m-1) head by head, a head being a_1 .. a_l: a head that fails
the kernel test (strict only) or misses the target's unit layer skips
all of its extensions, and the others evaluate each candidate's rows
straight to values up to the first wrong one.  The class counts walk the
same candidates as a prefix tree, depth-first and in the same order: the
acted value at j reads only a_1 .. a_(m-j), so the walk compares values
as soon as their digits are fixed, and it prunes a prefix that can join
no two classes still apart.  Reduced forms have no unit digit below l,
so the walk also prunes, at depth d < l, a prefix whose unit-layer value
at j = l - d is nonzero, and since the action keeps x_l it pairs each
form from the root only with the forms that share its x_l.  The p
children of a node differ only in the last strip of their row, which
reduced forms see as a multiple of p, so they share one row: the walk
computes one power of z per node it expands, not one per node it
visits.  At <5,17> over F_2 the walk visits 57 nodes of the 2^16
candidates and computes 23 powers.  With the kernel test it gives the
strict classes of the reduced forms, without it the weak classes of the
type.

The trailing coefficient a_m is pinned to zero: it shifts chi(u(t)/t)
only by a multiple of p and never enters the action, so every
equivalence witnessed in F_p^m is witnessed with a_m = 0, and the
lexicographically smallest witness has a_m = 0.
"""

from __future__ import annotations

import itertools

from .characters import (
    Character,
    _action_row,
    _action_rows,
    _pairing,
    _row,
    _row_value,
    _value,
    _weigh,
    _weights,
    break_sequence,
    enumerate_reduced_forms,
    require_valid_type,
    scalar_mul,
)
from .reduction import _kernel_witness
from .series import (
    NottinghamElement,
    _pow_raw,
    _strip_run,
    _Value,
    as_prime,
)

DEFAULT_BUDGET = 1 << 26


class BudgetExceeded(Exception):
    """An exhaustive scan over p^m candidates would exceed the budget.

    The cost is kept as the pair (p, m) and printed as p^m, followed by
    its decimal value only when that is short, so a refusal never prints
    (or needs) a huge integer.
    """

    def __init__(self, p, m, budget):
        self.p, self.m, self.budget = p, m, budget
        super().__init__(
            "exhaustive search costs p^m = %s candidates, budget is %d"
            % (self.cost_text, budget)
        )

    def __reduce__(self):
        # pickle and copy rebuild from the constructor's arguments, not
        # from `args`, which holds only the message
        return type(self), (self.p, self.m, self.budget)

    @property
    def cost(self):
        return self.p**self.m

    @property
    def cost_text(self):
        if self.m * self.p.bit_length() <= 64:
            return "%d^%d = %d" % (self.p, self.m, self.cost)
        return "%d^%d" % (self.p, self.m)


def require_budget(p, m, budget):
    """Raise BudgetExceeded when a scan over p^m candidates exceeds budget.

    The partial powers stop at the first one past the budget, so p^m is
    never built for large m.
    """
    cost = 1
    for _ in range(m):
        cost *= p
        if cost > budget:
            raise BudgetExceeded(p, m, budget)


# ---------------------------------------------------------------------------
# Scan kernels.


def _kernel_root(z_head, p, l):
    """Exponent of E_l mod p in the greedy run of z up to depth l.

    For a character whose unit digits below l all vanish, chi(z) mod p is
    this value times the unit digit x_l; the kernel condition mod p is
    its vanishing.  Only z[0..l] is read.
    """
    return _value(z_head, [0] * l + [1], p, p, l)


def _kernel_value_modp(z_head, p, l, xdig):
    """chi(z) mod p for a character with unit digit vector xdig[0..l].

    xdig[k] is c_k mod p (zero at indices divisible by p); values at
    indices above l are p-multiples and invisible mod p.
    """
    return _value(z_head, xdig, p, p, l)


class _ActionScanner:
    """Per-candidate evaluation of the action on characters of bound m.

    _flat_scan calls `matches`; the orbit-count oracle in the tests calls
    the other two.  The benchmark's tracer wraps all three by name.
    """

    def __init__(self, prime, m):
        self.p = prime.p
        self.psq = prime.psq
        self.m = m

    def matches(self, z, weights, tgt_coeffs):
        """True when the candidate maps the source of `weights` to tgt at
        every coprime index; stops at the first index where it does not."""
        p, psq, m = self.p, self.psq, self.m
        for j, zj in _action_rows(z, p, m):
            if _row_value(j, zj, weights, p, psq, m) != tgt_coeffs.get(j, 0):
                return False
        return True

    def action_matrix(self, z):
        """Decomposition of E_j o u at every coprime j, as exps-dict rows.

        The action is linear in the character values, so one matrix per
        candidate evaluates the action on any number of sources.
        """
        p, psq, m = self.p, self.psq, self.m
        return [
            tuple(_action_row(j, zj, p, psq, m).items())
            for j, zj in _action_rows(z, p, m)
        ]

    def apply_matrix(self, rows, coeffs):
        """Acted value vector over the coprime indices, given a matrix."""
        psq = self.psq
        return tuple([_pairing(row, coeffs, psq) for row in rows])


def _flat_scan(chi, psi, budget, strict):
    """Raw unit of the lexicographically smallest candidate mapping chi
    to psi, or None.

    The candidates [1, a_1, ..., a_(m-1), 0] run in lexicographic order,
    head a_1 .. a_l first.  A head whose unit layer misses psi's, that is
    chi(E_j o u) mod p against psi's unit digit at some coprime j <= l,
    skips all of its extensions, and so does a head that fails the kernel
    condition, which strict adds.  Both tests read the head alone.
    """
    if chi.prime != psi.prime:
        raise ValueError("mismatched primes")
    if not (chi.is_surjective and psi.is_surjective):
        return None
    l, m = break_sequence(chi)
    if break_sequence(psi) != (l, m):
        return None
    p = chi.prime.p
    require_budget(p, m, budget)
    xdig = [chi.value(k) % p for k in range(l + 1)]
    ydig = [psi.value(k) % p for k in range(l + 1)]
    scanner = _ActionScanner(chi.prime, m)
    src, tgt = _weights(chi.coeffs, p, chi.prime.psq, m), psi.coeffs
    for head in itertools.product(range(p), repeat=l):
        z = [1, *head]
        if strict and _kernel_value_modp(z, p, l, xdig):
            continue
        rows = _action_rows(z, p, l)
        if any(_row_value(j, zj, xdig, p, p, l) != ydig[j] for j, zj in rows):
            continue
        for tail in itertools.product(range(p), repeat=m - 1 - l):
            z = [1, *head, *tail, 0]
            if scanner.matches(z, src, tgt):
                return z
    return None


def strict_equiv_search(chi: Character, psi: Character, budget: int = DEFAULT_BUDGET):
    """Exhaustive search for a strict-equivalence witness from chi to psi.

    Returns the Witness whose element has lexicographically smallest unit
    coefficients (a_1, a_2, ...), or None when no witness exists.  Types
    must agree, otherwise the answer is immediately None.  Raises
    BudgetExceeded when p^m exceeds the budget.
    """
    z = _flat_scan(chi, psi, budget, strict=True)
    if z is None:
        return None
    return _kernel_witness(chi, NottinghamElement.from_unit_coeffs(chi.prime, z[1:]))


def weak_equiv_search(chi: Character, psi: Character, budget: int = DEFAULT_BUDGET):
    """Like strict_equiv_search without the kernel condition.

    Returns the lexicographically smallest NottinghamElement mapping chi
    to psi, or None.
    """
    z = _flat_scan(chi, psi, budget, strict=False)
    if z is None:
        return None
    return NottinghamElement.from_unit_coeffs(chi.prime, z[1:])


# ---------------------------------------------------------------------------
# Partition of reduced forms into strict and weak classes.


class ClassReport(_Value):
    """Result of partitioning the reduced forms of a type into classes.

    `forms` lists the reduced forms in enumeration order; `classes` are
    tuples of indices into that list, each sorted ascending, the list
    sorted by first member; `witnesses` are (source, target, element)
    triples recorded at each union, all of which pass verify_witness.
    A report holds no runtime, so two partitions of one type compare and
    hash equal; the CLI times the call and builds the output documents.
    """

    __slots__ = (
        "prime",
        "l",
        "m",
        "bound",
        "class_count",
        "forms",
        "classes",
        "witnesses",
        "search_space_size",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            object.__setattr__(self, name, kw[name])

    def representative(self, class_index):
        """Lexicographically smallest member of the class."""
        return self.forms[self.classes[class_index][0]]


def _members(mask):
    """The set bits of mask, ascending: the members of a class mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _join_reduced_forms(prime, l, m, strict):
    """Join the reduced forms of <l, m> into classes; strict turns the
    kernel test on.

    A depth-first walk over the unit digits a_1 .. a_(m-1), each ascending,
    reaches the candidate elements in lexicographic order and evaluates
    the action on every form at once; two forms land in one class exactly
    when some chain of witnessed moves connects them.  Row j of the action
    reads only a_1 .. a_(m-j), so at depth d the walk compares the acted
    values at the coprime j = m - d, and keeps for each source the bitmask
    of targets that agree with it at every j compared so far.  Reduced
    forms have no unit digits below l, so one kernel test covers every
    source; it reads only a_1 .. a_l and runs once at depth l.  For the
    same reason every form's acted value at a coprime j < l is x_l times
    the strip digit of E_j o u at degree l, mod p, and every target's is
    0 mod p.  That digit reads only a_1 .. a_(l-j), so at each depth
    d < l with j = l - d coprime to p the walk reads it once for all
    sources and prunes the subtree when it is nonzero: no leaf below can
    reach a reduced form, strict or weak.  At j = l the strip digit of
    E_l o u at degree l is 1, so every form's acted value at l is its own
    x_l mod p, under every u: the action keeps x_l.  The walk therefore
    seeds each source's root mask with the forms that share its x_l, not
    with every form.  The pairs it leaves out differ at j = l and would
    die at depth m - l, before any leaf, so the leaves, the union order
    and the witnesses are the same as with every form live at the root;
    only the subtrees kept alive by those pairs alone go.  Over F_2 every
    form has x_l = 1 and the seed is every form.

    The p children of a node share one row.  With z' the prefix of a
    child at depth d and j = m - d, z^j = z'^j + j*a_d*t^d mod t^(d+1), so
    a_d moves the coefficient of E_j o u = 1 + t^j z^j only at degree m.
    That is the last strip of the greedy run, and no strip below m reads
    it, so the strip digit at m moves by j*a_d mod p and nothing else
    does.  A reduced form's weight on that digit is chi(E_m), a multiple
    of p: c_m itself when p does not divide m, and p*c_(m/p) otherwise
    (`_basis_value`).  So the wrap of the digit mod p is invisible mod
    p^2, and the child's acted value is its a_d = 0 sibling's plus
    j*a_d*weight.  Each expanded node computes that sibling's row once,
    with one power of z, strips it once and weighs the run once per live
    source, and its children only add the shift.

    cls[i] is the member mask of form i's class: equal within a class,
    disjoint across classes.  A union writes the OR of the two masks to
    the members of both classes, read off with `_members`, and touches no
    other form's mask, so its cost is the size of the joined class.  A
    node keeps the targets of each source that take the wanted value at j
    (by_val[j]) and lie outside its class, and a subtree is pruned when
    its prefix fails the unit layer or the kernel test or no mask is left.
    The pruned leaves would join nothing, so the leaves union sources
    ascending, as a flat scan of every candidate would.  The walk runs
    until its stack is empty.  It has no exit at one class: for p >= 3 the
    seed keeps forms with different x_l apart from the root, and over F_2
    every node after the last union finds no mask left and is pruned.
    Returns (forms, cls, witnesses), the forms in enumeration order and
    the witnesses as (source, target, element) triples, one per union, in
    that order.
    """
    p, psq = prime.p, prime.psq
    forms = list(enumerate_reduced_forms(prime, l, m))
    n = len(forms)
    cls, witnesses = [1 << i for i in range(n)], []
    weights = [_weights(f.to_character().coeffs, p, psq, m) for f in forms]
    by_val = {j: {} for j in range(1, m + 1) if j % p}
    for (j, masks), k in itertools.product(by_val.items(), range(n)):
        masks[weights[k][j]] = masks.get(weights[k][j], 0) | 1 << k
    # the unit digits of a form with x_l = 1: its unit-layer values are
    # every form's, up to the factor x_l
    unit = [0] * l + [1]
    # the root masks: the action keeps x_l, so a form can only join the
    # forms that share it
    same_x = {}
    for i, f in enumerate(forms):
        same_x[f.x_l] = same_x.get(f.x_l, 0) | 1 << i

    # depth-first over prefixes z = [1, a_1, ..., a_d] on an explicit stack
    # (clear of the recursion limit), children pushed in reverse so a_(d+1)
    # pops ascending; live maps each source, ascending, to its mask of
    # targets still matching in other classes, and base to its acted value
    # at j = m - d with a_d = 0 (the root's row is E_m), or is None if p | j.
    stack = [([1], {i: same_x[f.x_l] for i, f in enumerate(forms)},
              {i: w[m] for i, w in enumerate(weights)} if m % p else None)]
    while stack:
        z, live, base = stack.pop()
        d = len(z) - 1
        j = m - d
        if 0 < d < l and (l - d) % p:
            if _row_value(l - d, _pow_raw(z, l - d, p, d), unit, p, p, l):
                continue
        if strict and d == l and _kernel_root(z, p, l):
            continue
        if base is None:
            live = {i: r for i, mask in live.items() if (r := mask & ~cls[i])}
        else:
            step, vals = (j * z[d] if d else 0), by_val[j]
            live = {i: r for i, mask in live.items() if (r := mask & ~cls[i]
                    & vals.get((base[i] + step * weights[i][m]) % psq, 0))}
        if not live:
            continue
        if d < m - 1:
            shared = None
            if (j - 1) % p:
                run = _strip_run(_row(j - 1, _pow_raw(z, j - 1, p, d + 1)), p, m)
                shared = {i: _weigh(run, weights[i], psq) for i in live}
            stack.extend(([*z, a], live, shared) for a in reversed(range(p)))
            continue
        # each mask holds one bit, since distinct forms differ at some coprime j
        for i, mask in live.items():
            k = mask.bit_length() - 1
            if not cls[i] >> k & 1:
                joined = cls[i] | cls[k]
                for member in _members(joined):
                    cls[member] = joined
                witnesses.append((i, k, NottinghamElement.from_unit_coeffs(prime, [*z[1:], 0])))
    return forms, cls, witnesses


def partition_reduced_forms(p, l, m, budget: int = DEFAULT_BUDGET) -> ClassReport:
    """Partition the reduced forms of type <l, m> into strict classes.

    The classes and witnesses come from the pruned walk of
    _join_reduced_forms with the kernel test on, and are the same as a
    flat scan of every candidate would give.  Raises BudgetExceeded when
    p^m exceeds the budget.
    """
    prime = as_prime(p)
    p = prime.p
    require_valid_type(prime, l, m)
    require_budget(p, m, budget)
    forms, cls, witnesses = _join_reduced_forms(prime, l, m, strict=True)
    # disjoint classes, so the tuple sort orders them by first member
    classes = sorted(tuple(_members(c)) for c in set(cls))
    return ClassReport(
        prime=prime,
        l=l,
        m=m,
        bound=reduced_form_bound(prime, l, m),
        class_count=len(classes),
        forms=tuple(forms),
        classes=tuple(classes),
        witnesses=tuple(witnesses),
        search_space_size=p**m,
    )


def count_classes(p, l, m, budget: int = DEFAULT_BUDGET) -> int:
    """Number of strict classes of type <l, m>, by the exhaustive
    partition; raises BudgetExceeded when p^m exceeds the budget."""
    return partition_reduced_forms(p, l, m, budget).class_count


def weak_class_count(p, l, m) -> int:
    """Number of weak classes of type <l, m>.

    Every character is strictly, hence weakly, equivalent to its reduced
    form, so the weak classes of the type are those of its reduced forms:
    the partition's walk with the kernel test off.  Each union joins two
    components, so the count is the number of forms less the unions.
    Unlike the partition it takes no budget; its cost is the nodes the
    walk visits.  That is at most about p^(m-1), but a subtree lives only
    while two forms of one x_l still agree on it, so at <4,26> over F_3,
    with 3^25 candidates, the walk computes 409 powers of z.

    The weak classes are the orbits of one move on the d strict classes.
    Let delta(u) be the exponent of E_l, mod p, in the greedy run of u's
    unit part (`_kernel_root`).  A character with no unit digit below l
    has kernel value chi(u(t)/t) = x_l*delta(u) mod p.  Every move between
    reduced forms lies in the subgroup H of elements that keep "no unit
    digit below l", and delta is additive on H, though not on the whole
    group.  s = t(1 + t^l) lies in H with delta(s) = 1, so every weak move
    is s^c followed by a strict move, and sigma: [f] -> [reduce(f o s)] is a
    well-defined permutation of the strict classes with sigma^p = 1.  So
    w = fix(sigma) + (d - fix(sigma))/p.
    """
    prime = as_prime(p)
    require_valid_type(prime, l, m)
    forms, _, witnesses = _join_reduced_forms(prime, l, m, strict=False)
    return len(forms) - len(witnesses)


# ---------------------------------------------------------------------------
# Closed forms.


def bound_exponents(p, l, m):
    """The pair (k, eps): free window digits and free unit digits.

    k counts indices j in [m-l, m-1] coprime to p; eps is 1 when p
    divides m and 2 otherwise.
    """
    prime = as_prime(p)
    require_valid_type(prime, l, m)
    k = sum(1 for j in range(m - l, m) if j % prime.p)
    eps = 1 if m % prime.p == 0 else 2
    return k, eps


def reduced_form_bound(p, l, m) -> int:
    """Closed-form count p^k (p-1)^eps of reduced forms of type <l, m>.

    This is an upper bound for the number of strict classes, with
    equality exactly when l < p.
    """
    prime = as_prime(p)
    k, eps = bound_exponents(prime, l, m)
    return prime.p**k * (prime.p - 1) ** eps


def order_p_class_count(p) -> int:
    """Published count of conjugacy classes of order-p elements of depth m:
    p - 1, independent of m."""
    return as_prime(p).p - 1


def _depth_table_count(p, m) -> int:
    """The published piecewise count by m mod p: p(p-1) at 0, (p-1)^2
    at 1, p(p-1)^2 otherwise."""
    if m % p == 0:
        return p * (p - 1)
    if m % p == 1:
        return (p - 1) ** 2
    return p * (p - 1) ** 2


def type_1m_class_count(p, m) -> int:
    """Published strict class count for type <1, m>."""
    p = as_prime(p).p
    require_valid_type(p, 1, m)
    return _depth_table_count(p, m)


def type_2m_weak_class_count(p, m) -> int:
    """Published weak class count for type <2, m>."""
    p = as_prime(p).p
    require_valid_type(p, 2, m)
    return _depth_table_count(p, m)


# ---------------------------------------------------------------------------
# Power conjugacy.


def power_conjugacy_criterion(p, l, m, n: int) -> bool:
    """Closed-form answer to whether u and u^n are conjugate, for u of
    order p^2 and type <l, m> with u^n != u: true exactly when n = 1 mod p
    and (p, l, m) is not of the shape (2, l, 2l)."""
    prime = as_prime(p)
    require_valid_type(prime, l, m)
    n = int(n)
    if n % prime.p != 1:
        return False
    if prime.p == 2 and m == 2 * l:
        return False
    return True


def power_conjugacy_oracle(chi: Character, n: int, budget: int = DEFAULT_BUDGET):
    """Brute-force answer for one character: is chi strictly equivalent to
    its n-th scalar multiple?  Returns (found, witness-or-None)."""
    n = int(n)
    prime = chi.prime
    if not chi.is_surjective:
        raise ValueError("character is not surjective")
    if n % prime.p == 0:
        raise ValueError("n must be coprime to p")
    psi = scalar_mul(n, chi)
    if psi == chi:
        raise ValueError("scalar multiple equals the character itself")
    w = strict_equiv_search(chi, psi, budget)
    return (w is not None), w
