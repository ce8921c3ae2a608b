"""Brute-force equivalence oracles and closed-form class counts.

Two surjective characters of the same break type <l, m> are strictly
equivalent when some group element u maps one to the other by the
precomposition action while keeping chi(u(t)/t) = 0 mod p; dropping the
kernel condition gives weak equivalence.  The searches here exhaust the
group modulo the subgroup acting trivially and are therefore complete:
a miss is a proof of non-equivalence, subject only to the cost budget.

The action of u on a character of bound m reads only the unit
coefficients a_1 .. a_(m-1) of u, and the kernel condition mod p reads
only a_1 .. a_l, so the scan runs over F_p^(m-1) with a kernel test on
each prefix.  The trailing coefficient a_m is pinned to zero: it shifts
chi(u(t)/t) only by a multiple of p and never enters the action, so
every equivalence witnessed in F_p^m is witnessed with a_m = 0, and the
lexicographically smallest witness has a_m = 0.
"""

from __future__ import annotations

import itertools
import time

from .characters import (
    Character,
    _action_rows,
    _pairing,
    break_sequence,
    char_eval,
    enumerate_characters,
    enumerate_reduced_forms,
    format_character_literal,
    require_valid_type,
    scalar_mul,
)
from .reduction import Witness
from .series import NottinghamElement, _strip_run, as_prime, format_nottingham_product

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
    for k, c in _strip_run(z_head, p, l):
        if k == l:
            return c
    return 0


def _kernel_value_modp(z_head, p, l, xdig):
    """chi(z) mod p for a character with unit digit vector xdig[0..l].

    xdig[k] is c_k mod p (zero at indices divisible by p); values at
    indices above l are p-multiples and invisible mod p.
    """
    return sum(c * xdig[k] for k, c in _strip_run(z_head, p, l)) % p


class _ActionScanner:
    """Per-candidate evaluation of the action on characters of bound m."""

    def __init__(self, prime, m):
        self.p = prime.p
        self.psq = prime.psq
        self.m = m
        self.cop = [j for j in range(1, m + 1) if j % prime.p]

    def index(self, chars):
        """Map each character's value vector over the coprime indices, the
        key apply_matrix returns, to its position in chars."""
        return {tuple(c.value(j) for j in self.cop): i for i, c in enumerate(chars)}

    def matches(self, z, src_coeffs, tgt_coeffs):
        """True when the candidate maps src to tgt at every coprime index;
        stops at the first index where it does not."""
        psq = self.psq
        for j, exps in _action_rows(z, self.p, psq, self.m):
            if _pairing(exps.items(), src_coeffs, psq) != tgt_coeffs.get(j, 0):
                return False
        return True

    def action_matrix(self, z):
        """Decomposition of E_j o u at every coprime j, as exps-dict rows.

        The action is linear in the character values, so one matrix per
        candidate evaluates the action on any number of sources.
        """
        return [
            tuple(exps.items())
            for _, exps in _action_rows(z, self.p, self.psq, self.m)
        ]

    def apply_matrix(self, rows, coeffs):
        """Acted value vector over the coprime indices, given a matrix."""
        psq = self.psq
        return tuple([_pairing(row, coeffs, psq) for row in rows])


def _candidates(p, m, head=0, rejected=None):
    """Raw units [1, a_1, ..., a_(m-1), 0] in lexicographic order.

    Each length-head prefix (a_1 .. a_head) is tested once: when
    rejected([1, *prefix]) is true, every extension of that prefix is
    skipped.  With no test, every candidate is yielded.
    """
    for prefix in itertools.product(range(p), repeat=head):
        if rejected is not None and rejected([1, *prefix]):
            continue
        for suffix in itertools.product(range(p), repeat=m - 1 - head):
            yield [1, *prefix, *suffix, 0]


def _flat_scan(chi, psi, budget, strict):
    """Raw unit of the lexicographically smallest candidate mapping chi
    to psi, or None; strict adds the kernel condition, tested once per
    length-l prefix.
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
    if strict:
        xdig = [chi.value(k) % p if k % p else 0 for k in range(l + 1)]
        walk = _candidates(p, m, l, lambda z: _kernel_value_modp(z, p, l, xdig))
    else:
        walk = _candidates(p, m)
    scanner = _ActionScanner(chi.prime, m)
    src, tgt = chi.coeffs, psi.coeffs
    for z in walk:
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
    elt = NottinghamElement.from_unit_coeffs(chi.prime, z[1:])
    return Witness(elt, char_eval(chi, elt.unit))


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
# Partition of reduced forms into strict classes.


class ClassReport:
    """Result of partitioning the reduced forms of a type into classes.

    `forms` lists the reduced forms in enumeration order; `classes` are
    tuples of indices into that list, each sorted ascending, the list
    sorted by first member; `witnesses` are (source, target, element)
    triples recorded at each union, all of which pass verify_witness.
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
        "runtime_ms",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            object.__setattr__(self, name, kw[name])

    def __setattr__(self, name, value):
        raise AttributeError("ClassReport is immutable")

    def representative(self, class_index):
        """Lexicographically smallest member of the class."""
        return self.forms[self.classes[class_index][0]]

    def to_json_dict(self):
        return {
            "p": self.prime.p,
            "l": self.l,
            "m": self.m,
            "bound": self.bound,
            "class_count": self.class_count,
            "search_space_size": self.search_space_size,
            "runtime_ms": self.runtime_ms,
            "classes": [
                {
                    "representative": format_character_literal(
                        self.forms[cls[0]].to_character()
                    ),
                    "members": [
                        {
                            "x_l": self.forms[i].x_l,
                            "b": {str(j): v for j, v in sorted(self.forms[i].b.items())},
                            "character": format_character_literal(
                                self.forms[i].to_character()
                            ),
                        }
                        for i in cls
                    ],
                    "witnesses": [
                        {
                            "source": i,
                            "target": j,
                            "element": format_nottingham_product(elt),
                        }
                        for (i, j, elt) in self.witnesses
                        if i in cls
                    ],
                }
                for cls in self.classes
            ],
        }


def _find(parent, i):
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _union(parent, i, j):
    """Link j's set under i's root; False when the two are already one."""
    ri, rj = _find(parent, i), _find(parent, j)
    if ri == rj:
        return False
    parent[rj] = ri
    return True


def partition_reduced_forms(p, l, m, budget: int = DEFAULT_BUDGET) -> ClassReport:
    """Partition the reduced forms of type <l, m> into strict classes.

    A single lexicographic scan over candidate elements evaluates the
    action on every reduced form at once; two forms land in one class
    exactly when some chain of witnessed moves connects them.  Reduced
    forms have no unit digits below l, so one kernel test covers every
    source; it reads only a_1 .. a_l and runs once per length-l prefix.
    """
    started = time.perf_counter()
    prime = as_prime(p)
    p = prime.p
    require_valid_type(prime, l, m)
    require_budget(p, m, budget)
    forms = list(enumerate_reduced_forms(prime, l, m))
    chars = [f.to_character() for f in forms]
    n = len(forms)
    scanner = _ActionScanner(prime, m)
    index_of = scanner.index(chars)
    parent = list(range(n))
    witnesses = []
    remaining = n
    for z in _candidates(p, m, l, lambda head: _kernel_root(head, p, l)):
        mat = scanner.action_matrix(z)
        for i in range(n):
            hit = index_of.get(scanner.apply_matrix(mat, chars[i].coeffs))
            if hit is not None and _union(parent, i, hit):
                elt = NottinghamElement.from_unit_coeffs(prime, z[1:])
                witnesses.append((i, hit, elt))
                remaining -= 1
        if remaining == 1:
            break
    groups = {}
    for i in range(n):
        groups.setdefault(_find(parent, i), []).append(i)
    classes = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0])
    runtime_ms = int((time.perf_counter() - started) * 1000)
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
        runtime_ms=runtime_ms,
    )


def count_classes(p, l, m, budget: int = DEFAULT_BUDGET) -> int:
    """Number of strict classes of type <l, m>, by the exhaustive
    partition; raises BudgetExceeded when p^m exceeds the budget."""
    return partition_reduced_forms(p, l, m, budget).class_count


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
# Weak classes by orbit counting.


def weak_class_count(p, l, m) -> int:
    """Number of weak classes of type <l, m>, by explicit orbit counting.

    The action on characters of bound m factors through the group
    generated by the elementary elements t(1 + c t^k) with k < m, and the
    action of a fixed element is linear in the character values, so each
    generator acts through a small matrix of basis decompositions.
    Orbits are computed by union-find over all characters of the type.
    """
    prime = as_prime(p)
    p = prime.p
    require_valid_type(prime, l, m)
    chars = list(enumerate_characters(prime, l, m))
    scanner = _ActionScanner(prime, m)
    index_of = scanner.index(chars)
    # generator action matrices: for each generator t(1+c t^k), the basis
    # decomposition of E_j o g at every coprime j
    matrices = []
    for k in range(1, m):
        for c in range(1, p):
            z = [0] * (m + 1)
            z[0] = 1
            z[k] = c
            matrices.append(scanner.action_matrix(z))
    parent = list(range(len(chars)))
    for i, chi in enumerate(chars):
        for mat in matrices:
            _union(parent, i, index_of[scanner.apply_matrix(mat, chi.coeffs)])
    return len({_find(parent, i) for i in range(len(chars))})


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
