"""End-to-end acceptance checks for the package's published behavior.

Each criterion runner performs one family of checks and returns a
CriterionResult carrying its (ok, text) checks: the runner body lists
them and the `_criterion` decorator builds the result.  The test suite
runs all of them and the CLI exposes them under the `verify`
subcommand, which times each one.  The runners are deterministic apart
from the elapsed times that criteria 1 and 6 check against a limit:
randomized suites draw from fixed seeds.

Criterion 6 runs its eight property suites in forked worker processes,
up to one per available CPU, and in turn in the calling process where
only one CPU is available or fork is missing.  The seconds it states
for each suite are that worker's own; its output is otherwise the same
either way.

Criterion 3 is expected to fail in part: the claimed identity
"strict count = p * weak count" for depth-2 types is impossible exactly
when m = 2 mod p, that is when p divides m - l.  The strict count is
capped by the reduced-form bound B, and in that congruence class B
equals the weak count, so p times the weak count exceeds it.  At <2,8>
over F_3 this gives strict 12 against p*weak 36.  The strict counts come
from the exhaustive partition (`count_classes`), not from counting
reduced forms, which would give B by construction.  The runner states
the computed values and fails honestly rather than weakening the claim.
"""

import functools
import itertools
import os
import pickle
import random
import select
import signal
import time

from .characters import (
    Character,
    _type_choice_lists,
    break_sequence,
    char_act,
    char_eval,
    enumerate_characters,
    enumerate_reduced_forms,
    format_character_literal,
    parse_character_literal,
    scalar_mul,
    validate_type,
)
from .equivalence import (
    DEFAULT_BUDGET,
    count_classes,
    partition_reduced_forms,
    power_conjugacy_criterion,
    power_conjugacy_oracle,
    reduced_form_bound,
    strict_equiv_search,
    type_1m_class_count,
    type_2m_weak_class_count,
    weak_class_count,
)
from .reduction import reduce as reduce_character
from .reduction import verify_witness
from .series import (
    NottinghamElement,
    UnitSeries,
    _Value,
    nott_compose,
    nott_inverse,
    parse_nottingham,
    unit_decompose,
    unit_mul,
    unit_recompose,
)

__all__ = [
    "CriterionResult",
    "CRITERIA",
    "run_criterion",
    "run_all",
]

DEFAULT_SEED = 20260818
SAMPLE_COST_CAP = 2048  # p^m cap for the exhaustive conjugacy sweep
PROPERTY_CASES = 1000  # random cases per property suite in criterion 6


class CriterionResult(_Value):
    """Outcome of one acceptance criterion: its (ok, text) checks and
    whether all of them passed.  A result holds no runtime; the CLI times
    each criterion and builds the output documents."""

    __slots__ = ("number", "title", "passed", "checks")

    def __init__(self, number, title, checks):
        checks = tuple(checks)
        object.__setattr__(self, "number", number)
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "passed", all(ok for ok, _ in checks))


def _valid_types(primes, max_l, max_m):
    out = []
    for p in primes:
        for l in range(1, max_l + 1):
            for m in range(l + 1, max_m + 1):
                if validate_type(p, l, m):
                    out.append((p, l, m))
    return out


def _random_character_of_type(rng, p, l, m):
    """Uniform draw over the characters of one type, without enumerating:
    one value per index from the layout that enumeration walks."""
    indices, choices = _type_choice_lists(p, l, m)
    return Character(p, {j: rng.choice(c) for j, c in zip(indices, choices)})


def _random_element(rng, p, n):
    return NottinghamElement.from_unit_coeffs(p, [rng.randrange(p) for _ in range(n)])


def _criterion(number, title):
    """Decorate a runner that returns its (ok, text) checks: the decorated
    runner returns the CriterionResult of criterion `number`."""

    def wrap(checks_of):
        @functools.wraps(checks_of)
        def run(budget=DEFAULT_BUDGET, seed=DEFAULT_SEED):
            return CriterionResult(number, title, checks_of(budget, seed))

        return run

    return wrap


# ---------------------------------------------------------------------------
# Criterion 1: reduced-form enumeration matches the closed-form count.


@_criterion(1, "reduced-form enumeration matches the closed-form count")
def run_criterion_1(budget, seed):
    started = time.perf_counter()
    bad = []
    types = _valid_types((2, 3, 5), 6, 18)
    for p, l, m in types:
        got = sum(1 for _ in enumerate_reduced_forms(p, l, m))
        want = reduced_form_bound(p, l, m)
        if got != want:
            bad.append("(%d,%d,%d): enumerated %d, closed form %d" % (p, l, m, got, want))
    elapsed = time.perf_counter() - started
    return [
        (
            not bad,
            "%d valid types with p in {2,3,5}, l <= 6, m <= 18 all enumerate "
            "to the closed-form count" % len(types)
            if not bad
            else "mismatches: " + "; ".join(bad),
        ),
        (elapsed < 1.0, "enumeration sweep finished in %.3f s (limit 1 s)" % elapsed),
    ]


# ---------------------------------------------------------------------------
# Criterion 2: below p the partition count, the number of distinct
# reduced forms and the bound agree.


CRITERION_2_GRID = (
    (2, 1, 2),
    (2, 1, 3),
    (2, 1, 5),
    (3, 1, 3),
    (3, 1, 4),
    (3, 1, 5),
    (3, 2, 7),
)


@_criterion(2, "class counts below p: canonical = oracle = bound")
def run_criterion_2(budget, seed):
    checks = []
    for p, l, m in CRITERION_2_GRID:
        oracle = count_classes(p, l, m, budget=budget)
        # reducing every character reaches every reduced form, so this
        # count is B by construction: a cross-check of reduce, not a count
        # of classes
        canon = len({reduce_character(chi)[0] for chi in enumerate_characters(p, l, m)})
        bound = reduced_form_bound(p, l, m)
        ok = canon == oracle == bound
        checks.append(
            (
                ok,
                "(%d,%d,%d): canonical %d, oracle %d, bound %d"
                % (p, l, m, canon, oracle, bound),
            )
        )
    return checks


# ---------------------------------------------------------------------------
# Criterion 3: legacy depth-1 and depth-2 tables, and the claimed
# strict = p * weak identity for depth 2.


@_criterion(3, "legacy count tables and the strict = p * weak identity")
def run_criterion_3(budget, seed):
    checks = []
    # depth-1 strict counts, by the exhaustive partition, against the
    # published table
    for p, l, m in CRITERION_2_GRID:
        if l != 1:
            continue
        got = count_classes(p, 1, m, budget=budget)
        want = type_1m_class_count(p, m)
        checks.append(
            (got == want, "depth-1 table at (%d,%d): computed %d, table %d" % (p, m, got, want))
        )
    # depth-2 weak counts against the published table; depth 2 only
    # exists for odd p, so p = 3, m <= 8 is the whole grid here
    no_p2 = not any(validate_type(2, 2, m) for m in range(3, 9))
    checks.append(
        (no_p2, "no valid depth-2 types at p=2 (depth must be coprime to p)")
    )
    weak = {m: weak_class_count(3, 2, m) for m in (6, 7, 8)}
    for m in (6, 7, 8):
        want = type_2m_weak_class_count(3, m)
        checks.append(
            (
                weak[m] == want,
                "depth-2 weak table at (3,%d): computed %d, table %d" % (m, weak[m], want),
            )
        )
    # the claimed identity strict = p * weak for depth 2; fails at
    # m = 2 mod 3 where p * weak exceeds the reduced-form bound
    for m in (6, 7, 8):
        strict = count_classes(3, 2, m, budget=budget)
        checks.append(
            (
                strict == 3 * weak[m],
                "strict = p * weak at (3,2,%d): strict %d, p*weak %d, bound %d"
                % (m, strict, 3 * weak[m], reduced_form_bound(3, 2, m)),
            )
        )
    return checks


# ---------------------------------------------------------------------------
# Criterion 4: the merging example at p=2, type <5,15>.


@_criterion(4, "reduced forms of one class merge at p=2, type <5,15>")
def run_criterion_4(budget, seed):
    checks = []
    chi = parse_character_literal("5:1,15:2", 2)
    psi = parse_character_literal("5:1,11:2,15:2", 2)

    # (a) the two reduced forms merge under strict search
    w = strict_equiv_search(chi, psi, budget=budget)
    found = w is not None and verify_witness(chi, psi, w).ok
    checks.append(
        (
            found,
            "strict witness found and verified: %s" % (w.to_text() if w else "none"),
        )
    )

    # (b) replay of the constructive route: act by a hand-picked element
    # with kernel value 0, then clean up with the reduction pipeline
    u0 = parse_nottingham("t*(1+t^3+t^4)", 2, 15)
    kernel0 = char_eval(chi, u0.unit)
    acted = char_act(u0, chi)
    form, w2 = reduce_character(acted)
    total = nott_compose(w2.element, u0)
    replay_ok = (
        kernel0 == 0
        and acted.value(11) == 2
        and form.to_character() == psi
        and verify_witness(chi, psi, total).ok
    )
    checks.append(
        (
            replay_ok,
            "constructive replay: kernel %d, acted value at 11 = %d, "
            "reduction lands on %s"
            % (kernel0, acted.value(11), format_character_literal(form.to_character())),
        )
    )

    # (c) the partition merges everything, strictly below the bound
    rep = partition_reduced_forms(2, 5, 15, budget=budget)
    witnesses_ok = all(
        verify_witness(rep.forms[i].to_character(), rep.forms[j].to_character(), e).ok
        for i, j, e in rep.witnesses
    )
    checks.append(
        (
            rep.class_count < rep.bound and witnesses_ok,
            "partition: %d class(es) over bound %d, all %d recorded witnesses verify"
            % (rep.class_count, rep.bound, len(rep.witnesses)),
        )
    )
    return checks


# ---------------------------------------------------------------------------
# Criterion 5: exhaustive power-conjugacy agreement on small types.


@_criterion(5, "power-conjugacy oracle agrees with the closed-form criterion")
def run_criterion_5(budget, seed):
    rng = random.Random(seed)
    checks = []
    disagreements = []
    comparisons = 0
    types = [
        (p, l, m)
        for p, l, m in _valid_types((2, 3), 6, 11)
        if p**m <= SAMPLE_COST_CAP
    ]
    saw_exception_family = False
    for p, l, m in types:
        if p == 2 and m == 2 * l:
            saw_exception_family = True
        pool = list(enumerate_characters(p, l, m))
        rng.shuffle(pool)
        sample = pool[: min(50, len(pool))]
        ns = [n for n in range(2, p * p) if n % p]
        for chi in sample:
            for n in ns:
                if scalar_mul(n, chi) == chi:
                    continue
                found, w = power_conjugacy_oracle(chi, n, budget=budget)
                predicted = power_conjugacy_criterion(p, l, m, n)
                comparisons += 1
                if found != predicted:
                    disagreements.append(
                        "(%d,%d,%d) n=%d chi=%s: oracle %s, closed form %s"
                        % (p, l, m, n, format_character_literal(chi), found, predicted)
                    )
                elif found and not verify_witness(chi, scalar_mul(n, chi), w).ok:
                    disagreements.append(
                        "(%d,%d,%d) n=%d: witness failed verification" % (p, l, m, n)
                    )
    checks.append(
        (
            not disagreements,
            "%d comparisons across %d types (search cost capped at %d): %s"
            % (
                comparisons,
                len(types),
                SAMPLE_COST_CAP,
                "zero disagreements" if not disagreements else "; ".join(disagreements[:4]),
            ),
        )
    )
    checks.append(
        (
            saw_exception_family,
            "grid includes doubled-depth types over F_2, where the answer flips",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# Criterion 6: randomized property suites.


def _case_decompose_roundtrip(rng):
    p = rng.choice((2, 3, 5))
    m = rng.randrange(1, 16)
    f = UnitSeries(p, [rng.randrange(p) for _ in range(m)])
    e = unit_decompose(f, m)
    g = unit_recompose(e, m)
    # exponents are mod p^2, so the series round trip is exact
    # exactly on the lossless domain m < p^2; the exponent vector
    # itself must always be stable
    return (m >= p * p or g == f) and unit_decompose(g, m) == e


def _case_frobenius(rng):
    p = rng.choice((2, 3, 5))
    n = rng.randrange(p, 16)
    j = rng.randrange(1, n // p + 1)
    # a p-fold product, not unit_pow, which computes p-th powers by this
    # very identity
    basis = UnitSeries.basis(p, j, n)
    return functools.reduce(unit_mul, [basis] * p) == UnitSeries.basis(p, p * j, n)


def _case_group_axioms(rng):
    p = rng.choice((2, 3, 5))
    n = rng.randrange(1, 16)
    u, v, w = (_random_element(rng, p, n) for _ in range(3))
    e = NottinghamElement.identity(p, n)
    inv = nott_inverse(u)
    return (
        nott_compose(nott_compose(u, v), w) == nott_compose(u, nott_compose(v, w))
        and nott_compose(u, e) == u
        and nott_compose(e, u) == u
        and nott_compose(u, inv) == e
        and nott_compose(inv, u) == e
    )


@functools.cache
def _property_types():
    """The property grid, built on first use rather than at import."""
    return tuple(_valid_types((2, 3, 5), 7, 15))


def _draw_character(rng):
    """A type drawn from the property grid and a character of that type."""
    types = _property_types()
    p, l, m = types[rng.randrange(len(types))]
    return p, l, m, _random_character_of_type(rng, p, l, m)


def _case_contravariance(rng):
    p, _, _, chi = _draw_character(rng)
    n = chi.bound
    u, v = _random_element(rng, p, n), _random_element(rng, p, n)
    return char_act(nott_compose(u, v), chi) == char_act(u, char_act(v, chi))


def _case_type_invariance(rng):
    p, l, m, chi = _draw_character(rng)
    u = _random_element(rng, p, chi.bound)
    return break_sequence(char_act(u, chi)) == (l, m)


def _case_digit_invariants(rng):
    p, l, m, chi = _draw_character(rng)
    u = _random_element(rng, p, chi.bound)
    acted = char_act(u, chi)
    return acted.value(l) % p == chi.value(l) % p and (
        m % p == 0 or acted.value(m) == chi.value(m)
    )


def _case_reduce_soundness(rng):
    _, _, _, chi = _draw_character(rng)
    form, w = reduce_character(chi)
    return verify_witness(chi, form.to_character(), w).ok


def _case_reduce_idempotence(rng):
    p, _, _, chi = _draw_character(rng)
    form, _ = reduce_character(chi)
    again, w = reduce_character(form.to_character())
    return again == form and w.element == NottinghamElement.identity(
        p, form.to_character().bound
    )


PROPERTY_SUITES = (
    ("decomposition round-trip", _case_decompose_roundtrip),
    ("Frobenius power identity", _case_frobenius),
    ("group axioms at fixed precision", _case_group_axioms),
    ("action contravariance", _case_contravariance),
    ("type invariance under action", _case_type_invariance),
    ("digit invariants under action", _case_digit_invariants),
    ("reduce soundness", _case_reduce_soundness),
    ("reduce idempotence", _case_reduce_idempotence),
)


def _run_suite(offset, seed):
    """(failures, seconds) of property suite `offset`, drawing from the
    seed plus the offset."""
    _, case = PROPERTY_SUITES[offset]
    rng = random.Random(seed + offset)
    started = time.perf_counter()
    fails = sum(not case(rng) for _ in range(PROPERTY_CASES))
    return fails, time.perf_counter() - started


def _available_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_suite(offset, seed):
    """Start a child that runs property suite `offset`: its pid and the
    read end of a pipe on which it sends its outcome, or the exception it
    raised, pickled.  The child leaves by os._exit, so it runs no exit
    handler and flushes none of the buffers it shares with the parent."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = _run_suite(offset, seed)
            except Exception as exc:  # sent to the parent, which raises it
                outcome = exc
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(outcome, out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _suite_outcomes(seed):
    """(failures, seconds) of each property suite, in suite order.

    The suites are independent, so with more than one CPU each runs in a
    forked child, with at most one child per CPU at a time, and its
    seconds are its own.  An exception raised in a child is raised here.  Every
    child is reaped before return; on an exception or an interrupt the
    ones still running are killed first.  With one CPU, or without fork,
    the suites run here, one after another.
    """
    count = len(PROPERTY_SUITES)
    workers = min(_available_cpus(), count)
    if workers < 2 or not hasattr(os, "fork"):
        return [_run_suite(offset, seed) for offset in range(count)]
    outcomes = [None] * count
    queued = iter(range(count))
    running = {}  # read end of a child's pipe -> (pid, suite offset, bytes read)
    try:
        while True:
            for offset in itertools.islice(queued, workers - len(running)):
                pid, fd = _fork_suite(offset, seed)
                running[fd] = (pid, offset, [])
            if not running:
                return outcomes
            ready, _, _ = select.select(list(running), [], [])
            for fd in ready:
                pid, offset, chunks = running[fd]
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    chunks.append(chunk)
                    continue
                _, status = os.waitpid(pid, 0)
                del running[fd]
                os.close(fd)
                if status:
                    raise RuntimeError(
                        "property suite %r: worker exited with status %d"
                        % (PROPERTY_SUITES[offset][0], os.waitstatus_to_exitcode(status))
                    )
                outcome = pickle.loads(b"".join(chunks))
                if isinstance(outcome, BaseException):
                    raise outcome
                outcomes[offset] = outcome
    finally:
        for fd, (pid, _, _) in running.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@_criterion(6, "randomized property suites")
def run_criterion_6(budget, seed):
    started = time.perf_counter()
    checks = [
        (
            fails == 0,
            "%s: %d cases, %d failures (%.1f s)" % (name, PROPERTY_CASES, fails, seconds),
        )
        for (name, _), (fails, seconds) in zip(PROPERTY_SUITES, _suite_outcomes(seed))
    ]
    elapsed = time.perf_counter() - started
    checks.append((elapsed < 30.0, "all suites finished in %.1f s (limit 30 s)" % elapsed))
    return checks


CRITERIA = (
    run_criterion_1,
    run_criterion_2,
    run_criterion_3,
    run_criterion_4,
    run_criterion_5,
    run_criterion_6,
)


def run_criterion(number, budget=DEFAULT_BUDGET, seed=DEFAULT_SEED):
    if not 1 <= number <= len(CRITERIA):
        raise ValueError("criterion number must be in 1..%d" % len(CRITERIA))
    return CRITERIA[number - 1](budget=budget, seed=seed)


def run_all(budget=DEFAULT_BUDGET, seed=DEFAULT_SEED):
    return [fn(budget=budget, seed=seed) for fn in CRITERIA]
