"""Command-line frontend.

Subcommands:
    reduce      reduce a character to canonical form, with a witness
    classify    partition the reduced forms of a type into classes
    bound       closed-form reduced-form count of a type
    tables      CSV sweep of bounds and class counts over a type grid
    power-conj  closed-form conjugacy answer for scalar powers + oracle
    verify      run the acceptance checkers

Exit codes: 0 success, 1 verification failure (also a fault the library
detects in its own results), 2 usage error, 3 budget refusal.  A budget
refusal is always a distinct failure, never a partial answer presented
as complete.

The library returns plain records with no runtimes.  This module alone
reads the clock, around its calls into the library (`_timed`), and
builds every text and JSON document it prints.
"""

import argparse
import json
import sys
import time

from . import acceptance
from .characters import (
    break_sequence,
    enumerate_characters,
    format_character_literal,
    parse_character_literal,
    validate_type,
)
from .equivalence import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    bound_exponents,
    partition_reduced_forms,
    power_conjugacy_criterion,
    power_conjugacy_oracle,
    reduced_form_bound,
)
from .reduction import reduce as reduce_character
from .reduction import verify_witness
from .series import ParseError, format_nottingham_product

__all__ = ["main", "console_main", "build_parser"]


def _budget_value(text):
    """A --budget value: an int >= 0; a budget of 0 refuses every search."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nottorsion",
        description="Exact arithmetic for order-p^2 torsion characters "
        "of the Nottingham group.",
    )
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_budget_value, default=DEFAULT_BUDGET,
                        help="largest brute-force search allowed (default 2^26)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                      help="seed for randomized suites (default fixed)")
    plain = argparse.ArgumentParser(add_help=False)
    plain.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_reduce = sub.add_parser("reduce", parents=[plain],
                              help="reduce a character, printing a verified witness")
    p_reduce.add_argument("--p", type=int, required=True, help="the prime")
    p_reduce.add_argument("--char", required=True,
                          help='character literal, e.g. "1:1,2:3,4:3"')
    p_reduce.set_defaults(func=cmd_reduce)

    p_classify = sub.add_parser("classify", parents=[budget, plain],
                                help="partition the reduced forms of a type")
    p_classify.add_argument("--p", type=int, required=True)
    p_classify.add_argument("--l", type=int, required=True)
    p_classify.add_argument("--m", type=int, required=True)
    p_classify.set_defaults(func=cmd_classify)

    p_bound = sub.add_parser("bound", parents=[plain],
                             help="closed-form reduced-form count")
    p_bound.add_argument("--p", type=int, required=True)
    p_bound.add_argument("--l", type=int, required=True)
    p_bound.add_argument("--m", type=int, required=True)
    p_bound.set_defaults(func=cmd_bound)

    p_tables = sub.add_parser("tables", parents=[budget, plain],
                              help="CSV sweep over the grid l <= L, m <= M")
    p_tables.add_argument("--p", type=int, required=True)
    p_tables.add_argument("--l", type=int, required=True, help="largest l")
    p_tables.add_argument("--m", type=int, required=True, help="largest m")
    p_tables.set_defaults(func=cmd_tables)

    p_power = sub.add_parser("power-conj", parents=[budget, plain],
                             help="is a torsion element conjugate to its n-th power")
    p_power.add_argument("--p", type=int, required=True)
    p_power.add_argument("--n", type=int, required=True)
    p_power.add_argument("--l", type=int)
    p_power.add_argument("--m", type=int)
    p_power.add_argument("--char", help="check this character instead of the "
                         "first one of the type")
    p_power.set_defaults(func=cmd_power_conj)

    p_verify = sub.add_parser("verify", parents=[budget, seed, plain],
                              help="run the acceptance checkers")
    p_verify.add_argument("--only", type=int,
                          help="run a single criterion (1..6)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


# ---------------------------------------------------------------------------
# Subcommands.


def _timed(fn, *args, **kw):
    """fn(*args, **kw) and its wall time in whole milliseconds: the one
    place the library's work is timed."""
    started = time.perf_counter()
    result = fn(*args, **kw)
    return result, int((time.perf_counter() - started) * 1000)


def _emit(args, document, lines):
    """Print `document` as one JSON line or `lines` as text, as --format asks."""
    print(json.dumps(document) if args.format == "json" else "\n".join(lines))


def cmd_reduce(args):
    chi = parse_character_literal(args.char, args.p)
    l, m = break_sequence(chi)
    form, w = reduce_character(chi)
    psi = form.to_character()
    check = verify_witness(chi, psi, w)
    if not check.ok:
        raise RuntimeError(check.reason)
    doc = {
        "p": args.p,
        "input": format_character_literal(chi),
        "type": [l, m],
        "reduced": format_character_literal(psi),
        "witness": w.to_text(),
        "kernel_value": w.kernel_value,
        "verified": True,
    }
    _emit(args, doc, [
        "input    %(input)s" % doc,
        "type     <%d,%d>" % (l, m),
        "reduced  %(reduced)s" % doc,
        "witness  %(witness)s" % doc,
        "verified ok (kernel value %(kernel_value)d)" % doc,
    ])
    return 0


def cmd_classify(args):
    rep, ms = _timed(partition_reduced_forms, args.p, args.l, args.m, budget=args.budget)
    chars = [format_character_literal(f.to_character()) for f in rep.forms]
    witnesses = [(i, j, format_nottingham_product(e)) for i, j, e in rep.witnesses]
    # each class's witnesses, by source, in union order
    class_of = {i: k for k, cls in enumerate(rep.classes) for i in cls}
    grouped = [[] for _ in rep.classes]
    for i, j, text in witnesses:
        grouped[class_of[i]].append({"source": i, "target": j, "element": text})
    doc = {
        "p": args.p, "l": args.l, "m": args.m, "bound": rep.bound,
        "class_count": rep.class_count, "search_space_size": rep.search_space_size,
        "runtime_ms": ms,
        "classes": [{
            "representative": chars[cls[0]],
            "members": [{"x_l": rep.forms[i].x_l,
                         "b": {str(j): v for j, v in sorted(rep.forms[i].b.items())},
                         "character": chars[i]} for i in cls],
            "witnesses": grouped[k],
        } for k, cls in enumerate(rep.classes)],
    }
    lines = [
        "type <%(l)d,%(m)d> over F_%(p)d: %(bound)d reduced forms, "
        "%(class_count)d class(es), search space %(search_space_size)d, "
        "%(runtime_ms)d ms" % doc
    ]
    lines += ["class %d: %s" % (k, " | ".join(chars[i] for i in cls))
              for k, cls in enumerate(rep.classes)]
    lines += ["witness %d -> %d: %s" % w for w in witnesses]
    _emit(args, doc, lines)
    return 0


def cmd_bound(args):
    b = reduced_form_bound(args.p, args.l, args.m)
    k, eps = bound_exponents(args.p, args.l, args.m)
    _emit(args, {"p": args.p, "l": args.l, "m": args.m, "bound": b, "k": k, "eps": eps},
          ["B(p=%d, l=%d, m=%d) = %d   (k=%d, eps=%d)" % (args.p, args.l, args.m, b, k, eps)])
    return 0


TABLES_HEADER = "p,l,m,valid,B,d,runtime_ms"


def _tables_rows(p, max_l, max_m, budget):
    rows = []
    for l in range(1, max_l + 1):
        for m in range(2, max_m + 1):
            if not validate_type(p, l, m):
                rows.append({"p": p, "l": l, "m": m, "valid": "no",
                             "B": "", "d": "", "runtime_ms": 0})
                continue
            row = {"p": p, "l": l, "m": m, "valid": "yes",
                   "B": reduced_form_bound(p, l, m), "d": "", "runtime_ms": 0}
            rows.append(row)
            try:
                rep, ms = _timed(partition_reduced_forms, p, l, m, budget=budget)
            except BudgetExceeded:
                continue
            row["d"], row["runtime_ms"] = rep.class_count, ms
    return rows


def cmd_tables(args):
    rows = _tables_rows(args.p, args.l, args.m, args.budget)
    _emit(args, rows, [TABLES_HEADER] + [
        "%(p)s,%(l)s,%(m)s,%(valid)s,%(B)s,%(d)s,%(runtime_ms)s" % r for r in rows
    ])
    return 0


def cmd_power_conj(args):
    if args.char is None:
        if args.l is None or args.m is None:
            raise ValueError("power-conj needs --l and --m, or --char")
        l, m = args.l, args.m
        chi = next(enumerate_characters(args.p, l, m))
    else:
        chi = parse_character_literal(args.char, args.p)
        l, m = break_sequence(chi)
        if (args.l is not None and args.l != l) or (args.m is not None and args.m != m):
            raise ValueError(
                "--char has type <%d,%d>, which contradicts --l/--m" % (l, m)
            )
    predicted = power_conjugacy_criterion(args.p, l, m, args.n)
    report = {
        "p": args.p, "l": l, "m": m, "n": args.n,
        "predicate": predicted,
    }
    lines = ["type <%d,%d> over F_%d, n = %d" % (l, m, args.p, args.n),
             "predicate  %s" % ("conjugate" if predicted else "not conjugate")]
    try:
        found, w = power_conjugacy_oracle(chi, args.n, budget=args.budget)
    except BudgetExceeded as exc:
        lines.append("oracle     skipped (search cost %s exceeds budget %d)"
                     % (exc.cost_text, args.budget))
        report["oracle"] = report["agreement"] = None
    else:
        report["character"] = format_character_literal(chi)
        report["oracle"] = found
        report["witness"] = w.to_text() if w else None
        report["agreement"] = found == predicted
        lines.append("character  %s" % format_character_literal(chi))
        lines.append("oracle     %s%s" % (
            "conjugate" if found else "not conjugate",
            ", witness %s" % w.to_text() if w else "",
        ))
        lines.append("agreement  %s" % ("ok" if found == predicted else "MISMATCH"))
    _emit(args, report, lines)
    return 1 if report["agreement"] is False else 0


def cmd_verify(args):
    if args.only is not None:
        numbers = [args.only]
    else:
        numbers = range(1, len(acceptance.CRITERIA) + 1)
    docs, lines = [], []
    for k in numbers:
        r, ms = _timed(acceptance.run_criterion, k, budget=args.budget, seed=args.seed)
        doc = {"criterion": r.number, "title": r.title, "passed": r.passed,
               "runtime_ms": ms,
               "checks": [{"ok": ok, "text": text} for ok, text in r.checks]}
        docs.append(doc)
        lines.append("criterion %d %s  %s  (%d ms)" % (
            doc["criterion"], "PASS" if doc["passed"] else "FAIL",
            doc["title"], doc["runtime_ms"]))
        lines += ["  [%s] %s" % ("ok" if c["ok"] else "FAIL", c["text"])
                  for c in doc["checks"]]
    _emit(args, docs, lines)
    failed = sum(not doc["passed"] for doc in docs)
    if failed:
        print("%d of %d criteria failed" % (failed, len(docs)), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Entry points.


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print("budget refused: %s" % exc, file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
