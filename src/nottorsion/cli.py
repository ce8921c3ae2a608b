"""Command-line frontend.

Subcommands:
    reduce      reduce a character to canonical form, with a witness
    classify    partition the reduced forms of a type into classes
    bound       closed-form reduced-form count of a type
    tables      CSV sweep of bounds and class counts over a type grid
    power-conj  closed-form conjugacy answer for scalar powers + oracle
    verify      run the acceptance checkers

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
refusal.  A budget refusal is always a distinct failure, never a partial
answer presented as complete.
"""

import argparse
import json
import sys

from .acceptance import DEFAULT_SEED, run_all, run_criterion
from .characters import (
    break_sequence,
    enumerate_characters,
    format_character_literal,
    parse_character_literal,
    require_valid_type,
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nottorsion",
        description="Exact arithmetic for order-p^2 torsion characters "
        "of the Nottingham group.",
    )
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="largest brute-force search allowed (default 2^26)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED,
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
    p_power.add_argument("--no-oracle", action="store_true",
                         help="skip the brute-force confirmation")
    p_power.set_defaults(func=cmd_power_conj)

    p_verify = sub.add_parser("verify", parents=[budget, seed, plain],
                              help="run the acceptance checkers")
    p_verify.add_argument("--only", type=int,
                          help="run a single criterion (1..6)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_reduce(args):
    chi = parse_character_literal(args.char, args.p)
    l, m = break_sequence(chi)
    form, w = reduce_character(chi)
    psi = form.to_character()
    check = verify_witness(chi, psi, w)
    if not check.ok:
        print("verification failure: %s" % check.reason, file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps({
            "p": args.p,
            "input": format_character_literal(chi),
            "type": [l, m],
            "reduced": format_character_literal(psi),
            "witness": w.to_text(),
            "kernel_value": w.kernel_value,
            "verified": True,
        }))
    else:
        print("input    %s" % format_character_literal(chi))
        print("type     <%d,%d>" % (l, m))
        print("reduced  %s" % format_character_literal(psi))
        print("witness  %s" % w.to_text())
        print("verified ok (kernel value %d)" % w.kernel_value)
    return 0


def cmd_classify(args):
    rep = partition_reduced_forms(args.p, args.l, args.m, budget=args.budget)
    if args.format == "json":
        print(json.dumps(rep.to_json_dict()))
    else:
        print(
            "type <%d,%d> over F_%d: %d reduced forms, %d class(es), "
            "search space %d, %d ms"
            % (args.l, args.m, args.p, rep.bound, rep.class_count,
               rep.search_space_size, rep.runtime_ms)
        )
        for idx, cls in enumerate(rep.classes):
            members = " | ".join(
                format_character_literal(rep.forms[i].to_character()) for i in cls
            )
            print("class %d: %s" % (idx, members))
        for i, j, elt in rep.witnesses:
            print("witness %d -> %d: %s" % (i, j, format_nottingham_product(elt)))
    return 0


def cmd_bound(args):
    require_valid_type(args.p, args.l, args.m)
    b = reduced_form_bound(args.p, args.l, args.m)
    k, eps = bound_exponents(args.p, args.l, args.m)
    if args.format == "json":
        print(json.dumps({"p": args.p, "l": args.l, "m": args.m,
                          "bound": b, "k": k, "eps": eps}))
    else:
        print("B(p=%d, l=%d, m=%d) = %d   (k=%d, eps=%d)"
              % (args.p, args.l, args.m, b, k, eps))
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
                rep = partition_reduced_forms(p, l, m, budget=budget)
            except BudgetExceeded:
                continue
            row["d"] = rep.class_count
            row["runtime_ms"] = rep.runtime_ms
    return rows


def cmd_tables(args):
    rows = _tables_rows(args.p, args.l, args.m, args.budget)
    if args.format == "json":
        print(json.dumps(rows))
    else:
        print(TABLES_HEADER)
        for r in rows:
            print("%(p)s,%(l)s,%(m)s,%(valid)s,%(B)s,%(d)s,%(runtime_ms)s" % r)
    return 0


def cmd_power_conj(args):
    if args.char is None:
        if args.l is None or args.m is None:
            raise ValueError("power-conj needs --l and --m, or --char")
        require_valid_type(args.p, args.l, args.m)
        l, m = args.l, args.m
        chi = None
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
    status = 0
    skip = "--no-oracle" if args.no_oracle else None
    if skip is None:
        if chi is None:
            chi = next(iter(enumerate_characters(args.p, l, m)))
        try:
            found, w = power_conjugacy_oracle(chi, args.n, budget=args.budget)
        except BudgetExceeded as exc:
            skip = "search cost %s exceeds budget %d" % (exc.cost_text, args.budget)
    if skip is not None:
        lines.append("oracle     skipped (%s)" % skip)
        report["oracle"] = None
    else:
        report["character"] = format_character_literal(chi)
        report["oracle"] = found
        report["witness"] = w.to_text() if w else None
        lines.append("character  %s" % format_character_literal(chi))
        lines.append("oracle     %s%s" % (
            "conjugate" if found else "not conjugate",
            ", witness %s" % w.to_text() if w else "",
        ))
        if found == predicted:
            lines.append("agreement  ok")
        else:
            lines.append("agreement  MISMATCH")
            status = 1
    report["agreement"] = (
        None if report.get("oracle") is None else report["oracle"] == predicted
    )
    if args.format == "json":
        print(json.dumps(report))
    else:
        print("\n".join(lines))
    return status


def cmd_verify(args):
    if args.only is not None:
        results = [run_criterion(args.only, budget=args.budget, seed=args.seed)]
    else:
        results = run_all(budget=args.budget, seed=args.seed)
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in results]))
    else:
        for r in results:
            print(r.summary_line())
            for line in r.detail_lines():
                print(line)
    failed = [r for r in results if not r.passed]
    if failed:
        print("%d of %d criteria failed" % (len(failed), len(results)),
              file=sys.stderr)
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
