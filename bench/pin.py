"""Regenerate answers.json, the expected answers the benchmark checks against.

    python3 bench/pin.py

Run it from the repository root.  It computes with the library as it
stands:
- the reduced forms of every classify-grid and pair-queries type, as
  character literals in enumeration order;
- their strict classes, from partition_reduced_forms;
- the weak classes of the pair-queries types, from weak_equiv_search on
  every ordered pair of reduced forms;
- the verdicts of `nottorsion verify --format json`.

Pin again only when a change is meant to change an answer, and say so.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nottorsion import cli  # noqa: E402
from nottorsion.characters import enumerate_reduced_forms, format_character_literal  # noqa: E402
from nottorsion.equivalence import partition_reduced_forms, weak_equiv_search  # noqa: E402

import workloads  # noqa: E402


def weak_classes(chars):
    """Weak classes from every ordered pair; refuses a relation that is not
    an equivalence."""
    n = len(chars)
    related = [[weak_equiv_search(a, b) is not None for b in chars] for a in chars]
    classes = []
    for i in range(n):
        if any(i in c for c in classes):
            continue
        members = [j for j in range(n) if related[i][j] or i == j]
        for j in members:
            row = [k for k in range(n) if related[j][k] or j == k]
            if row != members:
                raise SystemExit("weak relation is not an equivalence at form %d" % j)
        classes.append(members)
    return classes


def main():
    forms, strict, weak = {}, {}, {}
    for p, l, m in sorted(set(workloads.CLASSIFY_GRID + workloads.PAIR_TYPES)):
        key = workloads.type_key(p, l, m)
        chars = [f.to_character() for f in enumerate_reduced_forms(p, l, m)]
        forms[key] = [format_character_literal(c) for c in chars]
        strict[key] = [list(c) for c in partition_reduced_forms(p, l, m).classes]
        if (p, l, m) in workloads.PAIR_TYPES:
            weak[key] = weak_classes(chars)
        print("pinned", key, file=sys.stderr)
    code, stdout = workloads.run_op(
        SimpleNamespace(cli=cli), "verify", (list(workloads.VERIFY_ARGV),)
    )
    criteria = workloads.verify_verdicts(stdout)
    answers = {
        "forms": forms,
        "strict_classes": strict,
        "weak_classes": weak,
        "verify": {"exit_code": code, "criteria": criteria},
    }
    with open(HERE / "answers.json", "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
