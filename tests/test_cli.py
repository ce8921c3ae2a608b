"""End-to-end tests for the command-line frontend.

Each test drives main(argv) directly and inspects stdout/stderr plus the
exit code.  Frozen outputs come from the library's own tested behavior.
"""

import argparse
import json

import pytest

from nottorsion.characters import char_act, parse_character_literal
from nottorsion.cli import TABLES_HEADER, build_parser, main
from nottorsion.reduction import verify_witness
from nottorsion.series import parse_nottingham


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# reduce


def test_reduce_text(capsys):
    code, out, err = run(capsys, "reduce", "--p", "3", "--char", "1:1,2:3,4:3")
    assert code == 0
    assert "type     <1,4>" in out
    assert "reduced  1:1,4:3" in out
    assert "witness  t*(1+t^2)*(1+t^4)^2" in out
    assert "verified ok" in out


def test_reduce_json_roundtrip(capsys):
    code, out, err = run(capsys, "reduce", "--p", "3", "--char",
                         "1:1,2:3,4:3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["type"] == [1, 4]
    chi = parse_character_literal(payload["input"], payload["p"])
    psi = parse_character_literal(payload["reduced"], payload["p"])
    u = parse_nottingham(payload["witness"], payload["p"])
    assert char_act(u, chi) == psi
    assert verify_witness(chi, psi, u).ok


def test_reduce_rejects_bad_literal(capsys):
    code, out, err = run(capsys, "reduce", "--p", "2", "--char", "4:1")
    assert code == 2
    assert "coprime" in err


def test_reduce_already_reduced_identity_witness(capsys):
    code, out, err = run(capsys, "reduce", "--p", "3", "--char", "2:1,5:3")
    assert code == 0
    assert "reduced  2:1,5:3" in out
    assert "witness  t" in out


# ---------------------------------------------------------------------------
# classify


def test_classify_text(capsys):
    code, out, err = run(capsys, "classify", "--p", "2", "--l", "3", "--m", "6")
    assert code == 0
    assert "4 reduced forms, 2 class(es)" in out
    assert "class 0: 3:1 | 3:1,5:2" in out
    assert "class 1: 3:3 | 3:3,5:2" in out
    assert out.count("witness") == 2


def test_classify_json(capsys):
    code, out, err = run(capsys, "classify", "--p", "2", "--l", "3", "--m", "6",
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 2
    assert payload["bound"] == 4
    assert set(payload) == {"p", "l", "m", "bound", "class_count",
                            "search_space_size", "runtime_ms", "classes"}


def test_classify_budget_refusal(capsys):
    code, out, err = run(capsys, "classify", "--p", "2", "--l", "5", "--m", "15",
                         "--budget", "100")
    assert code == 3
    assert "budget refused" in err
    assert "32768" in err
    assert out == ""


def test_classify_budget_refusal_at_huge_cost(capsys):
    # 31^3001 has more decimal digits than Python will convert to text;
    # the refusal states the cost symbolically
    code, out, err = run(capsys, "classify", "--p", "31", "--l", "1", "--m", "3001")
    assert code == 3
    assert "budget refused" in err
    assert "31^3001 candidates" in err
    assert out == ""


def test_classify_invalid_type(capsys):
    code, out, err = run(capsys, "classify", "--p", "2", "--l", "2", "--m", "4")
    assert code == 2


# ---------------------------------------------------------------------------
# bound


def test_bound_text(capsys):
    code, out, err = run(capsys, "bound", "--p", "2", "--l", "5", "--m", "15")
    assert code == 0
    assert "B(p=2, l=5, m=15) = 4" in out
    assert "k=2, eps=2" in out


def test_bound_json(capsys):
    code, out, err = run(capsys, "bound", "--p", "3", "--l", "2", "--m", "6",
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"p": 3, "l": 2, "m": 6, "bound": 18, "k": 2, "eps": 1}


def test_bound_invalid_type(capsys):
    code, out, err = run(capsys, "bound", "--p", "3", "--l", "2", "--m", "5")
    assert code == 2
    assert "break type" in err


# ---------------------------------------------------------------------------
# tables


def test_tables_shape_and_rows(capsys):
    code, out, err = run(capsys, "tables", "--p", "2", "--l", "3", "--m", "7",
                         "--budget", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == TABLES_HEADER
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[(int(cells[1]), int(cells[2]))] = cells
    # grid is every (l, m) with 1 <= l <= 3, 2 <= m <= 7
    assert set(rows) == {(l, m) for l in (1, 2, 3) for m in range(2, 8)}
    # l = 2 collides with p = 2, so the whole row band is invalid
    assert rows[(2, 4)] == ["2", "2", "4", "no", "", "", "0"]
    # within budget: 2^6 = 64 <= 100
    assert rows[(3, 6)][:6] == ["2", "3", "6", "yes", "4", "2"]
    # over budget: 2^7 = 128 > 100, bound still printed, count refused
    assert rows[(3, 7)] == ["2", "3", "7", "yes", "2", "", "0"]


def test_tables_json_matches_csv(capsys):
    code, csv_out, err = run(capsys, "tables", "--p", "3", "--l", "1", "--m", "5")
    assert code == 0
    code, json_out, err = run(capsys, "tables", "--p", "3", "--l", "1", "--m", "5",
                              "--format", "json")
    assert code == 0
    rows = json.loads(json_out)
    assert len(rows) == len(csv_out.strip().splitlines()) - 1
    by_type = {(r["l"], r["m"]): r for r in rows}
    assert by_type[(1, 3)]["d"] == 6
    assert by_type[(1, 4)]["d"] == 4
    assert by_type[(1, 5)]["d"] == 12
    assert by_type[(1, 2)]["valid"] == "no"


def test_tables_refuses_past_p_to_the_m(capsys):
    # one cost model, p^m, for every row: <1,4> has 36 characters but
    # costs 3^4 = 81 > 50
    code, out, err = run(capsys, "tables", "--p", "3", "--l", "1", "--m", "4",
                         "--budget", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2].split(",")[:6] == ["3", "1", "3", "yes", "6", "6"]
    assert lines[3] == "3,1,4,yes,4,,0"


def test_tables_rows_below_p_meet_the_bound(capsys):
    # below p the partition's class count attains the bound
    code, out, err = run(capsys, "tables", "--p", "3", "--l", "2", "--m", "8",
                         "--format", "json")
    assert code == 0
    computed = [r for r in json.loads(out) if r["valid"] == "yes"]
    assert len(computed) == 8
    for r in computed:
        assert r["d"] == r["B"], r


# ---------------------------------------------------------------------------
# power-conj


def test_power_conj_negative_case(capsys):
    code, out, err = run(capsys, "power-conj", "--p", "2", "--l", "3", "--m", "6",
                         "--n", "3")
    assert code == 0
    assert "predicate  not conjugate" in out
    assert "oracle     not conjugate" in out
    assert "agreement  ok" in out


def test_power_conj_positive_case_with_char(capsys):
    code, out, err = run(capsys, "power-conj", "--p", "3", "--n", "4",
                         "--char", "1:1,4:3")
    assert code == 0
    assert "type <1,4> over F_3" in out
    assert "predicate  conjugate" in out
    assert "witness t*(1+t^3)" in out
    assert "agreement  ok" in out


def test_power_conj_json(capsys):
    code, out, err = run(capsys, "power-conj", "--p", "2", "--l", "3", "--m", "7",
                         "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["predicate"] is True
    assert payload["oracle"] is True
    assert payload["agreement"] is True
    chi = parse_character_literal(payload["character"], 2)
    u = parse_nottingham(payload["witness"], 2, precision=chi.bound)
    from nottorsion.characters import scalar_mul

    assert char_act(u, chi) == scalar_mul(3, chi)


def test_power_conj_oracle_skipped_over_budget(capsys):
    code, out, err = run(capsys, "power-conj", "--p", "2", "--l", "5", "--m", "15",
                         "--n", "3", "--budget", "1000")
    assert code == 0
    assert "oracle     skipped" in out
    assert "exceeds budget" in out


def test_power_conj_oracle_skipped_at_huge_cost(capsys):
    code, out, err = run(capsys, "power-conj", "--p", "31", "--l", "1", "--m", "3001",
                         "--n", "2")
    assert code == 0
    assert "predicate  not conjugate" in out
    assert "oracle     skipped (search cost 31^3001 exceeds budget 67108864)" in out
    assert err == ""


@pytest.mark.parametrize("budget", ["10", "1000"])
def test_power_conj_n_divisible_by_p_is_an_error_at_any_budget(capsys, budget):
    # the oracle rejects n before it checks the cost, 3^4 = 81
    code, out, err = run(capsys, "power-conj", "--p", "3", "--l", "1", "--m", "4",
                         "--n", "3", "--budget", budget)
    assert code == 2
    assert "n must be coprime to p" in err
    assert out == ""


def test_power_conj_no_oracle_flag(capsys):
    code, out, err = run(capsys, "power-conj", "--p", "3", "--l", "1", "--m", "4",
                         "--n", "4", "--no-oracle")
    assert code == 0
    assert "oracle     skipped (--no-oracle)" in out


def test_power_conj_needs_type_or_char(capsys):
    code, out, err = run(capsys, "power-conj", "--p", "3", "--n", "4")
    assert code == 2
    assert "--char" in err


def test_power_conj_char_type_contradiction(capsys):
    code, out, err = run(capsys, "power-conj", "--p", "3", "--n", "4",
                         "--char", "1:1,4:3", "--l", "2", "--m", "6")
    assert code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_single_passing_criterion(capsys):
    code, out, err = run(capsys, "verify", "--only", "1")
    assert code == 0
    assert "criterion 1 PASS" in out
    assert err == ""


def test_verify_criterion_3_fails_honestly(capsys):
    code, out, err = run(capsys, "verify", "--only", "3")
    assert code == 1
    assert "criterion 3 FAIL" in out
    assert "strict 12, p*weak 36" in out
    assert "1 of 1 criteria failed" in err


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "--only", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["criterion"] == 1
    assert payload[0]["passed"] is True


def test_verify_rejects_bad_criterion(capsys):
    code, out, err = run(capsys, "verify", "--only", "9")
    assert code == 2


def test_verify_criterion_3_honors_budget(capsys):
    # criterion 3 counts strict classes with the exhaustive partition,
    # and 3^5 = 243 candidates at depth-1 type (3,1,5) exceed 100
    code, out, err = run(capsys, "verify", "--only", "3", "--budget", "100")
    assert code == 3
    assert "budget refused" in err


# ---------------------------------------------------------------------------
# argument plumbing


def test_unknown_subcommand_usage_error(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "reduce" in out and "classify" in out and "verify" in out


def test_missing_required_flag(capsys):
    code, out, err = run(capsys, "bound", "--p", "2", "--l", "5")
    assert code == 2


VALID_ARGV = {
    "reduce": ("reduce", "--p", "3", "--char", "1:1,2:3,4:3"),
    "classify": ("classify", "--p", "2", "--l", "3", "--m", "6"),
    "bound": ("bound", "--p", "2", "--l", "5", "--m", "15"),
    "tables": ("tables", "--p", "3", "--l", "1", "--m", "5"),
    "power-conj": ("power-conj", "--p", "3", "--l", "1", "--m", "4", "--n", "4"),
    "verify": ("verify", "--only", "1"),
}


@pytest.mark.parametrize(
    "subcommand, extra, message",
    [
        ("reduce", ("--budget", "1"), "unrecognized arguments"),
        ("reduce", ("--seed", "5"), "unrecognized arguments"),
        ("classify", ("--seed", "5"), "unrecognized arguments"),
        ("bound", ("--budget", "1"), "unrecognized arguments"),
        ("bound", ("--seed", "5"), "unrecognized arguments"),
        ("tables", ("--seed", "5"), "unrecognized arguments"),
        ("power-conj", ("--seed", "5"), "unrecognized arguments"),
        ("reduce", ("--format", "csv"), "invalid choice"),
        ("bound", ("--format", "csv"), "invalid choice"),
        ("power-conj", ("--format", "csv"), "invalid choice"),
        ("verify", ("--format", "csv"), "invalid choice"),
        ("tables", ("--format", "csv"), "invalid choice"),
        ("classify", ("--format", "csv"), "invalid choice"),
    ],
)
def test_subcommand_rejects_options_it_does_not_read(capsys, subcommand, extra, message):
    # every subcommand accepts only the options it reads; the rest are
    # usage errors rather than silently ignored
    code, out, err = run(capsys, *VALID_ARGV[subcommand], *extra)
    assert code == 2
    assert message in err
    assert out == ""


def _format_choices():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, subparser in sub.choices.items():
        for action in subparser._actions:
            if "--format" in action.option_strings:
                yield pytest.param(name, action.choices, id=name)


@pytest.mark.parametrize("subcommand, choices", _format_choices())
def test_format_choices_print_distinct_output(capsys, subcommand, choices):
    # a --format value whose output starts like another's is a second
    # name for it, not a format
    firsts = []
    for choice in choices:
        code, out, err = run(capsys, *VALID_ARGV[subcommand], "--format", choice)
        assert code == 0, err
        firsts.append(out.splitlines()[0])
    assert len(set(firsts)) == len(firsts), dict(zip(choices, firsts))
