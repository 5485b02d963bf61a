import argparse
import csv
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reciprodick
from reciprodick.cli import _build_parser, _csv_line, _resolve_ring, _selected_members, main
from reciprodick.errors import CapacityError, DomainError
from reciprodick.families import FAMILIES, FAMILY_TABLE, FamilySpec

K_WINDOW = tuple(range(-5, 7))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGen:
    def test_single_poly_is_bare_canonical_json(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "f", "--n", "4", "--k", "0", "--ring", "z")
        assert rc == 0
        assert json.loads(out) == {"ring": "Z", "coeffs": ["2", "12", "2"]}

    def test_round_trip_through_poly(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "f", "--n", "5", "--k", "3")
        assert rc == 0
        assert json.loads(out) == {"ring": "Z", "coeffs": ["14", "20", "-2"]}

    def test_fp_generation(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "f", "--n", "6", "--k", "2", "--ring", "fp", "--p", "3")
        assert rc == 0
        assert json.loads(out) == {"ring": "Fp", "p": 3, "coeffs": ["0", "1"]}

    def test_sweep_wraps_records(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "f", "--n-max", "3", "--k", "1")
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in records] == [0, 1, 2, 3]
        assert records[3]["poly"]["coeffs"] == ["4", "4"]

    def test_sweep_respects_family_parity(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "gstar", "--n-max", "9", "--k", "1")
        assert rc == 0
        assert [json.loads(line)["n"] for line in out.splitlines()] == [3, 5, 7, 9]

    def test_deterministic_output(self, capsys):
        args = ("gen", "--family", "h", "--n-max", "12", "--k-min", "-2", "--k-max", "2")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0 and out1 == out2

    def test_dickson_with_a(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "dickson", "--n", "2", "--k", "1", "--a", "3")
        assert rc == 0
        assert json.loads(out)["coeffs"] == ["9", "-1"]

    def test_csv_format(self, capsys):
        rc, out, _ = run(capsys, "gen", "--family", "f", "--n", "4", "--k", "0", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "family,n,k,p,a,degree,coeffs"
        assert lines[1] == "f,4,0,,,2,2 12 2"

    def test_usage_errors_exit_1(self, capsys):
        assert run(capsys, "gen", "--family", "f", "--n", "4", "--n-max", "8")[0] == 1
        assert run(capsys, "gen", "--family", "nope", "--n", "4")[0] == 1
        assert run(capsys, "gen", "--family", "f")[0] == 1  # no --n / --n-max
        assert run(capsys, "gen", "--family", "f", "--n", "4", "--bogus")[0] == 1

    def test_domain_errors_exit_1(self, capsys):
        rc, _, err = run(capsys, "gen", "--family", "g", "--n", "5", "--k", "0")
        assert rc == 1 and "error" in err
        rc, _, err = run(capsys, "gen", "--family", "f", "--n", "4", "--ring", "fp", "--p", "6")
        assert rc == 1
        rc, _, err = run(capsys, "gen", "--family", "f", "--n", "4", "--p", "5")
        assert rc == 1  # --p without --ring fp

    def test_selectors_that_would_be_dropped_are_refused(self, capsys):
        # each used to exit 0 and drop one selector
        cases = ((("--n", "4", "--n-min", "7"), "error: --n and --n-min are mutually exclusive"),
                 (("--n", "4", "--k", "1", "--k-min", "0", "--k-max", "2"),
                  "error: --k and --k-min/--k-max are mutually exclusive"),
                 (("--n", "4", "--k", "1", "--k-max", "2"), "error: --k and --k-min/--k-max are mutually exclusive"),
                 (("--n", "4", "--k", "0", "--a", "5"), "error: family 'f' takes no parameter a"))
        for command in ("gen", "classify"):
            for extra, error in cases:
                assert run(capsys, command, "--family", "f", *extra) == (1, "", error + "\n"), (command, extra)

    def test_ring_contradicting_the_family_exits_1(self, capsys):
        # an explicit --ring z, or a --p other than 2, used to print the F2 member
        for command in ("gen", "classify"):
            for extra in (("--ring", "z", "--p", "3"), ("--ring", "z"), ("--p", "3"), ("--ring", "fp", "--p", "3")):
                rc, out, err = run(capsys, command, "--family", "fchar2", "--n", "8", *extra)
                assert (rc, out, err) == (1, "", "error: family 'fchar2' lives over F2\n"), (command, extra)
            for extra in ((), ("--ring", "fp"), ("--ring", "fp", "--p", "2")):
                assert run(capsys, command, "--family", "fchar2", "--n", "8", *extra)[0] == 0, (command, extra)

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "poly.json"
        rc, out, err = run(capsys, "gen", "--family", "f", "--n", "4", "--out", str(target))
        assert rc == 1 and out == "" and err.startswith("error: ") and str(target) in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "poly.json"
        rc, out, _ = run(capsys, "gen", "--family", "f", "--n", "4", "--k", "0", "--out", str(target))
        assert rc == 0 and out == ""
        assert json.loads(target.read_text()) == {"ring": "Z", "coeffs": ["2", "12", "2"]}


_HUGE_A = "1" + "0" * 440  # a^10 has 4401 digits, past Python's default limit of 4300 on an int made text


@pytest.mark.parametrize("argv", [
    [command, "--family", "dickson", "--n", "10", "--k", "0", "--a", _HUGE_A, "--format", fmt]
    for command in ("gen", "classify") for fmt in ("json", "csv")
] + [["gen", "--family", "dickson", "--n", "5000", "--k", "0", "--a", "10", "--format", "csv"]],
    ids=["gen json", "gen csv", "classify json", "classify csv", "gen csv n=5000"])
def test_coefficients_past_the_digit_limit_are_written_in_full(capsys, argv):
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # main never moves the limit
    n, a = (int(argv[argv.index(flag) + 1]) for flag in ("--n", "--a"))
    if argv[-1] == "json":
        coeffs = json.loads(out)["coeffs"]
    else:
        coeffs = out.splitlines()[1].rpartition(",")[2].split(" ")
    assert max(map(len, coeffs)) > 4300
    sys.set_int_max_str_digits(0)
    try:
        assert coeffs == [str(c) for c in reciprodick.reversed_dickson(n, 0, a).coeffs]
    finally:
        sys.set_int_max_str_digits(limit)


class TestClassify:
    def test_record(self, capsys):
        rc, out, _ = run(capsys, "classify", "--family", "f", "--n", "5", "--k", "3")
        assert rc == 0
        record = json.loads(out)
        assert record == {
            "family": "f",
            "n": 5,
            "k": 3,
            "degree": 2,
            "self_reciprocal": False,
            "coeffs": ["14", "20", "-2"],
        }

    def test_fp_record(self, capsys):
        rc, out, _ = run(capsys, "classify", "--family", "f", "--n", "9", "--k", "0", "--ring", "fp", "--p", "3")
        record = json.loads(out)
        assert rc == 0 and record["p"] == 3 and record["self_reciprocal"] is True


class TestVerify:
    def test_clean_scan_exits_0(self, capsys):
        rc, out, _ = run(capsys, "verify", "--theorem", "t2.1", "--n-max", "40")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"theorem": "T2_1", "scanned": 240, "mismatches": 0}

    def test_anomalous_range_exits_2(self, capsys):
        rc, out, _ = run(capsys, "verify", "--theorem", "t2.3", "--n-min", "4", "--n-max", "4")
        assert rc == 2
        lines = [json.loads(line) for line in out.splitlines()]
        summary = lines[-1]
        assert summary == {"theorem": "T2_3", "scanned": 24, "mismatches": 21}
        found = {(r["family"], r["k"]) for r in lines[:-1]}
        expected = {("g", k) for k in K_WINDOW if k not in (0, 2)}
        expected |= {("h", k) for k in K_WINDOW if k != 0}
        assert found == expected
        assert all(not r["match"] for r in lines[:-1])

    def test_all_verdicts_flag(self, capsys):
        rc, out, _ = run(capsys, "verify", "--theorem", "t4.1", "--n-max", "10", "--all-verdicts")
        assert rc == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 10  # 9 verdicts + summary
        assert lines[0] == {
            "theorem": "T4_1", "family": "fchar2", "n": 2, "k": 1, "p": 2,
            "predicted": True, "observed": True, "match": True,
        }

    def test_p_list(self, capsys):
        rc, out, _ = run(capsys, "verify", "--theorem", "t3.4", "--n-max", "30", "--p-list", "3,5")
        assert rc == 0
        assert json.loads(out.splitlines()[-1])["mismatches"] == 0

    def test_csv_output(self, capsys):
        rc, out, _ = run(capsys, "verify", "--theorem", "t2.3", "--n-min", "4", "--n-max", "4",
                         "--format", "csv")
        assert rc == 2
        lines = out.splitlines()
        assert lines[0] == "theorem,family,n,k,p,predicted,observed,match,note"
        assert len(lines) == 22
        assert lines[1].startswith("T2_3,g,4,-5,,false,true,false,")

    def test_a_k_above_the_smallest_p(self, capsys):
        # k = 3 is not below p = 3: GF(3) gives no verdict, GF(5) to GF(13) give theirs
        rc, out, _ = run(capsys, "verify", "--theorem", "t3.1", "--n-max", "6", "--k-min", "3", "--k-max", "3")
        assert (rc, json.loads(out)) == (0, {"theorem": "T3_1", "scanned": 12, "mismatches": 0})

    def test_bad_p_list_exits_1(self, capsys):
        rc, out, err = run(capsys, "verify", "--theorem", "t3.1", "--n-max", "6", "--p-list", "3,x")
        assert rc == 1 and out == "" and err.startswith("error: ") and "3,x" in err

    def test_a_p_list_naming_no_integer_exits_1(self, capsys):
        # refused, not read as the default primes GF(3) to GF(13)
        rc, out, err = run(capsys, "verify", "--theorem", "t3.1", "--n-max", "4", "--p-list", ",")
        assert (rc, out, err) == (1, "", "error: --p-list takes comma-separated integers, got ','\n")

    def test_a_scan_past_the_cap_exits_1(self, capsys):
        rc, out, err = run(capsys, "verify", "--theorem", "t2.1", "--n-max", "1000000")
        assert (rc, out, err) == (1, "", "error: T2_1 would scan 11999988 candidate members, above the cap 1000000\n")

    def test_unknown_theorem(self, capsys):
        rc, _, err = run(capsys, "verify", "--theorem", "t8.1", "--n-max", "4")
        assert rc == 1 and "t8.1" in err


class TestTable:
    def test_all_rows_deterministic(self, capsys):
        args = ("table", "--theorem", "t2.1", "--n-max", "10", "--format", "csv")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0 and out1 == out2
        lines = out1.splitlines()
        assert lines[0].startswith("theorem,family,n,k,p,")
        assert len(lines) == 1 + 5 * 12

    def test_json_rows(self, capsys):
        rc, out, _ = run(capsys, "table", "--theorem", "t3.1", "--n-max", "6", "--p", "3")
        assert rc == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert {(r["n"], r["k"]) for r in rows} == {(n, k) for n in (2, 4, 6) for k in (0, 1, 2)}


class TestCoterm:
    def test_z_rule(self, capsys):
        rc, out, _ = run(capsys, "coterm", "--theorem", "t5.1", "--n", "4")
        assert rc == 0
        assert json.loads(out) == {
            "theorem": "T5_1", "n": 4, "k": 0, "m": 2, "degenerate": False,
            "coeffs": ["2", "12"],
        }

    def test_degenerate_fp_rule(self, capsys):
        rc, out, _ = run(capsys, "coterm", "--theorem", "t5.9", "--n", "9", "--p", "3")
        assert rc == 0
        assert json.loads(out) == {
            "theorem": "T5_9", "n": 9, "k": 1, "p": 3, "m": 4, "degenerate": True,
            "coeffs": ["1"],
        }

    def test_char2_rule(self, capsys):
        rc, out, _ = run(capsys, "coterm", "--theorem", "char2", "--n", "6")
        assert rc == 0
        record = json.loads(out)
        assert record["p"] == 2 and record["degenerate"] is False

    def test_ring_contradicting_the_rule_exits_1(self, capsys):
        # --ring z used to be ignored: char2 built over F2, t5.7 over GF(3)
        for argv, text in (("coterm --theorem char2 --n 6 --ring z", "CHAR2 is stated over F2"),
                           ("coterm --theorem t5.7 --n 10 --ring z --p 3", "T5_7 is stated over GF(p) with p odd"),
                           ("coterm --theorem t5.1 --n 4 --ring fp", "T5_1 is stated over Z")):
            assert run(capsys, *argv.split()) == (1, "", f"error: {text}\n"), argv
        for argv in ("coterm --theorem char2 --n 6 --ring fp", "coterm --theorem t5.7 --n 10 --ring fp --p 3",
                     "coterm --theorem t5.1 --n 4 --ring z"):
            assert run(capsys, *argv.split())[0] == 0, argv

    def test_hypothesis_violation_exits_1(self, capsys):
        rc, _, err = run(capsys, "coterm", "--theorem", "t5.1", "--n", "4", "--k", "1")
        assert rc == 1 and "k = 0" in err
        rc, _, err = run(capsys, "coterm", "--theorem", "t5.9", "--n", "9")
        assert rc == 1  # missing --p
        rc, _, err = run(capsys, "coterm", "--theorem", "t5.1", "--n", "4", "--p", "3")
        assert rc == 1


class TestCode:
    def test_all_divisors_with_pinned_record(self, capsys):
        rc, out, _ = run(capsys, "code", "--p", "2", "--m", "7")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 8
        pinned = ('{"p":2,"m":7,"generator":["1","1","0","1"],"dimension":4,'
                  '"reversible":false,"enumeration_checked":true}')
        assert pinned in lines

    def test_sr_only(self, capsys):
        rc, out, _ = run(capsys, "code", "--p", "2", "--m", "7", "--sr-only")
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["generator"] for r in records] == [
            ["1"], ["1", "1"], ["1", "1", "1", "1", "1", "1", "1"],
            ["1", "0", "0", "0", "0", "0", "0", "1"],
        ]
        assert all(r["reversible"] for r in records)

    def test_enum_cap_disables_checking(self, capsys):
        rc, out, _ = run(capsys, "code", "--p", "2", "--m", "7", "--enum-cap", "8")
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        flags = {tuple(r["generator"]): r["enumeration_checked"] for r in records}
        assert flags[("1",)] is False  # 2^7 above the cap
        assert flags[("1", "0", "0", "0", "0", "0", "0", "1")] is True

    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "code", "--p", "3", "--m", "2", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "p,m,generator,dimension,reversible,enumeration_checked"
        assert "3,2,2 1,1,true,true" in lines  # x - 1 generates a reversible code

    def test_bad_p(self, capsys):
        assert run(capsys, "code", "--p", "6", "--m", "4")[0] == 1

    def test_records_are_written_as_they_are_made(self, capsys, monkeypatch):
        from reciprodick import cli

        make = cli.CyclicCode._of_divisor
        lines_written = []

        def counting(p, m, g):
            lines_written.append(sys.stdout.getvalue().count("\n"))
            return make(p, m, g)

        monkeypatch.setattr(cli.CyclicCode, "_of_divisor", staticmethod(counting))
        assert run(capsys, "code", "--p", "2", "--m", "7", "--format", "csv")[0] == 0
        assert lines_written == list(range(1, 9))  # the header, then one line per code made before the next

    def test_disagreement_is_noted_and_exits_2(self, capsys, monkeypatch):
        # the rank check is made to flip the verdict of x^3 + x + 1's code only
        from reciprodick import cli

        rank = cli.verify_reversibility_by_rank
        flipped = ("1", "1", "0", "1")
        calls = []

        def flipping(code):
            calls.append(code)
            return rank(code) != (tuple(map(str, code.generator.coeffs)) == flipped)

        monkeypatch.setattr(cli, "verify_reversibility_by_rank", flipping)
        rc, out, _ = run(capsys, "code", "--p", "2", "--m", "7")
        assert rc == 2
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == len(calls) == 8
        noted = [r for r in records if "note" in r]
        assert [r["generator"] for r in noted] == [list(flipped)]
        assert noted[0]["note"] == "the rank check disagrees with the generator criterion"
        assert list(noted[0])[-1] == "note" and noted[0]["reversible"] is False
        # CSV has no note column: the note goes to stderr, one line per disagreeing code, and stdout is unchanged
        rc, out, err = run(capsys, "code", "--p", "2", "--m", "7", "--format", "csv")
        assert rc == 2
        assert err == "note: p=2 m=7 generator 1 1 0 1: the rank check disagrees with the generator criterion\n"
        monkeypatch.setattr(cli, "verify_reversibility_by_rank", rank)
        assert run(capsys, "code", "--p", "2", "--m", "7", "--format", "csv") == (0, out, "")


# text rich in the characters CSV quotes, spaces and non-ASCII; CR is left out, as the stdlib's handling of it
# differs between Python versions, and pinned in test_pinned_lines instead
_CSV_TEXT = st.text(st.sampled_from(',"\n xé€😀1') | st.characters(exclude_characters="\r"), max_size=12)
_DIGITS = st.integers(-(2**80), 2**80).map(str)
_CSV_VALUE = st.one_of(_CSV_TEXT, st.integers(-(2**100), 2**100), st.booleans(), st.none(),
                       st.lists(_DIGITS, max_size=5))


def _csv_writer_line(values) -> str:
    """The reference: the stdlib's csv.writer, fed the CLI's spellings of bools and lists."""
    buf = io.StringIO()
    spell = {True: "true", False: "false"}
    csv.writer(buf, lineterminator="\n").writerow(
        [spell[v] if isinstance(v, bool) else " ".join(v) if isinstance(v, list) else v for v in values])
    return buf.getvalue()


# every kind of cell, each quoting trigger alone in its own cell
_CSV_ROW = ["a,b", 'say "hi"', "two\nlines", "plain", None, True, ["1", "-2"]]


class TestCsv:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.lists(_CSV_VALUE, min_size=2, max_size=9))
    @example(_CSV_ROW)
    def test_line_matches_csv_writer(self, values):
        assert _csv_line(values) == _csv_writer_line(values)

    @pytest.mark.parametrize("values, line", [
        (_CSV_ROW, '"a,b","say ""hi""","two\nlines",plain,,true,1 -2\n'),
        (["a\rb", "c"], '"a\rb",c\n'),  # CR is quoted like LF, as the stdlib writer of Python 3.11 does not
    ])
    def test_pinned_lines(self, values, line):
        assert _csv_line(values) == line

    @pytest.mark.parametrize("argv", [
        ("gen", "--family", "f", "--n-max", "12", "--k-min", "0", "--k-max", "1", "--format", "csv"),
        ("code", "--p", "2", "--m", "7", "--format", "csv"),
    ])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0 and out.count("\n") > 2
        target = tmp_path / "records.csv"
        assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()


class TestHelp:
    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "gen", "--help")[0] == 0

    def test_no_command_exits_1(self, capsys):
        assert run(capsys)[0] == 1


# One process serves many calls: each call's rc, stdout and stderr must match
# a fresh interpreter's.  The table/verify pair stays in that order, so table's
# all_verdicts default would show in verify's output if it leaked.
REUSE_UNITS = (
    ("gen --family f --n 4 --k 0",),
    ("gen --family f --n-max 5 --k-min 0 --k-max 1 --format csv",),
    ("classify --family f --ring fp --p 3 --n-max 6 --k 1",),
    ("classify --family g --n-max 6 --k 0 --format csv",),
    ("table --theorem t2.3 --n-min 4 --n-max 4", "verify --theorem t2.3 --n-min 4 --n-max 4"),
    ("table --theorem t4.1 --n-max 6 --format csv", "verify --theorem t4.1 --n-max 6 --format csv"),
    ("coterm --theorem t5.1 --n 6",),
    ("coterm --theorem t5.9 --n 9 --p 3 --format csv",),
    ("code --p 2 --m 7",),
    ("code --p 3 --m 4 --sr-only --format csv",),
    ("--help",),
    ("gen --help",),
    ("",),
    ("gen --family f --n 4 --n-max 8",),
    ("gen --family nope --n 4",),
    ("code --p 2",),
    ("verify --theorem t2.1 --all-verdicts --bogus",),
    ("gen --family g --n 5 --k 0",),
)


def _fresh_process(argv: list[str]) -> tuple[int, str, str]:
    src_dir = str(Path(reciprodick.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-m", "reciprodick", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    def test_repeated_calls_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argvs = [line.split() for unit in REUSE_UNITS for line in unit]
        expected = {" ".join(argv): _fresh_process(argv) for argv in argvs}
        rng = random.Random(20161)
        for _ in range(2):
            units = list(REUSE_UNITS)
            rng.shuffle(units)
            for line in (line for unit in units for line in unit):
                assert run(capsys, *line.split()) == expected[line], line

    def test_warm_calls_build_no_arguments(self, capsys, monkeypatch):
        run(capsys, "gen", "--family", "f", "--n", "4")
        calls = []
        add_argument = argparse._ActionsContainer.add_argument

        def counted(self, *args, **kwargs):
            calls.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
        for argv in (("gen", "--family", "f", "--n", "4"), ("table", "--theorem", "t2.1", "--n-max", "4"),
                     ("code", "--p", "2", "--m", "3")):
            assert run(capsys, *argv)[0] == 0
        assert calls == []


def test_scan_over_a_huge_prime_is_refused():
    # k used to run over all of [0, p-1], so this ran for years
    rc, out, err = _fresh_process(["verify", "--theorem", "t3.1", "--p", "2305843009213693951"])
    assert rc == 1 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [err.rstrip("\n")]
    assert "above the cap" in err


_K_CAP = "error: k_values lists more entries than the cap 1000000"


def _built(count: int) -> str:
    return f"error: the selection would build {count} members, above the cap 1000000"


_LONG_SWEEPS = [
    ("gen --family f --n 1 --k-min 0 --k-max 100000000", _built(100000001)),
    ("classify --family f --n 1 --k-min 0 --k-max 100000000", _built(100000001)),
    ("gen --family f --n-max 1000000000000 --k 0", _built(1000000000001)),
    ("classify --family g --n-max 1000000000000 --k-min -1000000000000000000000 --k-max 0",
     _built(500000000000 * 1000000000000000000001)),
    # a family's parity halves its n range: even n from 2 to 2000002, odd n from -3 to 2000001
    ("gen --family g --n-max 2000002 --k 0", _built(1000001)),
    ("gen --family hstar --n-min -4 --n-max 2000001 --k 1", _built(1000003)),
    ("classify --family f --n-min 0 --n-max 1000 --k-min 0 --k-max 999", _built(1001000)),
    ("verify --theorem t2.1 --n-max 2 --k-min 0 --k-max 100000000", _K_CAP),
    ("table --theorem t3.1 --n-max 2 --p 3 --k-min 0 --k-max 100000000", _K_CAP),
    # one member whose rows are too large to build: f reads the row of n - 1 first
    ("gen --family f --n 99999999999 --k 0", "error: the binomial row of n = 99999999998 is above ROW_CAP = 10000"),
    ("gen --family kind1 --n 10001", "error: the binomial row of n = 10001 is above ROW_CAP = 10000"),
    ("classify --family f --n 99999999999 --k 2 --ring fp --p 3",
     "error: the binomial row of n = 99999999998 mod 3 is above ROW_MOD_P_CAP = 1000000"),
    ("gen --family kind2 --n 1000001 --ring fp --p 13",
     "error: the binomial row of n = 1000001 mod 13 is above ROW_MOD_P_CAP = 1000000"),
    ("gen --family dickson --n 99999999999 --k 0",
     "error: the reversed Dickson member of n = 99999999999 reads binomials above ROW_CAP = 10000"),
    # a coterm over GF(p) reads its row mod p, as gen does, so ROW_MOD_P_CAP bounds it and ROW_CAP does not
    ("coterm --theorem T5_7 --n 20002 --p 3", None),
    ("coterm --theorem T5_7 --n 1000002 --p 3",
     "error: the binomial row of n = 1000001 mod 3 is above ROW_MOD_P_CAP = 1000000"),
    # sweeps inside SCAN_CAP whose largest member's row is above its cap: refused before any member is built
    ("classify --family g --n-max 2000000 --k 0", "error: the binomial row of n = 1999999 is above ROW_CAP = 10000"),
    ("verify --theorem t2.1 --n-max 80000", "error: the binomial row of n = 79999 is above ROW_CAP = 10000"),
]


def _probe(argv: str, limit: int) -> subprocess.CompletedProcess:
    """Run the CLI in a child whose address space is limited to ``limit`` bytes; its stdout ends in its seconds."""
    probe = ("import resource, sys, time; lim = int(sys.argv[2]); resource.setrlimit(resource.RLIMIT_AS, (lim, lim))\n"
             "sys.path.insert(0, sys.argv[1]); from reciprodick.cli import main\n"
             "start = time.perf_counter(); rc = main(sys.argv[3:])\n"
             "sys.stdout.write(f'{time.perf_counter() - start:.3f}'); sys.exit(rc)\n")
    src_dir = str(Path(reciprodick.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", probe, src_dir, str(limit), *argv.split()], capture_output=True,
                          text=True, timeout=60)


@pytest.mark.parametrize("argv, error", _LONG_SWEEPS, ids=[argv for argv, _ in _LONG_SWEEPS])
def test_long_sweeps_are_refused_before_listing(argv, error):
    # each used to list every n and k, and build every member, or one member's too large rows, first:
    # a MemoryError traceback, or hours.  A case with no error runs to completion within the same bounds.
    # The child's address space is limited, so an unbounded listing fails there instead of swapping
    proc = _probe(argv, 2 << 30)
    assert (proc.returncode, proc.stderr) == ((0, "") if error is None else (1, error + "\n"))
    output, seconds = proc.stdout.rpartition("\n")[::2]
    assert (output == "") == (error is not None)
    assert float(seconds) < 2


@pytest.mark.parametrize("argv", ["gen --family f --ring fp --p 3 --n-max 3000 --k 1",
                                  "classify --family f --n-max 1000 --k-min 0 --k-max 1 --format csv"])
def test_a_sweep_holds_one_member_at_a_time(argv):
    # each used to keep every member and its whole text until the end: over 200 MB of RSS, a MemoryError
    # under this limit.  Written as they are made, they run in a few tens of MB
    proc = _probe(f"{argv} --out {os.devnull}", 128 << 20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert float(proc.stdout) < 20


_REFUSED = [
    ("gen --family f --n 99999999999 --k 0", "error: the binomial row of n = 99999999998 is above ROW_CAP = 10000"),
    # FamilySpec refuses k = 5 at the first n, before any member of the sweep is written
    ("gen --family f --ring fp --p 5 --n-max 3 --k-min 0 --k-max 5",
     "error: over F5 the kind parameter k must lie in [0, 4], got 5"),
    ("gen --family g --n-min 0 --n-max 6 --k 0", "error: family 'g' requires even n > 1"),
    # the sweep's specs are checked at its first n in closed form: the first bad k sits mid-range (5, not 9) ...
    ("gen --family f --ring fp --p 5 --n-max 3 --k-min 2 --k-max 9",
     "error: over F5 the kind parameter k must lie in [0, 4], got 5"),
    # ... or just past a fixed k (2, not 3), and n is checked before k's range (k = -1 passes neither)
    ("gen --family fchar2 --n-max 4 --k-min 1 --k-max 3", "error: family 'fchar2' fixes k = 1"),
    ("gen --family g --ring fp --p 3 --n-min 0 --n-max 6 --k-min -1 --k-max 1",
     "error: family 'g' requires even n > 1"),
    # T2_1 to T2_7 scan before T3_1 refuses p = 9: no verdict of theirs is written
    ("verify --theorem all --p 9", "error: 9 is not prime"),
]


@pytest.mark.parametrize("argv, error", _REFUSED, ids=[argv for argv, _ in _REFUSED])
def test_refusals_come_before_the_first_byte(capsys, tmp_path, argv, error):
    assert run(capsys, *argv.split()) == (1, "", error + "\n")
    target = tmp_path / "out"
    assert run(capsys, *argv.split(), "--out", str(target)) == (1, "", error + "\n")
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", ["gen --family f --n 4 --k 0", "gen --family f --n 4 --k 0 --format csv",
                                  "gen --family f --n-max 300 --k 0", "gen --family f --n-max 300 --k 0 --format csv"])
def test_a_failed_write_to_out_exits_1(capsys, argv):
    expected = (1, "", "error: cannot write /dev/full: No space left on device\n")
    assert run(capsys, *argv.split(), "--out", "/dev/full") == expected


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_closed_stdout_exits_1_silently(fmt):
    # a reader that stops early (`| head -c 10`) closes the pipe while records are still being written
    src_dir = str(Path(reciprodick.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
    argv = ["gen", "--family", "f", "--n-max", "300", "--k", "0", "--format", fmt]
    with subprocess.Popen([sys.executable, "-m", "reciprodick", *argv], env={**os.environ, "PYTHONPATH": path},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=60)
    assert (head, rc, err) == (b'{"family":' if fmt == "json" else b"family,n,k", 1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", ["gen --family f --n 4 --k 0", "gen --family f --n-max 300 --k 0 --format csv"])
def test_a_failed_write_to_stdout_exits_1_with_its_reason(argv):
    # `reciprodick gen ... > /dev/full`: one line naming the failure, and a silent flush at exit
    src_dir = str(Path(reciprodick.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "reciprodick", *argv.split()],
                              env={**os.environ, "PYTHONPATH": path}, stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=60)
    assert (proc.returncode, proc.stderr) == (1, "error: cannot write stdout: No space left on device\n")


def _eager_selection(args) -> tuple[int, list[FamilySpec]]:
    """The reference: every spec of the sweep made and listed in (n, k) order before the first member is built.

    It takes the selection's preamble (ring, n values, k values) as the CLI reads it; its grid stays far
    below SCAN_CAP and the row caps, so it leaves out their checks.
    """
    ring = _resolve_ring(args)
    row = FAMILY_TABLE[args.family]
    if args.n is not None:
        ns = [args.n]
    else:
        lo = row.n_min if args.n_min is None else args.n_min
        ns = [n for n in range(lo, args.n_max + 1) if row.parity is None or n % 2 == row.parity]
    if args.k is not None:
        ks = [args.k]
    elif args.k_min is not None:
        ks = list(range(args.k_min, args.k_max + 1))
    else:
        ks = [row.fixed_k[0] if row.fixed_k else 0]
    specs = [FamilySpec(args.family, n, k, ring, args.a) for n in ns for k in ks]
    return len(specs), specs


def _lazy_selection(args) -> tuple[int, Iterator[FamilySpec]]:
    count, members = _selected_members(args)
    return count, (spec for spec, _ in members)


def _outcome(select, args):
    try:
        count, specs = select(args)
        return count, list(specs)
    except (DomainError, CapacityError) as exc:
        return type(exc), str(exc)


# single n, then n ranges: from the family's n_min, negative, starting below n_min, of the wrong parity, empty
_N_SELECTORS = ["--n 4", "--n 3", "--n -1", "--n-max 5", "--n-min -2 --n-max 3", "--n-min 0 --n-max 6",
                "--n-min 3 --n-max 8", "--n-min 5 --n-max 4", "--n-min 6 --n-max 6"]
# none, single k, then k ranges: starting negative, crossing p or the fixed k, mid-range past p, empty
_K_SELECTORS = ["", "--k 0", "--k 1", "--k 4", "--k -1", "--k-min -2 --k-max 1", "--k-min 0 --k-max 6",
                "--k-min 1 --k-max 3", "--k-min 2 --k-max 9", "--k-min 3 --k-max 2"]
_RINGS = ["", "--ring fp --p 2", "--ring fp --p 3", "--ring fp --p 5"]


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_check_matches_the_eager_listing(family):
    # every refusal, with its type, text and order, or the same count and the same specs in the same order
    parser = _build_parser()
    for ring, a, n_sel, k_sel in itertools.product(_RINGS, (1, 2), _N_SELECTORS, _K_SELECTORS):
        argv = f"gen --family {family} {ring} --a {a} {n_sel} {k_sel}"
        args = parser.parse_args(argv.split())
        assert _outcome(_lazy_selection, args) == _outcome(_eager_selection, args), argv


def test_a_sweep_lists_no_spec_before_the_first_record():
    # the selection used to list every spec before returning: 200,000 of them took over 20 MB
    args = _build_parser().parse_args("gen --family f --n 1 --k-min 0 --k-max 199999".split())
    tracemalloc.start()
    try:
        count, _ = _selected_members(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 200000
    assert peak < 10**6, peak
