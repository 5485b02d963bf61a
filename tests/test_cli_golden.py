"""Golden CLI output: exact stdout bytes, exit codes and error lines.

Each case is one command line; ``cli_golden.json`` holds what it printed.
Run this module as a script to rewrite that file from the current code, after
a change that is meant to alter the output.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from reciprodick.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

CASES = (
    # gen: every family, JSON and CSV, sweeps and single members
    "gen --family f --n 4 --k 0",
    "gen --family f --n-max 6 --k-min -1 --k-max 2",
    "gen --family f --n-max 6 --k-min -1 --k-max 2 --format csv",
    "gen --family f --n 7 --k 4 --ring fp --p 5",
    "gen --family f --n-max 5 --k-min 0 --k-max 4 --ring fp --p 5 --format csv",
    "gen --family g --n-max 10 --k 1",
    "gen --family h --n-min 3 --n-max 10 --k 2 --format csv",
    "gen --family gstar --n-max 9 --k -1",
    "gen --family hstar --n-max 9 --k 3 --format csv",
    "gen --family g --n-max 8 --k-min 0 --k-max 2 --ring fp --p 3",
    "gen --family dickson --n-max 6 --k 1 --a 3",
    "gen --family dickson --n 5 --k 2 --a -2 --format csv",
    "gen --family dickson --n-max 4 --k 0 --a 2 --ring fp --p 7",
    "gen --family kind1 --n-max 6",
    "gen --family kind2 --n-max 6 --format csv",
    "gen --family kind3 --n-max 6 --ring fp --p 3",
    "gen --family fchar2 --n-max 9",
    "gen --family fchar2 --n 8 --format csv",
    "gen --family fchar2 --n 8 --ring fp --p 2",
    "gen --family fchar2 --n 8 --ring z --p 3",
    "gen --family g --n-max 1",
    "gen --family g --n-min 0 --n-max 4",
    "gen --family fchar2 --n 8 --ring fp --p 3",
    "gen --family g --n 5",
    "gen --family gstar --n 4 --k 1",
    "gen --family f --n 4 --k-min 1",
    "gen --family f --n 4 --ring fp",
    "gen --family f --n 4 --p 3",
    "gen --family f --n 4 --ring fp --p 6",
    "gen --family kind1 --n 4 --k 1",
    "gen --family fchar2 --n 4 --k 0",
    "gen --family fchar2 --n 0",
    "gen --family f --n 4 --ring fp --p 3 --k 5",
    "gen --family f --n -1",
    "gen --family f",
    "gen --family nope --n 4",
    # classify
    "classify --family f --n 5 --k 3",
    "classify --family f --ring fp --p 7 --n-min 1 --n-max 8 --k-min 0 --k-max 6",
    "classify --family f --ring fp --p 7 --n-min 1 --n-max 8 --k-min 0 --k-max 6 --format csv",
    "classify --family g --n-max 8 --k-min -2 --k-max 2 --format csv",
    "classify --family gstar --n-max 7 --k-min 0 --k-max 2",
    "classify --family hstar --n-min 2 --n-max 7 --k 1 --format csv",
    "classify --family fchar2 --n-max 12 --format csv",
    "classify --family dickson --n-max 5 --k 1 --a 2",
    "classify --family dickson --n-max 5 --k 1 --a 2 --format csv",
    "classify --family kind2 --n-max 5 --ring fp --p 3",
    "classify --family h --n 3",
    # verify
    "verify --theorem t2.1 --n-max 40",
    "verify --theorem t2.1 --n-min 0 --n-max 4 --all-verdicts",
    "verify --theorem t2.1 --n-min 10 --n-max 4",
    "verify --theorem t2.3 --n-min 4 --n-max 4",
    "verify --theorem t2.3 --n-max 8 --format csv",
    "verify --theorem T2_4 --n-max 11 --k-min -1 --k-max 3 --all-verdicts",
    "verify --theorem t2.7 --n-max 7 --all-verdicts --format csv",
    "verify --theorem t3.1 --n-max 10 --p-list 3,5 --all-verdicts",
    "verify --theorem t3.1 --n-max 6 --k-min -2 --k-max 8 --p-list 5,3 --all-verdicts",
    "verify --theorem t3.4 --n-max 15 --p 5 --all-verdicts --format csv",
    "verify --theorem t3.4 --n-max 30 --p-list 3,5,7 --k-min 0 --k-max 1",
    "verify --theorem t3.4 --n-max 5 --p-list 5,3,5, --all-verdicts",
    "verify --theorem t4.1 --n-max 10 --all-verdicts",
    "verify --theorem t4.1 --n-max 6 --k-min 0 --k-max 0 --p 3 --all-verdicts",
    "verify --theorem c3.2 --all-verdicts",
    "verify --theorem c3.2 --n-min 2 --n-max 14 --k-min 0 --k-max 1 --all-verdicts",
    "verify --theorem c3.3 --n-max 12 --p-list 3,5 --all-verdicts --format csv",
    "verify --theorem c3.5 --all-verdicts",
    "verify --theorem c4.2 --all-verdicts --p 3",
    "verify --theorem l1 --n-max 8 --p-list 2,3 --all-verdicts",
    "verify --theorem l1 --n-min 0 --n-max 6 --p-list 3,5 --k-min 0 --k-max 1 --all-verdicts",
    "verify --theorem l1 --n-max 4 --p 2 --all-verdicts --format csv",
    "verify --theorem all --n-max 8",
    "verify --theorem all --n-max 6 --format csv --all-verdicts",
    "verify --theorem all --n-max 8 --p 3 --k-min 0 --k-max 2 --all-verdicts",
    "verify --theorem all --n-max 8 --p 2",
    "verify --theorem t3.1 --n-max 6 --p 4",
    "verify --theorem t3.1 --n-max 6 --p-list 9,2",
    "verify --theorem c3.3 --n-max 6 --p-list 2,3",
    "verify --theorem l1 --n-max 6 --p-list 2,4",
    "verify --theorem t3.1 --n-max 6 --p 3 --p-list 3,5",
    "verify --theorem t2.1 --n-max 6 --k-max 3",
    "verify --theorem t8.1 --n-max 4",
    # table
    "table --theorem t2.1 --n-max 10 --format csv",
    "table --theorem t3.1 --n-max 6 --p 3",
    "table --theorem t2.3 --n-min 2 --n-max 6",
    "table --theorem t2.7 --n-max 5 --k-min 0 --k-max 3 --format csv",
    "table --theorem t4.1 --n-max 12 --format csv",
    "table --theorem all --n-max 4 --p-list 3,5",
    "table --theorem c3.5 --p-list 3,7",
    "table --theorem l1 --n-max 5 --format csv",
    "table --theorem t3.1 --n-max 6 --p 2",
    "table --theorem bogus --n-max 6",
    # coterm: all nine rules, degenerate cases and hypothesis errors
    "coterm --theorem t5.1 --n 4",
    "coterm --theorem t5.1 --n 10 --format csv",
    "coterm --theorem t5.1 --n 4 --ring z",
    "coterm --theorem t5.2 --n 6",
    "coterm --theorem t5.2 --n 12 --format csv",
    "coterm --theorem t5.3 --n 8",
    "coterm --theorem t5.4 --n 5",
    "coterm --theorem t5.4 --n 9 --format csv",
    "coterm --theorem t5.5 --n 7",
    "coterm --theorem t5.7 --n 10 --p 3",
    "coterm --theorem t5.7 --n 12 --p 3 --format csv",
    "coterm --theorem t5.7 --n 10 --ring z --p 3",
    "coterm --theorem t5.8 --n 6 --p 5",
    "coterm --theorem t5.8 --n 12 --p 11",
    "coterm --theorem t5.9 --n 9 --p 3",
    "coterm --theorem t5.9 --n 13 --p 13 --format csv",
    "coterm --theorem t5.9 --n 7 --p 5",
    "coterm --theorem char2 --n 6",
    "coterm --theorem char2 --n 8 --format csv",
    "coterm --theorem char2 --n 6 --p 2 --ring fp",
    "coterm --theorem char2 --n 6 --ring z",
    "coterm --theorem R5_CHAR2 --n 10",
    "coterm --theorem t5.char2 --n 12",
    "coterm --theorem t5.8 --n 10 --p 5",
    "coterm --theorem t5.9 --n 11 --p 3",
    "coterm --theorem char2 --n 5",
    "coterm --theorem char2 --n 6 --k 0",
    "coterm --theorem char2 --n 6 --p 3",
    "coterm --theorem t5.1 --n 4 --k 1",
    "coterm --theorem t5.1 --n 3 --k 1",
    "coterm --theorem t5.2 --n 6 --k 0",
    "coterm --theorem t5.4 --n 3",
    "coterm --theorem t5.9 --n 9",
    "coterm --theorem t5.1 --n 4 --p 3",
    "coterm --theorem t5.1 --n 4 --ring fp",
    "coterm --theorem t5.7 --n 10 --p 2",
    "coterm --theorem t5.7 --n 10 --p 4",
    "coterm --theorem t5.6 --n 10",
    # coterm refusals for every rule; two failed hypotheses pin the order in
    # which they are checked (ring, then n, then k, then side conditions)
    "coterm --theorem t5.2 --n 4",
    "coterm --theorem t5.2 --n 5 --k 0",
    "coterm --theorem t5.3 --n 5",
    "coterm --theorem t5.3 --n 4 --k 1",
    "coterm --theorem t5.3 --n 3 --k 2",
    "coterm --theorem t5.4 --n 5 --k 0",
    "coterm --theorem t5.4 --n -1 --k 0",
    "coterm --theorem t5.5 --n 4 --k 1",
    "coterm --theorem t5.5 --n 7 --k 0",
    "coterm --theorem t5.5 --n 4 --k 0",
    "coterm --theorem t5.7 --n 3 --p 3",
    "coterm --theorem t5.7 --n 10 --p 3 --k 1",
    "coterm --theorem t5.7 --n 3 --p 3 --k 1",
    "coterm --theorem t5.7 --n 3 --p 2",
    "coterm --theorem t5.7 --n 10",
    "coterm --theorem t5.8 --n 4 --p 3",
    "coterm --theorem t5.8 --n 5 --p 5",
    "coterm --theorem t5.8 --n 6 --p 3 --k 1",
    "coterm --theorem t5.8 --n 10 --p 5 --k 0",
    "coterm --theorem t5.8 --n 9 --p 3 --k 0",
    "coterm --theorem t5.9 --n 8 --p 3 --k 0",
    "coterm --theorem t5.9 --n 9 --p 3 --k 2",
    "coterm --theorem t5.9 --n 11 --p 3 --k 0",
    "coterm --theorem t5.9 --n 5 --p 3",
    "coterm --theorem char2 --n 5 --k 0",
    "coterm --theorem char2 --n 4 --k 2",
    "coterm --theorem t5.1 --n 3 --p 3",
    "coterm --theorem t5.1 --n 3 --k 1 --ring fp",
    # the ring a row is read over, and the members it has there
    "verify --theorem l1 --n-max 6 --p-list 2,3 --k-min 0 --k-max 0",
    "verify --theorem t4.1 --n-max 6 --p-list 3,5",
    "coterm --theorem t5.1 --n 4 --p 4",
    "coterm --theorem t5.7 --n 10 --ring fp",
    "coterm --theorem char2 --n 6 --ring fp --p 3",
    "gen --family f --n 6 --k 1 --ring fp --p 2",
    "gen --family dickson --n 6 --k 1 --a 2 --ring fp --p 5",
    # code
    "code --p 2 --m 7",
    "code --p 2 --m 7 --sr-only --format csv",
    "code --p 3 --m 8",
    "code --p 3 --m 4 --format csv",
    "code --p 5 --m 6 --enum-cap 30",
    "code --p 2 --m 9 --sr-only",
    "code --p 6 --m 4",
    "code --p 2 --m 0",
    "code --p 17 --m 4",
    "code --p 2 --m 40",
)


def run(argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv.split())
    # argparse's usage lines wrap with the terminal width, so only the
    # library's own error lines are pinned
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    return {"rc": rc, "stdout": out.getvalue(), "errors": errors}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("argv", CASES)
def test_cli_output_unchanged(golden, argv):
    assert run(argv) == golden[argv]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({argv: run(argv) for argv in CASES}, indent=1) + "\n")
