"""Golden scan output: every verdict of every rule over small ranges, or its refusal.

Each case is one ``scan`` call at n <= 8; ``scan_golden.json`` holds the
verdicts it returned, each as the values of its JSON record after the theorem
id, space-separated, or the error it raised.
The grid pairs every rule with ``k_values`` that are duplicated, unsorted or
out of range and with ``p_list``s that contain 2, are unsorted, duplicated or
empty, or hold a non-prime.  Run this module as a script to rewrite the file
from the current code, after a change that is meant to alter the output.
"""

import json
from pathlib import Path

import pytest

from reciprodick import THEOREM_IDS, scan
from reciprodick.errors import CapacityError, DomainError

GOLDEN = Path(__file__).with_name("scan_golden.json")

N_MAX = 8
K_VALUES = (None, [], [4, -1, 1, 4, 0, 12], [1, 1])
P_LISTS = (None, [], [2], [2, 3], [7, 2, 3], [5, 3, 5], [3, 9], [9, 2], [4])
CASES = tuple((t, k, p) for t in THEOREM_IDS for k in K_VALUES for p in P_LISTS)


def key(case) -> str:
    t, k_values, p_list = case
    return f"{t} k_values={k_values} p_list={p_list}"


def run(case) -> dict:
    t, k_values, p_list = case
    try:
        verdicts = scan(t, n_max=N_MAX, k_values=k_values, p_list=p_list)
    except (DomainError, CapacityError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"verdicts": [" ".join(map(str, list(v.to_json_dict().values())[1:])) for v in verdicts]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(map(key, CASES))


@pytest.mark.parametrize("case", CASES, ids=key)
def test_scan_output_unchanged(golden, case):
    assert run(case) == golden[key(case)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key(case): run(case) for case in CASES}, indent=1) + "\n")
