"""scan's unchecked spec maker against the public, checked constructor.

``scan`` makes each spec that its row's conditions admit through ``FamilySpec._of``.
Every spec so made must equal, and hash equal to, the one ``FamilySpec(...)``
makes of the same fields, and every Verdict the one ``Verdict(...)`` makes
around it; their fields must be exact ints and bools, so the flat records and
the JSON bytes cannot drift.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from reciprodick import FamilySpec, GF, Ring, build
from reciprodick.classifier import (
    RULE_TABLE,
    Verdict,
    check_corollary,
    lemma_l1,
    oracle_self_reciprocal,
    predicate,
    scan,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "reciprodick"
PRIMES = (2, 3, 5, 7, 11, 13)
K_VALUES = [-3, 0, 0, 2, 1, 14, 7, -1, 2, 13, 4]  # duplicates, negatives and k >= p


def _checked(spec: FamilySpec) -> FamilySpec:
    return FamilySpec(spec.family, spec.n, spec.k, spec.ring, spec.a)


def _assert_exact_spec(spec: FamilySpec) -> FamilySpec:
    assert type(spec) is FamilySpec and type(spec.family) is str and type(spec.ring) is Ring
    assert (type(spec.n), type(spec.k), type(spec.a)) == (int, int, int)
    checked = _checked(spec)
    assert spec == checked and hash(spec) == hash(checked)
    assert json.dumps(spec.to_flat_dict()) == json.dumps(checked.to_flat_dict())
    return checked


def test_only_families_and_classifier_make_unchecked_specs():
    # FamilySpec._of skips every check, so it must not reach code that handles outside input; a Verdict
    # checks nothing, so it has one constructor
    texts = {f.name: f.read_text() for f in SRC.rglob("*.py")}
    assert {name for name, text in texts.items() if re.search(r"\b_of\b", text)} == {"families.py", "classifier.py"}
    assert {name for name, text in texts.items() if "FamilySpec._of" in text} == {"families.py", "classifier.py"}
    assert not hasattr(Verdict, "_of")


def _scan_args(t: str):
    # the default rings, then every listed prime the row admits; a row that one ring pins ignores p_list
    rule = RULE_TABLE[t]
    yield {}
    if len(rule.ring.rings) > 1:
        yield {"p_list": [p for p in PRIMES if rule.ring.holds(GF(p))]}


@pytest.mark.parametrize("t", list(RULE_TABLE))
def test_scan_verdicts_equal_the_checked_ones(t):
    rule = RULE_TABLE[t]
    total = 0
    for kwargs in _scan_args(t):
        verdicts = scan(t, n_min=-3, n_max=rule.scan_n[0] + 13, k_values=K_VALUES, **kwargs)
        assert verdicts
        total += len(verdicts)
        for v in verdicts:
            assert type(v) is Verdict and type(v.theorem) is str and type(v.note) is str
            assert (type(v.predicted), type(v.observed)) == (bool, bool)
            spec = _assert_exact_spec(v.spec)
            checked = Verdict(v.theorem, spec, v.predicted, v.observed, v.note)
            assert v == checked and hash(v) == hash(checked)
            assert json.dumps(v.to_json_dict()) == json.dumps(checked.to_json_dict())
            # and the public, checked entry points give the same verdict
            if rule.kind == "classification":
                assert (v.predicted, v.observed) == (predicate(t, spec), oracle_self_reciprocal(spec))
            elif rule.kind == "corollary":
                assert v.observed == check_corollary(t, spec)
            else:
                assert v.observed == lemma_l1(build(spec))
    assert total


def test_a_verdict_has_one_constructor_and_stays_a_frozen_dataclass():
    # Verdict's own __init__ sets its slots: keywords, the default note, replace, repr and frozenness hold
    spec = FamilySpec("f", 4, 1, GF(3))
    v = Verdict("T3_1", spec, True, False)
    assert v == Verdict(theorem="T3_1", spec=spec, predicted=True, observed=False, note="") and not v.match
    noted = dataclasses.replace(v, note="x")
    assert noted == Verdict("T3_1", spec, True, False, "x") != v and (v.note, noted.note) == ("", "x")
    assert noted.to_json_dict() == {**v.to_json_dict(), "note": "x"} and "note" not in v.to_json_dict()
    assert repr(v) == f"Verdict(theorem='T3_1', spec={spec!r}, predicted=True, observed=False, note='')"
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.note = "x"
    with pytest.raises(TypeError):
        Verdict("T3_1", spec, True)
