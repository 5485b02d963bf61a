"""The benchmark's four workloads and their correctness gates.

Every workload is a closed loop: one caller issues top-level calls into the
public ``reciprodick`` API one after another and waits for each reply.  The
set of specs, codes and commands a pass covers is fixed per workload and
size; the seed only chooses where each range is cut into top-level calls and
the order of those calls, so the cost of a pass does not depend on the seed.

Library entry points are looked up on their modules at call time
(``R.scan``, ``cli.main``), so the traced run's in-memory wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reciprodick as R
from reciprodick import cli

PINNED_PATH = Path(__file__).with_name("pinned.json")

SIZES = ("full", "toy")
DEFAULT_SEED = 1
K_WINDOW = tuple(range(-5, 7))
ODD_PRIMES = (3, 5, 7, 11, 13)
CODE_PRIMES = (2, 3, 5)
ENUMERATION_LIMIT = 10**6  # the library's codeword enumeration cap
CLASSIFICATIONS = ("T2_1", "T2_3", "T2_4", "T2_7", "T3_1", "T3_4", "T4_1")


@dataclass
class Call:
    """One top-level call: what to run, and what the gate needs to judge it."""

    label: str
    run: Callable[[], object]
    group: str = ""
    keys: frozenset = frozenset()  # expected verdict keys of a scan window
    expect_rc: int = 0  # expected CLI exit code
    csv: bool = False  # CLI output starts with a header line


@dataclass
class PassResult:
    """Outcome of one pass: per-call latencies and the gate's counts."""

    latencies: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # reference time around each call
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    completed: int = 0  # checks from calls that returned
    stdout_bytes: int = 0
    errors: list[str] = field(default_factory=list)


def load_pins() -> dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def windows(ns: list[int], width: int, rng: random.Random) -> list[list[int]]:
    """Cut a sorted list into consecutive runs of width to 2*width-1 values.

    The seed shifts every cut by the same offset; each value lands in exactly
    one window, and no window is shorter than ``width``.
    """
    offset = rng.randrange(width)
    cuts = [0] + list(range(width + offset, len(ns) - width + 1, width)) + [len(ns)]
    return [ns[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]


def verdict_key(v) -> tuple:
    ring = v.spec.ring
    return (v.theorem, v.spec.family, v.spec.n, v.spec.k, ring.p if ring.is_field else None)


# ------------------------------------------------------------ expected keys
# An independent restatement of each rule's iteration domain, so that a scan
# that drops, repeats or invents specs is caught by its verdict count.


def _keys_z(rule: str, families: tuple[str, ...], ns) -> set:
    return {(rule, fam, n, k, None) for n in ns for k in K_WINDOW for fam in families}


def _keys_fp(rule: str, ns, primes=ODD_PRIMES) -> set:
    return {(rule, "f", n, k, p) for n in ns for p in primes for k in range(p)}


def _keys_corollary(rule: str, ns) -> set:
    if rule == "C4_2":
        return {(rule, "fchar2", n, 1, 2) for n in ns if n > 2 and n % 4 == 2}
    keys = set()
    for n in ns:
        for p in ODD_PRIMES:
            if rule == "C3_2" and n > 2 and n % 4 == 2:
                keys.add((rule, "f", n, 0, p))
            elif rule == "C3_3" and n > 0 and n % 4 == 0 and n % p:
                keys.add((rule, "f", n, 2, p))
            elif rule == "C3_5" and n % 4 == 3 and (n + 1) % p:
                keys.add((rule, "f", n, 1, p))
    return keys


def _keys_l1(ns) -> set:
    keys = {("L1", "fchar2", n, 1, 2) for n in ns}
    keys |= {("L1", "f", n, k, p) for n in ns for p in ODD_PRIMES for k in range(p)}
    return keys


# ------------------------------------------------------------------ workloads


class Workload:
    """Base: a named set of top-level calls plus the gate that judges a pass."""

    name = ""

    def __init__(self, size: str, pins: dict):
        self.size = size
        self.pins = pins[size]

    def calls(self, seed: int) -> list[Call]:
        rng = random.Random(seed)
        out = self._calls(rng)
        rng.shuffle(out)
        return out

    def _calls(self, rng: random.Random) -> list[Call]:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self, calls: list[Call], gauge: Callable[[], float] | None = None,
                 every_s: float = 0.2) -> PassResult:
        """Run every call once, time each, then gate the outcomes.

        With ``gauge`` (a function that times the reference task), the gauge
        is sampled before the first call, after the last, and after any call
        that ends ``every_s`` or more after the previous sample; ``ref_s``
        then holds, for each call, the mean of the two samples around it.
        """
        clock = time.perf_counter
        res = PassResult()
        outcomes = []
        samples = [gauge()] if gauge else []
        before = []  # index of the last sample taken before each call
        start = last = clock()
        for i, call in enumerate(calls):
            before.append(len(samples) - 1)
            t0 = clock()
            try:
                out = call.run()
            except Exception as exc:  # a raising call is a failed check, not a crash
                out = exc
                res.errors.append(f"{call.label}: {exc!r}")
            t1 = clock()
            res.latencies.append(t1 - t0)
            outcomes.append(out)
            if gauge and (t1 - last >= every_s or i == len(calls) - 1):
                samples.append(gauge())
                last = clock()
        res.wall_s = clock() - start
        if gauge:
            res.ref_s = [(samples[j] + samples[j + 1]) / 2 for j in before]
        self.gate(calls, outcomes, res)
        return res

    def gate(self, calls: list[Call], outcomes: list, res: PassResult) -> None:
        raise NotImplementedError


class ScanWorkload(Workload):
    """Gate for scan calls (lists of Verdicts) and code sweeps (criterion vs enumeration)."""

    def _scan_call(self, rule: str, ns: list[int], keys: set, **kwargs) -> Call:
        lo, hi = ns[0], ns[-1]
        primes = f" p={','.join(map(str, kwargs['p_list']))}" if "p_list" in kwargs else ""
        return Call(
            label=f"scan {rule} n=[{lo},{hi}]{primes}",
            run=lambda: R.scan(rule, n_min=lo, n_max=hi, **kwargs),
            group=rule,
            keys=frozenset(keys),
        )

    def gate(self, calls, outcomes, res):
        findings = {tuple(k) for k in self.pins["findings"]}
        for call, out in zip(calls, outcomes):
            if call.group.startswith("code"):
                self._gate_codes(call, out, res)
                continue
            expected = len(call.keys)
            res.attempted += expected
            if isinstance(out, Exception):
                res.failed += expected
                continue
            res.completed += len(out)
            got = Counter(verdict_key(v) for v in out)
            bad = sum(got[k] - 1 for k in got if k in call.keys and got[k] > 1)
            bad += sum(got[k] for k in got if k not in call.keys)
            bad += len(call.keys - got.keys())
            for v in out:
                key = verdict_key(v)
                if call.group in CLASSIFICATIONS:
                    ok = v.match == (key not in findings)
                else:  # corollaries and L1 must hold on every spec
                    ok = v.match and v.observed
                bad += not ok
            res.failed += min(bad, expected)

    def _gate_codes(self, call, out, res):
        expected = self.pins["codes"][call.group]
        res.attempted += expected
        if isinstance(out, Exception):
            res.failed += expected
            return
        res.completed += len(out)
        bad = abs(len(out) - expected) + sum(rev != enum for rev, enum in out)
        res.failed += min(bad, expected)


class ScanZ(ScanWorkload):
    """Rules over Z: big-integer binomials, Z builders and Poly construction."""

    name = "scan-z"
    RULES = (("T2_1", ("f",), 0), ("T2_3", ("g", "h"), 0),
             ("T2_4", ("f",), 1), ("T2_7", ("gstar", "hstar"), 1))

    def _calls(self, rng):
        n_max = 300 if self.size == "full" else 30
        out = []
        for rule, fams, parity in self.RULES:
            ns = [n for n in range(2, n_max + 1) if n % 2 == parity]
            for w in windows(ns, 2, rng):
                out.append(self._scan_call(rule, w, _keys_z(rule, fams, w), k_values=list(K_WINDOW)))
        return out

    def warmup(self):
        for rule, _, _ in self.RULES:
            R.scan(rule, n_min=2, n_max=5, k_values=[0, 1])


class ScanFp(ScanWorkload):
    """Rules over GF(p): members built over Z, then reduced mod p."""

    name = "scan-fp"

    def _calls(self, rng):
        n_max = 300 if self.size == "full" else 30
        out = []
        # one call per (n, p), as in field: the seed then moves no call's cost
        for rule, parity in (("T3_1", 0), ("T3_4", 1)):
            for n in range(1, n_max + 1):
                if n % 2 == parity and (n > 1 or parity):
                    for p in ODD_PRIMES:
                        out.append(self._scan_call(rule, [n], _keys_fp(rule, [n], (p,)), p_list=[p]))
        # T4_1 members are cheap, so wider windows keep its calls few
        for w in windows(list(range(2, n_max + 1)), 8, rng):
            out.append(self._scan_call("T4_1", w, {("T4_1", "fchar2", n, 1, 2) for n in w}))
        return out

    def warmup(self):
        R.scan("T3_1", n_min=2, n_max=4, p_list=[3])
        R.scan("T3_4", n_min=1, n_max=3, p_list=[3])
        R.scan("T4_1", n_min=2, n_max=4)


def _code_sweep(p: int, m: int) -> list[tuple[bool, bool]]:
    """(criterion, enumeration) for every code of length m over GF(p) in cap."""
    out = []
    for g in R.monic_divisors(p, m):
        code = R.build_cyclic_code(p, m, g)
        if p**code.dimension <= ENUMERATION_LIMIT:
            out.append((code.reversible, R.verify_reversibility_by_enumeration(code)))
    return out


class Field(ScanWorkload):
    """GF(p) arithmetic: irreducibility corollaries, L1 and the code sweep."""

    name = "field"

    def _calls(self, rng):
        full = self.size == "full"
        out = []
        # one call per (n, p): call costs then spread evenly, with no gap at the median
        for rule, residue, n_max in (("C3_2", 2, 90), ("C3_3", 0, 92), ("C3_5", 3, 91)):
            for n in range(3, (n_max if full else 20) + 1):
                for p in ODD_PRIMES:
                    keys = {k for k in _keys_corollary(rule, [n]) if k[4] == p}
                    if n % 4 == residue and keys:
                        out.append(self._scan_call(rule, [n], keys, p_list=[p]))
        ns = [n for n in range(6, (90 if full else 20) + 1) if n % 4 == 2]
        for w in windows(ns, 4, rng):
            out.append(self._scan_call("C4_2", w, _keys_corollary("C4_2", w)))
        for w in windows(list(range(1, 21)), 5, rng):
            out.append(self._scan_call("L1", w, _keys_l1(w), p_list=[2, *ODD_PRIMES]))
        for p in CODE_PRIMES if full else (2, 3):
            for m in range(1, (16 if full else 9)):
                out.append(Call(label=f"code p={p} m={m}", run=lambda p=p, m=m: _code_sweep(p, m),
                                group=f"code {p} {m}"))
        return out

    def warmup(self):
        R.scan("C3_2", n_min=6, n_max=6, p_list=[3])
        R.scan("C4_2", n_min=6, n_max=6)
        R.scan("L1", n_min=3, n_max=3, p_list=[2, 3])
        _code_sweep(2, 3)


# ------------------------------------------------------------------------ cli


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def cli_records(text: str, csv: bool) -> list[str]:
    lines = text.splitlines()
    return lines[1:] if csv else lines


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (group, argv template, n range, window width, n values whose window exits 2)
_CLI_RANGES = (
    ("gen-f-json", "gen --family f --n-min {a} --n-max {b} --k-min 1 --k-max 2", range(2, 301), 10, ()),
    ("gen-f-csv", "gen --family f --n-min {a} --n-max {b} --k-min 0 --k-max 1 --format csv",
     range(2, 301), 10, ()),
    ("gen-dickson", "gen --family dickson --n-min {a} --n-max {b} --k 1 --a 3", range(1, 151), 10, ()),
    ("classify-f7", "classify --family f --ring fp --p 7 --n-min {a} --n-max {b} --k-min 0 --k-max 6",
     range(1, 201), 10, ()),
    ("classify-f13-csv",
     "classify --family f --ring fp --p 13 --n-min {a} --n-max {b} --k-min 0 --k-max 12 --format csv",
     range(1, 201), 10, ()),
    ("table-T2_1", "table --theorem T2_1 --n-min {a} --n-max {b}", range(2, 121, 2), 5, ()),
    ("table-T2_3", "table --theorem T2_3 --n-min {a} --n-max {b}", range(2, 121, 2), 5, (2, 4)),
    ("table-T3_4", "table --theorem T3_4 --n-min {a} --n-max {b} --p-list 3,5,7", range(1, 82, 2), 5, ()),
    ("table-T4_1-csv", "table --theorem T4_1 --n-min {a} --n-max {b} --format csv", range(2, 201), 20, ()),
)

# coterm sweep over all nine rules: (rule, extra argv, n values)
_COTERM_SWEEP = (
    ("T5_1", "", (4, 10, 40, 100, 200)),
    ("T5_2", "", (6, 12, 50, 120, 200)),
    ("T5_3", "", (4, 16, 60, 140, 200)),
    ("T5_4", "", (5, 9, 41, 101, 199)),
    ("T5_5", "", (5, 11, 61, 121, 199)),
    ("T5_7", "--p 3", (4, 10, 12, 82, 200)),
    ("T5_7", "--p 7", (4, 14, 16, 50, 198)),
    ("T5_8", "--p 5", (6, 8, 26, 126, 198)),
    ("T5_8", "--p 11", (6, 12, 34, 122, 200)),
    ("T5_9", "--p 3", (7, 9, 27, 81, 199)),
    ("T5_9", "--p 13", (5, 13, 33, 169, 197)),
    ("CHAR2", "", (4, 6, 8, 64, 100, 200)),
)

_CODE_COMMANDS = ("--p 3 --m 26", "--p 2 --m 21", "--p 5 --m 12", "--p 2 --m 15 --format csv",
                  "--p 7 --m 16 --sr-only")


class Cli(Workload):
    """In-process CLI commands with stdout captured to memory."""

    name = "cli"
    raw_pin = None

    def _calls(self, rng):
        full = self.size == "full"
        out = []
        for group, template, ns, width, findings in _CLI_RANGES:
            ns = list(ns) if full else [n for n in ns if n <= 24]
            for w in windows(ns, width if full else 2, rng):
                argv = template.format(a=w[0], b=w[-1]).split()
                rc = 2 if set(findings) & set(w) else 0
                out.append(self._cli_call(group, argv, rc))
        for rule, extra, ns in _COTERM_SWEEP:
            for n in ns if full else ns[:2]:
                out.append(self._cli_call("coterm", f"coterm --theorem {rule} --n {n} {extra}".split(), 0))
        for args in _CODE_COMMANDS if full else ("--p 2 --m 7", "--p 3 --m 8 --format csv"):
            out.append(self._cli_call("code", f"code {args}".split(), 0))
        return out

    @staticmethod
    def _cli_call(group: str, argv: list[str], rc: int) -> Call:
        return Call(label=" ".join(argv), run=lambda: run_cli(argv), group=group,
                    expect_rc=rc, csv="csv" in argv)

    def warmup(self):
        for argv in ("gen --family f --n-max 4 --k 1", "classify --family f --ring fp --p 3 --n-max 3",
                     "table --theorem T2_1 --n-max 4", "coterm --theorem T5_1 --n 4",
                     "code --p 2 --m 3"):
            run_cli(argv.split())

    def gate(self, calls, outcomes, res):
        groups: dict[str, list[str]] = {}
        broken: set[str] = set()
        raw = []
        for call, out in zip(calls, outcomes):
            lines = groups.setdefault(call.group, [])
            if isinstance(out, Exception):
                broken.add(call.group)
                continue
            rc, text = out
            raw.append(text)
            res.stdout_bytes += len(text.encode())
            records = cli_records(text, call.csv)
            res.completed += len(records)
            lines.extend(records)
            if rc != call.expect_rc:
                broken.add(call.group)
        for group, pin in self.pins["cli"].items():
            res.attempted += pin["records"]
            lines = groups.get(group)
            if group in broken or lines is None or digest(sorted(lines)) != pin["sha256"]:
                res.failed += pin["records"]
        raw_ok = hashlib.sha256("".join(raw).encode()).hexdigest() == self.raw_pin
        if self.raw_pin is not None and res.failed == 0 and not raw_ok:
            res.failed += 1

    def calls(self, seed):
        # the byte-exact stream, call order included, is pinned for the default seed only
        self.raw_pin = self.pins["cli_raw_sha256"] if seed == DEFAULT_SEED else None
        return super().calls(seed)


WORKLOADS = {w.name: w for w in (ScanZ, ScanFp, Field, Cli)}
