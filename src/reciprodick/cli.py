"""Command-line front end.

Commands:

  gen       construct one family member (or a sweep) and print it
  classify  report degree and self-reciprocality for family members
  verify    run a predicate-vs-oracle scan; mismatches are findings
  table     emit every scan verdict as a data table
  coterm    build a named coterm polynomial
  code      factor x^m - 1 and report the cyclic codes of its divisors

Output is deterministic: records are emitted in sorted parameter order with
a fixed field order and no timestamps, as JSON lines (default) or CSV.  Any
coefficient that could exceed 53 bits is carried as a string of base-10 digits.
The CSV is comma-separated with LF line ends and a header line; a list is one
space-separated cell, and a cell is quoted (its ``"`` doubled) only if it holds
``,``, ``"``, CR or LF, which no cell the CLI writes does.
Each record is written as soon as it is made, so a ``gen`` or ``classify``
sweep holds one member at a time and makes each spec once, listing none; every
refusal comes before the first record (a sweep's specs are checked in closed
form at its first n), so a refused command writes nothing and creates no ``--out`` file.

Exit codes: 0 success, 1 usage or domain errors or a failed stdout (silently when closed),
2 when a scan found predicate/oracle disagreements (the records are still emitted).

``main(argv)`` may be called repeatedly in one process: the argument parser
is built once, on the first call, and every parse makes a fresh namespace.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator

from .classifier import SCAN_CAP, THEOREM_IDS, entry_count, mismatches, normalize_theorem_id, scan
from .coterm_codes import (
    ENUMERATION_CAP,
    CyclicCode,
    coterm_construct,
    coterm_rule,
    monic_divisors,
    self_reciprocal_divisors,
    verify_reversibility_by_rank,
)
from .errors import CapacityError, DomainError, _text, int_text
from .families import FAMILIES, FAMILY_TABLE, FamilySpec, RowCache, build, require_rows
from .ringpoly import GF, Poly, Ring, Z

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2

_DEFAULT_ENUM_CAP = 10_000
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps would make an encoder per record


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default would exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="reciprodick", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_selector(p):
        p.add_argument("--family", choices=FAMILIES, required=True)
        g = p.add_mutually_exclusive_group()
        g.add_argument("--n", type=int)
        g.add_argument("--n-max", type=int)
        p.add_argument("--n-min", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--k-min", type=int)
        p.add_argument("--k-max", type=int)
        p.add_argument("--ring", choices=("z", "fp"))  # None when not given, so an explicit z shows
        p.add_argument("--p", type=int)
        p.add_argument("--a", type=int, default=1)

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out")

    p_gen = sub.add_parser("gen", help="construct family polynomials")
    add_selector(p_gen)
    add_output(p_gen)

    p_cls = sub.add_parser("classify", help="oracle self-reciprocality report")
    add_selector(p_cls)
    add_output(p_cls)

    for name in ("verify", "table"):
        p_v = sub.add_parser(name, help=f"{name} a classification rule over ranges")
        p_v.add_argument("--theorem", required=True)
        p_v.add_argument("--n-min", type=int)
        p_v.add_argument("--n-max", type=int)
        p_v.add_argument("--k-min", type=int)
        p_v.add_argument("--k-max", type=int)
        p_v.add_argument("--p", type=int)
        p_v.add_argument("--p-list")
        if name == "verify":
            p_v.add_argument("--all-verdicts", action="store_true")
        else:
            p_v.set_defaults(all_verdicts=True)
        add_output(p_v)

    p_cot = sub.add_parser("coterm", help="build a named coterm polynomial")
    p_cot.add_argument("--theorem", required=True)
    p_cot.add_argument("--n", type=int, required=True)
    p_cot.add_argument("--k", type=int)
    p_cot.add_argument("--ring", choices=("z", "fp"))
    p_cot.add_argument("--p", type=int)
    add_output(p_cot)

    p_code = sub.add_parser("code", help="cyclic codes from divisors of x^m - 1")
    p_code.add_argument("--p", type=int, required=True)
    p_code.add_argument("--m", type=int, required=True)
    p_code.add_argument("--sr-only", action="store_true",
                        help="only self-reciprocal (palindromic) generators")
    p_code.add_argument("--enum-cap", type=int, default=_DEFAULT_ENUM_CAP,
                        help="check reversibility by rank when p^dim is at most this")
    add_output(p_code)

    return parser


# ----------------------------------------------------------------- emission


def _csv_cell(v) -> str:
    """One CSV cell: ``true``/``false``, ``""`` for None, a list space-separated, else ``str(v)``; quoted, its
    ``"`` doubled, only when it holds ``,``, ``"``, CR or LF (RFC 4180's minimal quoting)."""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return ""
    s = " ".join(v) if isinstance(v, list) else str(v)
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv_line(values) -> str:
    """One CSV record: the cells joined by commas, ended by LF."""
    return ",".join(map(_csv_cell, values)) + "\n"


def _emit(args, fields: list[str], records: Iterable[dict]) -> None:
    """Write each record as it is made: one JSON line, or one CSV line under a header of ``fields``.

    The CSV is comma-separated with LF line ends; a list is one space-separated cell, and a cell is quoted
    only if it holds ``,``, ``"``, CR or LF (no cell the CLI writes does).
    """
    try:
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            if args.format == "json":
                fh.writelines(_ENCODE(r) + "\n" for r in records)
            else:
                fh.write(_csv_line(fields))
                fh.writelines(_csv_line([r.get(f) for f in fields]) for r in records)
            fh.flush()
    except OSError as exc:
        if args.out:
            raise DomainError(f"cannot write {args.out}: {exc.strerror}") from None
        # as the Python docs advise for SIGPIPE, point stdout at os.devnull so the flush at exit is silent;
        # a closed reader (`| head`) then exits 1 with nothing on stderr, any other failure with its reason
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            raise DomainError(f"cannot write stdout: {exc.strerror}") from None
        raise SystemExit(EXIT_ERROR) from None


# ----------------------------------------------------------------- selectors


def _contradicts(args, ring: Ring) -> bool:
    """True when --ring or --p names a ring other than ``ring``."""
    return args.p not in (None, ring.p) or args.ring not in (None, "fp" if ring.is_field else "z")


def _resolve_ring(args) -> Ring:
    fixed = FAMILY_TABLE[args.family].ring
    if fixed is not None:
        if _contradicts(args, fixed):
            raise DomainError(f"family {_text(args.family)} lives over {fixed}")
        return fixed
    if args.ring == "fp":
        if args.p is None:
            raise DomainError("--ring fp requires --p")
        return GF(args.p)
    if args.p is not None:
        raise DomainError("--p requires --ring fp")
    return Z


def _selected_members(args) -> tuple[int, Iterator[tuple[FamilySpec, Poly]]]:
    """The number of selected specs over the resolved ring, and each spec with its member, built lazily.

    Over SCAN_CAP of them (n values x k values), or a largest member whose binomial row is above its cap
    (with the text it raises when built alone), raise CapacityError.  Every spec is then checked, exactly,
    by two specs at the first n: ns rises in one parity, so n's checks pass at every n once they pass at the
    first; k's checks do not depend on n, and the first bad k of a run ks is ks[0] or the first past the top k.
    Each spec is made once, listed nowhere, as the iterator reaches it, its member built from one RowCache.
    """
    if args.n is not None and args.n_min is not None:
        raise DomainError("--n and --n-min are mutually exclusive")
    if args.k is not None and (args.k_min is not None or args.k_max is not None):
        raise DomainError("--k and --k-min/--k-max are mutually exclusive")
    ring = _resolve_ring(args)
    family = args.family
    row = FAMILY_TABLE[family]
    if args.n is not None:
        ns = [args.n]
    elif args.n_max is not None:
        lo = args.n_min if args.n_min is not None else row.n_min
        if row.parity is None:
            ns = range(lo, args.n_max + 1)
        else:  # every other n, from the first of the family's parity
            ns = range(lo + (lo - row.parity) % 2, args.n_max + 1, 2)
    else:
        raise DomainError("one of --n or --n-max is required")
    ks = [args.k] if args.k is not None else _k_range(args)
    if ks is None:
        ks = [row.fixed_k[0] if row.fixed_k else 0]
    count = entry_count(ns) * entry_count(ks)
    if count > SCAN_CAP:
        raise CapacityError(f"the selection would build {int_text(count)} members, above the cap {SCAN_CAP}")
    if count:
        require_rows(family, ns[-1], ring)
        FamilySpec(family, ns[0], ks[0], ring, args.a)
        last = row.fixed_k[0] if row.fixed_k else None if ring.p is None else ring.p - 1  # None: any k
        if last is not None:  # the first k past the domain, if ks reaches it
            FamilySpec(family, ns[0], min(ks[-1], last + 1), ring, args.a)
    specs = (FamilySpec(family, n, k, ring, args.a) for n in ns for k in ks)
    rows = RowCache()
    return count, ((spec, build(spec, rows)) for spec in specs)


def _k_range(args) -> range | None:
    if args.k_min is None and args.k_max is None:
        return None
    if args.k_min is None or args.k_max is None:
        raise DomainError("--k-min and --k-max go together")
    return range(args.k_min, args.k_max + 1)


# ------------------------------------------------------------------ commands


def _cmd_gen(args) -> int:
    count, members = _selected_members(args)
    if args.format == "csv":
        records = ({**spec.to_flat_dict(), "degree": poly.degree, "coeffs": poly.to_json_dict()["coeffs"]}
                   for spec, poly in members)
    elif count == 1:  # one member alone is its bare Poly JSON
        records = (poly.to_json_dict() for _, poly in members)
    else:
        records = ({**spec.to_flat_dict(), "poly": poly.to_json_dict()} for spec, poly in members)
    _emit(args, ["family", "n", "k", "p", "a", "degree", "coeffs"], records)
    return EXIT_OK


def _cmd_classify(args) -> int:
    _, members = _selected_members(args)
    records = ({**spec.to_flat_dict(), "degree": poly.degree, "self_reciprocal": poly.is_self_reciprocal(),
                "coeffs": poly.to_json_dict()["coeffs"]} for spec, poly in members)
    _emit(args, ["family", "n", "k", "p", "degree", "self_reciprocal", "coeffs"], records)
    return EXIT_OK


def _scan_args(args) -> dict:
    k_values = _k_range(args)
    p_list = None
    if args.p is not None and args.p_list is not None:
        raise DomainError("--p and --p-list are mutually exclusive")
    if args.p is not None:
        p_list = [args.p]
    elif args.p_list is not None:
        try:
            p_list = [int(tok) for tok in args.p_list.split(",") if tok.strip()]
        except ValueError:
            p_list = []
        if not p_list:  # a list naming no integer would fall back to the default primes
            raise DomainError(f"--p-list takes comma-separated integers, got {_text(args.p_list)}")
    return {"n_min": args.n_min, "n_max": args.n_max, "k_values": k_values, "p_list": p_list}


def _cmd_verify(args) -> int:
    # `table` is `verify --all-verdicts` without the per-theorem summary lines
    kwargs = _scan_args(args)
    ids = THEOREM_IDS if args.theorem.strip().lower() == "all" else [normalize_theorem_id(args.theorem)]
    scans = {t: scan(t, **kwargs) for t in ids}  # every scan runs first, so a refused one writes nothing
    bad = {t: mismatches(verdicts) for t, verdicts in scans.items()}

    def records():
        for t, verdicts in scans.items():
            yield from (v.to_json_dict() for v in (verdicts if args.all_verdicts else bad[t]))
            if args.command == "verify" and args.format == "json":
                yield {"theorem": t, "scanned": len(verdicts), "mismatches": len(bad[t])}

    _emit(args, ["theorem", "family", "n", "k", "p", "predicted", "observed", "match", "note"], records())
    return EXIT_MISMATCH if any(bad.values()) else EXIT_OK


def _cmd_coterm(args) -> int:
    rule, row = coterm_rule(args.theorem)
    pinned = len(row.ring.rings) == 1
    if not pinned and args.p is None:
        raise DomainError(f"{rule} requires --p")
    ring = row.ring.rings[0] if pinned else GF(args.p)
    if _contradicts(args, ring):
        raise DomainError(f"{rule} is stated over {row.ring.text}")
    k = args.k if args.k is not None else row.fixed_k
    result = coterm_construct(rule, args.n, k, ring)
    record = {"theorem": rule, "n": args.n, "k": k}
    if ring.is_field:
        record["p"] = ring.p
    record["m"] = result.context.m
    record["degenerate"] = result.degenerate
    record["coeffs"] = result.poly.to_json_dict()["coeffs"]
    _emit(args, ["theorem", "n", "k", "p", "m", "degenerate", "coeffs"], [record])
    return EXIT_OK


def _cmd_code(args) -> int:
    cap = min(args.enum_cap, ENUMERATION_CAP)
    divisors = self_reciprocal_divisors(args.p, args.m) if args.sr_only else monic_divisors(args.p, args.m)
    disagreements = 0

    def records():
        nonlocal disagreements
        for g in divisors:
            code = CyclicCode._of_divisor(args.p, args.m, g)
            checked = args.p**code.dimension <= cap
            record = code.to_json_dict(enumeration_checked=checked)
            if checked and verify_reversibility_by_rank(code) != code.reversible:
                record["note"] = "the rank check disagrees with the generator criterion"
                disagreements += 1
                if args.format == "csv":  # the CSV columns are fixed, so the note goes to stderr
                    generator = " ".join(record["generator"])
                    print(f"note: p={args.p} m={args.m} generator {generator}: {record['note']}", file=sys.stderr)
            yield record

    _emit(args, ["p", "m", "generator", "dimension", "reversible", "enumeration_checked"], records())
    return EXIT_MISMATCH if disagreements else EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "table": _cmd_verify,
    "coterm": _cmd_coterm,
    "code": _cmd_code,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    except (DomainError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
