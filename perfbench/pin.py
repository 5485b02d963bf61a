"""Regenerate perfbench/pinned.json from the library as it stands.

    python3 perfbench/pin.py

The pins are golden values: the scan findings, the number of codes each
(p, m) sweep checks, and digests of the CLI output.  Regenerate them only
for a change that is meant to alter those outputs, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys

from run import _import_library

_import_library()

import workloads as W  # noqa: E402 (needs the library on sys.path)


def pins_for(size: str) -> dict:
    empty = {s: {"cli_raw_sha256": None} for s in W.SIZES}
    calls = W.ScanZ(size, empty).calls(W.DEFAULT_SEED)
    found = sorted(W.verdict_key(v) for c in calls for v in c.run() if not v.match)
    by_rule = {r: sorted({k[2] for k in found if k[0] == r}) for r in ("T2_3", "T2_7")}
    # the short-interior findings: 41 for T2_3 at n = 2, 4 and 42 for T2_7 at n = 3, 5
    assert len(found) == 83 and by_rule == {"T2_3": [2, 4], "T2_7": [3, 5]}, by_rule

    codes = dict(sorted((c.group, len(c.run())) for c in W.Field(size, empty).calls(W.DEFAULT_SEED)
                        if c.group.startswith("code")))

    groups: dict[str, list[str]] = {}
    raw = []
    for c in W.Cli(size, empty).calls(W.DEFAULT_SEED):
        rc, text = c.run()
        assert rc == c.expect_rc, (c.label, rc)
        raw.append(text)
        groups.setdefault(c.group, []).extend(W.cli_records(text, c.csv))
    return {
        "findings": found,
        "codes": codes,
        "cli": {g: {"records": len(lines), "sha256": W.digest(sorted(lines))}
                for g, lines in sorted(groups.items())},
        "cli_raw_sha256": hashlib.sha256("".join(raw).encode()).hexdigest(),
    }


def main() -> int:
    pins = {size: pins_for(size) for size in W.SIZES}
    text = json.dumps(pins, indent=1)
    # one line per finding key
    text = re.sub(r'\[\n\s+("[^\[\]{}]*?)\n\s+\]', lambda m: "[" + re.sub(r"\n\s*", " ", m.group(1)) + "]", text)
    W.PINNED_PATH.write_text(text + "\n")
    for size, p in pins.items():
        print(size, "codes", sum(p["codes"].values()), "cli records",
              sum(g["records"] for g in p["cli"].values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
