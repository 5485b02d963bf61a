"""README's CLI examples, run as shown: each exits as its comment says and prints the lines it shows.

An example is a ``reciprodick ...`` line of the ``## CLI`` block; it exits 0
unless its comment says "exits 2".  Comment lines right below it, with no
blank line between, are lines of its output.
"""

import contextlib
import io
from pathlib import Path

import pytest

from reciprodick.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[str, int, list[str]]]:
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples, shown = [], None
    for line in block.splitlines():
        if line.startswith("reciprodick "):
            command, _, comment = line.partition("#")
            shown = []
            examples.append((command.strip(), 2 if "exits 2" in comment else 0, shown))
        elif shown is not None and line.startswith("# "):
            shown.append(line[2:])
        else:
            shown = None
    return examples


EXAMPLES = _examples()


def test_readme_shows_cli_examples():
    assert len(EXAMPLES) >= 10 and any(shown for _, _, shown in EXAMPLES)


@pytest.mark.parametrize("command, rc, shown", EXAMPLES, ids=[c for c, _, _ in EXAMPLES])
def test_readme_cli_example(command, rc, shown, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an example may write a file with --out
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(command.split()[1:]) == rc
    lines = out.getvalue().splitlines()
    assert [line for line in shown if line not in lines] == []
