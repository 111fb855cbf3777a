"""README.md as a contract: every CLI example in its fenced blocks runs in
both formats, and its prose names only public symbols."""

import json
import re
import shlex
from pathlib import Path

import pytest

from octsieve.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
# each line of a fenced block that runs the CLI, its `#` comment dropped
EXAMPLES = [shlex.split(line, comments=True)[1:] for block in FENCED.findall(README)
            for line in block.splitlines() if line.startswith("octsieve ")]
# a dotted name such as octsieve.__all__ or sieve.sieve, not part of a longer word
NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def private_names(text):
    """The dotted names in ``text``'s backticked spans outside fenced
    blocks that have a ``_``-prefixed component other than a dunder."""
    spans = re.findall(r"`([^`]+)`", FENCED.sub("", text))
    return sorted({name for span in spans for name in NAME.findall(span)
                   if any(part.startswith("_") and not (part.startswith("__") and part.endswith("__"))
                          for part in name.split("."))})


def test_the_examples_cover_every_command():
    assert {argv[0] for argv in EXAMPLES} == {"tables", "triplets", "orbit", "sieve", "derive", "verify"}


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_a_readme_example_runs_in_both_formats(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == 3


def test_the_readme_names_no_private_symbol():
    assert private_names(README) == []


def test_a_private_name_is_found_and_a_dunder_is_not():
    text = "`sieve._walsh`, `_mul`, `octsieve.__all__`, `__match_args__`, `1_0`\n```\n`_fenced`\n```\n"
    assert private_names(text) == ["_mul", "sieve._walsh"]
