"""The README's examples print what the README shows.

The Quick start block is executed and each `print(...)  # shown` comment
is compared with the line it prints.  Every `$ nottorsion ...` line of
a shell block is run through `cli.main` in-process and compared with
the lines under it.  A shown line ending in `...` matches as a prefix,
and a lone `...` line ends the comparison.

Each command runs twice, once under a frozen clock and once under a
clock that advances a second per reading, and both outputs must match.
So a shown line may not show a measured runtime unless it ends in
`...`, and the test never depends on how fast the machine is.
"""

import functools
import itertools
import pathlib
import re
import shlex
import time

import pytest

from nottorsion.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    """Bodies of the README's fenced code blocks tagged `lang`."""
    blocks, body = [], None
    for line in README.read_text().splitlines():
        if body is None:
            if line == "```" + lang:
                body = []
        elif line == "```":
            blocks.append(body)
            body = None
        else:
            body.append(line)
    return blocks


def _command_examples():
    """(argv, shown lines) for every `$ nottorsion ...` line."""
    examples = []
    for body in _blocks("sh"):
        shown = None
        for line in body:
            if line.startswith("$ "):
                shown = []
                examples.append((shlex.split(line[2:]), shown))
            elif shown is not None:
                shown.append(line)
    return [(argv, shown) for argv, shown in examples if argv[0] == "nottorsion"]


EXAMPLES = _command_examples()


def assert_shown(shown, printed):
    for i, want in enumerate(shown):
        if want == "...":
            return
        assert i < len(printed), "README shows more lines than were printed: %r" % want
        if want.endswith("..."):
            assert printed[i].startswith(want[:-3]), (want, printed[i])
        else:
            assert printed[i] == want
    assert len(printed) == len(shown), printed[len(shown):]


def test_quick_start_prints_what_readme_shows(capsys):
    source = "\n".join(_blocks("python")[0])
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", source, re.MULTILINE)
    assert shown
    exec(compile(source, str(README), "exec"), {})
    assert_shown(shown, capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[a[1] for a, _ in EXAMPLES])
def test_command_example_prints_what_readme_shows(capsys, monkeypatch, argv, shown):
    advancing = functools.partial(next, itertools.count(0.0, 1.0))
    for clock in (lambda: 0.0, advancing):
        monkeypatch.setattr(time, "perf_counter", clock)
        assert main(argv[1:]) == 0
        assert_shown(shown, capsys.readouterr().out.splitlines())
