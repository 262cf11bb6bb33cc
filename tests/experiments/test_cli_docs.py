"""The CLI's documented invocations and help text cannot drift from its parser.

Every ``python -m repro.experiments.cli ...`` line in ``docs/*.md`` and in
the CLI's module docstring (``\\`` continuations joined) must parse, and
every subcommand's ``--help`` must format: a help string with a stray
``%`` would crash only ``--help``.
"""

import pathlib
import re
import shlex

import pytest

from repro.experiments import cli

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs"
PREFIX = "python -m repro.experiments.cli "


def invocations():
    texts = [path.read_text() for path in sorted(DOCS.glob("*.md"))] + [cli.__doc__]
    found = []
    for text in texts:
        for line in re.sub(r"\\\n\s*", " ", text).splitlines():
            if PREFIX in line:
                found.append(" ".join(line[line.index(PREFIX) + len(PREFIX) :].split()))
    return found


INVOCATIONS = invocations()


def test_docs_show_every_training_subcommand():
    shown = {shlex.split(command)[0] for command in INVOCATIONS}
    assert {"run", "export", "run-rl", "run-lm", "run-gan", "sweep", "serve"} <= shown


@pytest.mark.parametrize("command", INVOCATIONS)
def test_documented_invocation_parses(command):
    argv = shlex.split(command, comments=True)
    assert cli.build_parser().parse_args(argv).command == argv[0]


def test_every_subcommand_formats_its_help():
    parser = cli.build_parser()
    assert parser.format_help()
    subcommands = parser._subparsers._group_actions[0].choices
    assert set(cli.TRAINING) < set(subcommands)
    for name, subparser in subcommands.items():
        assert subparser.format_help().startswith(f"usage: repro {name}")
