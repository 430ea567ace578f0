"""The README's command-line block against the argument parser."""

import argparse
import re
from pathlib import Path

from gaussrde.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_usage() -> dict:
    """Subcommand -> {flag: optional?} from the "Command line" code block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    usage = {}
    for line in block.strip().splitlines():
        prog, name, rest = line.split(None, 2)
        assert prog == "gaussrde"
        optional = set(re.findall(r"\[(--[\w-]+)[^\]]*\]", rest))
        flags = re.findall(r"--[\w-]+", rest)
        usage[name] = {flag: flag in optional for flag in flags}
    return usage


def parser_usage() -> dict:
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt: not action.required
                   for action in p._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, p in sub.choices.items()}


def test_readme_command_line_matches_the_parser():
    documented, actual = readme_usage(), parser_usage()
    assert sorted(documented) == sorted(actual)
    for name, flags in actual.items():
        # every flag, in brackets if and only if it is optional
        assert documented[name] == flags, name
