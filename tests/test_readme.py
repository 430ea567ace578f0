"""The README's command-line block against the argument parser, its config
example and its key lists against the loader, its layout table against the
package, its CSV header and summary keys against a run, and the package exports against
`__all__`."""

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

import gaussrde
from gaussrde import load_config
from gaussrde.cli import _build_parser, main
from gaussrde.experiments import _KIND_KEYS, build_model

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


def test_readme_config_example_loads(tmp_path):
    section = README.read_text().split("## Config format", 1)[1]
    block = section.split("```ini", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.ini"
    path.write_text(block)
    cfg = load_config(str(path))
    # fbm(0.4): rho = 1 / (2 hurst)
    assert (cfg.kernel, build_model(cfg).rho, cfg.n, cfg.d) == ("fbm", 1.25, 65, 2)
    assert (cfg.family, cfg.e, cfg.times) == ("rotation", 2, (0.5, 1.0))


def own_keys(section: str) -> dict:
    """Kernel or family -> the set of its own keys, in the loader's grammar."""
    return {name: set(keys.split()) for name, keys in _KIND_KEYS[section][1].items()}


def test_readme_family_keys_match_the_grammar():
    section = README.read_text().split("Family-specific keys:", 1)[1].split("\n\n", 2)[1]
    bullets = re.findall(r"^\* `(\w+)`:(.*?)(?=^\* |\Z)", section, re.M | re.S)
    documented = {family: set(re.findall(r"`([a-z_]+)`", text)) for family, text in bullets}
    assert documented == own_keys("fields")


def test_readme_kernel_keys_match_the_grammar():
    section = README.read_text().split("## Config format", 1)[1]
    block = section.split("```ini", 1)[1].split("```", 1)[0]
    documented = {}
    for key, kernel in re.findall(r"^#? *(\w+) =.*# (\w+) only", block, re.M):
        documented.setdefault(kernel, set()).add(key)
    assert documented == {kernel: keys for kernel, keys in own_keys("model").items() if keys}


def layout_rows() -> dict:
    """Module -> backticked names of its "Layout" table row."""
    section = README.read_text().split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `gaussrde\.(\w+)` \| (.*) \|$", section, re.M)
    return {module: re.findall(r"`([^`]+)`", text) for module, text in rows}


def resolves(module, dotted: str) -> bool:
    """Attribute path from `module`; a path may start at a sibling module of
    the package, and a dataclass field ends it."""
    obj, parts = module, dotted.split(".")
    if not hasattr(module, parts[0]) and importlib.util.find_spec(f"gaussrde.{parts[0]}"):
        obj, parts = importlib.import_module(f"gaussrde.{parts[0]}"), parts[1:]
    for i, part in enumerate(parts):
        if dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            return i == len(parts) - 1
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_layout_names_resolve():
    rows = layout_rows()
    package = Path(gaussrde.__file__).parent
    assert sorted(rows) == sorted(m.name for m in pkgutil.iter_modules([str(package)]))
    for module, names in rows.items():
        mod = importlib.import_module(f"gaussrde.{module}")
        for name in names:
            # call parentheses go; wildcards (foo_*) and shapes ((K, n, d)) are no names
            name = re.sub(r"\(.*\)$", "", name)
            if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", name):
                assert resolves(mod, name), f"{module}: {name}"


def test_readme_constants_resolve():
    # every backticked ALL-CAPS name (two or more characters: `M` and `Y` are
    # symbols) is a constant of some gaussrde module, so a deleted one cannot
    # linger in the prose
    package = Path(gaussrde.__file__).parent
    modules = [importlib.import_module(f"gaussrde.{m.name}")
               for m in pkgutil.iter_modules([str(package)])]
    names = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", README.read_text()))
    assert names and sorted(n for n in names if not any(hasattr(m, n) for m in modules)) == []


def test_package_exports_match_all():
    # every listed name resolves and every public attribute but a submodule
    # is listed, so an export deleted from one list cannot linger in the other
    listed = gaussrde.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(gaussrde, name)] == []
    public = {name for name, obj in vars(gaussrde).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert sorted(public - set(listed)) == []


def test_exports_are_grouped_by_their_module():
    # each "# module" comment in __all__ heads the names that module defines
    source = Path(gaussrde.__file__).read_text().split("__all__ = [", 1)[1]
    groups = re.split(r"^\s*# (\w+)$", source, flags=re.M)[1:]
    for module, names in zip(groups[::2], groups[1::2]):
        for name in re.findall(r'"(\w+)"', names):
            assert getattr(gaussrde, name).__module__ == f"gaussrde.{module}", name


RUN_CONFIG = """
[model]
kernel = brownian
n = 9
d = 1

[fields]
{fields}

[experiment]
count = {count}
reference = {reference}
"""


@pytest.mark.parametrize("e, fields", [
    (1, "family = linear\ne = 1\ny0 = 1.0\nmatrices = 1.0"),
    (2, "family = rotation\ne = 2\ny0 = 1.0 0.0"),
])
def test_readme_csv_header_is_what_run_writes(tmp_path, e, fields):
    section = README.read_text().split("## Artifacts", 1)[1]
    header = section.split("```", 2)[1].strip()
    expanded = header.replace("y_1..y_e", ",".join(f"y_{a + 1}" for a in range(e)))
    config = tmp_path / "run.ini"
    config.write_text(RUN_CONFIG.format(fields=fields, count=2, reference="none"))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    written = (tmp_path / "out" / "samples.csv").read_text().splitlines()[0]
    assert written == expanded


def key_tree(value):
    """Nested dicts as {key: subtree}; any other value is None."""
    return {k: key_tree(v) for k, v in value.items()} if isinstance(value, dict) else None


@pytest.mark.parametrize("fields, reference", [
    ("family = linear\ne = 1\ny0 = 1.0\nmatrices = 1.0", "lognormal 0 1"),
    ("family = rotation\ne = 2\ny0 = 1.0 0.0", "none"),
], ids=["e1-with-reference", "e2-without"])
def test_readme_summary_keys_are_what_run_writes(tmp_path, fields, reference):
    section = README.read_text().split("## Artifacts", 1)[1]
    documented = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    config = tmp_path / "run.ini"
    config.write_text(RUN_CONFIG.format(fields=fields, count=100, reference=reference))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    written = json.loads((tmp_path / "out" / "summary.json").read_text())
    # the config's sections and keys are the file's own
    assert sorted(written.pop("config")) == ["experiment", "fields", "model"]
    del documented["config"]
    expected = key_tree(documented)
    if reference == "none":
        expected["reference"] = None
    assert key_tree(written) == expected
