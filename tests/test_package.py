"""The package namespace holds what the README's Library section promises, its example runs,
every submodule name the README gives exists, its flag table is the CLI parser's, and the
version has one home, `bsnsim.__version__`."""

import argparse
import functools
import importlib
import pkgutil
import re
import types
from pathlib import Path

import bsnsim
from bsnsim import errors
from bsnsim.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _library() -> str:
    return README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]


def test_namespace_is_the_readme_library_names_and_the_error_family():
    library = _library()
    example = re.search(r"from bsnsim import \(([^)]*)\)", library).group(1)
    example_names = {name.strip() for name in example.split(",") if name.strip()}
    listed_family = set(re.findall(r"`(\w+)`", re.search(r"`BsnsimError` family\s*\(([^)]*)\)", library).group(1)))
    family = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.BsnsimError)}
    assert listed_family == family - {"BsnsimError"}
    public = {name for name, obj in vars(bsnsim).items() if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == example_names | family


def test_the_readme_library_example_runs(capsys):
    example = re.search(r"```python\n(.*?)```", _library(), re.S).group(1)
    exec(compile(example, str(README), "exec"), {})
    assert re.fullmatch(r"\d+\.\d\d% ± \d+\.\d\d%\n", capsys.readouterr().out)


def test_every_readme_submodule_name_resolves():
    # `rf.Reception.bind` and `bsnsim.frames._pack` alike: a submodule, then an attribute chain
    submodules = {module.name for module in pkgutil.iter_modules(bsnsim.__path__)}
    found = re.findall(r"`(?:bsnsim\.)?(\w+)\.([\w.]*\w)", README.read_text(encoding="utf-8"))
    refs = {(module, chain) for module, chain in found if module in submodules}
    assert refs
    missing = []
    for module, chain in sorted(refs):
        try:
            functools.reduce(getattr, chain.split("."), importlib.import_module(f"bsnsim.{module}"))
        except AttributeError:
            missing.append(f"{module}.{chain}")
    assert missing == []


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    [subparsers] = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices


def test_readme_flag_table_is_each_run_experiments_options():
    readme = README.read_text(encoding="utf-8")
    table = re.search(r"\| experiment \| flags \|\n\| --- \| --- \|\n((?:\|.*\|\n)+)", readme)
    rows = {}
    for row in table.group(1).splitlines():
        experiment, flags = re.fullmatch(r"\| `([\w-]+)` \| (.*) \|", row).groups()
        rows[experiment] = sorted(re.findall(r"`(--[\w-]+)`", flags))
    parsed = {experiment: sorted(option for action in parser._actions if not isinstance(action, argparse._HelpAction)
                                 for option in action.option_strings)
              for experiment, parser in _subcommands(_subcommands(build_parser())["run"]).items()}
    assert rows == parsed


def test_the_version_lives_only_in_the_package():
    # a regex, not tomllib (Python 3.11+): the [project] table names no literal version, and reads it from bsnsim
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.S | re.M).group(1)
    assert not re.search(r"^version\s*=", project, re.M)
    assert re.search(r'^dynamic\s*=\s*\[[^]]*"version"', project, re.M)
    assert re.search(r'^\[tool\.setuptools\.dynamic\]\nversion\s*=\s*\{\s*attr\s*=\s*"bsnsim\.__version__"\s*\}$',
                     text, re.M)
    assert re.fullmatch(r"\d+\.\d+\.\d+", bsnsim.__version__)
