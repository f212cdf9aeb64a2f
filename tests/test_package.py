"""The package namespace holds what the README's Library section promises."""

import re
import types
from pathlib import Path

import bsnsim
from bsnsim import errors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_namespace_is_the_readme_library_names_and_the_error_family():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"from bsnsim import \(([^)]*)\)", library).group(1)
    example_names = {name.strip() for name in example.split(",") if name.strip()}
    listed_family = set(re.findall(r"`(\w+)`", re.search(r"`BsnsimError` family\s*\(([^)]*)\)", library).group(1)))
    family = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.BsnsimError)}
    assert listed_family == family - {"BsnsimError"}
    public = {name for name, obj in vars(bsnsim).items() if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == example_names | family
