"""Every package name that README.md writes as `module.name` exists.

README names constants and functions of the package (`cli.MAX_ARRAY_BYTES`,
`oracle.dexp_oracle_bytes`, ...) in place of restating them; a rename or a
deletion in the package must update the name there too.
"""

import importlib
import pathlib
import re

import pytest

import dexpseries

PACKAGE = pathlib.Path(dexpseries.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
README = (PACKAGE.parents[1] / "README.md").read_text()
# `dexpseries.module`, `dexpseries.module.name` or `module.name` with module in the package
NAMES = sorted({name for name in (found.removeprefix("dexpseries.") for found in
                                  re.findall(r"`((?:dexpseries\.)?\w+\.\w+)`", README))
                if name.split(".")[0] in MODULES})


def test_readme_names_some_package_code():
    assert {"cli.MAX_ARRAY_BYTES", "polyjet.CHUNK_BYTES", "oracle.BLOCK_STEPS"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_readme_code_name_resolves(name):
    module, _, attr = name.partition(".")
    found = importlib.import_module(f"dexpseries.{module}")
    assert not attr or hasattr(found, attr), f"README names {name}, which does not exist"
