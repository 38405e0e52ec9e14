"""The README's Python examples run as written against the package, its
configuration table documents every config field, and both module lists (the
README's and the package docstring's) name every module."""

import re
import typing
from dataclasses import is_dataclass
from pathlib import Path

import pytest

import afclink
from afclink.config import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(afclink.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def config_table_rows() -> dict:
    """Section -> the keys cell of its row in the README "Configuration" table."""
    table = README.read_text().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `([^`]+)` \| (.*) \|$", table, flags=re.M))


def field_names(cls):
    """The field names of a section, with those of nested sections (a memory's comb)."""
    for name, hint in typing.get_type_hints(cls).items():
        yield name
        kind = next(a for a in (*typing.get_args(hint), hint) if a is not type(None))
        if is_dataclass(kind):
            yield from field_names(kind)


def config_fields() -> list[tuple[str, str]]:
    """(README section, field name) for every field of every section; a
    per-channel map is the section `<name>.<channel>`."""
    out = []
    for section, hint in typing.get_type_hints(ExperimentConfig).items():
        if typing.get_origin(hint) is dict:
            section, hint = f"{section}.<channel>", typing.get_args(hint)[1]
        out += [(section, name) for name in field_names(hint)]
    return out


@pytest.mark.parametrize(
    "section, name", config_fields(), ids=[f"{s}.{n}" for s, n in config_fields()]
)
def test_config_table_documents_every_field(section, name):
    assert f"`{name}`" in config_table_rows()[section]


def readme_module_list() -> set:
    """The modules the README's bullet list of the package names."""
    text = README.read_text().split("The package covers the full chain:\n", 1)[1]
    return set(re.findall(r"^\* `(\w+)`", text.lstrip().split("\n\n", 1)[0], flags=re.M))


@pytest.mark.parametrize(
    "listed",
    [readme_module_list(), set(re.findall(r":mod:`afclink\.(\w+)`", afclink.__doc__))],
    ids=["readme", "package-docstring"],
)
def test_module_lists_name_every_module(listed):
    assert set(MODULES) <= listed, f"missing: {sorted(set(MODULES) - listed)}"
