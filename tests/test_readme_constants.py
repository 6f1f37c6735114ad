"""Every limit the README states as ``NAME = value`` equals the module constant."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from ghostcheck import jsonio, obstruction

README = Path(__file__).resolve().parents[1] / "README.md"

CONSTANTS = {
    "MAX_LOCAL_M": jsonio.MAX_LOCAL_M,
    "MAX_LOCAL_COORDS": jsonio.MAX_LOCAL_COORDS,
    "MAX_LOCAL_TERMS": jsonio.MAX_LOCAL_TERMS,
    "MAX_MATRIX_ENTRIES": jsonio.MAX_MATRIX_ENTRIES,
    "MAX_HYPERELLIPTIC_GENUS": jsonio.MAX_HYPERELLIPTIC_GENUS,
    "MAX_SUBSET_POINTS": obstruction.MAX_SUBSET_POINTS,
}


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_readme_states_the_module_constant(name):
    stated = re.findall(rf"\b{name} = (\d+)", README.read_text(encoding="utf-8"))
    assert stated, f"README never states {name} = <value>"
    assert {int(value) for value in stated} == {CONSTANTS[name]}, name
