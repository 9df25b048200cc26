"""Every public name resolves: each module's ``__all__``, and every
``sl.<name>`` the benchmark round ``perfbench/round.py`` reads off the
package (the round itself is not imported by the test suite)."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import speclocaliser

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(speclocaliser.__path__) if not m.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module("speclocaliser." + name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_benchmark_round_names_exist():
    names = set(re.findall(r"\bsl\.(\w+)", (ROOT / "perfbench" / "round.py").read_text()))
    assert "pairing_even" in names  # the pattern reads the round's calls
    assert sorted(n for n in names if not hasattr(speclocaliser, n)) == []
