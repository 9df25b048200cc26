"""Every public name resolves: each module's ``__all__``, every
``sl.<name>`` the benchmark round ``perfbench/round.py`` reads off the
package (the round itself is not imported by the test suite), and the
README's "Quick start" block, run as written."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
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


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
