"""What importing evfuse loads: nothing outside the standard library,
and none of the heavy standard modules that evfuse does not use."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Run isolated (-I: no PYTHONPATH, no user site).  ``site`` may still
# preload third-party modules before any evfuse code runs, so the
# snapshot of ``sys.modules`` comes first; then it runs the import line.
PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
exec(sys.argv[2])
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def newly_loaded(imports: str = "import evfuse, evfuse.cli") -> set[str]:
    run = subprocess.run([sys.executable, "-I", "-c", PROBE, str(SRC), imports],
                         capture_output=True, encoding="utf-8", check=True)
    return set(run.stdout.split())


def test_runtime_imports_only_the_standard_library():
    loaded = newly_loaded()
    assert "evfuse" in loaded
    assert {name for name in loaded - {"evfuse"}
            if name not in sys.stdlib_module_names} == set()


# dataclasses pulls in inspect, which pulls in ast, dis and tokenize:
# about two fifths of the import time on CPython 3.11.  Only the command
# line needs argparse (with gettext) and json, each about as slow to
# import as all of evfuse's own modules, so the library leaves them out.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "typing"}


@pytest.mark.parametrize("imports, heavy", [
    ("import evfuse", HEAVY | {"argparse", "json"}),
    ("import evfuse, evfuse.cli", HEAVY),
], ids=["evfuse", "evfuse.cli"])
def test_import_leaves_out_the_heavy_standard_modules(imports, heavy):
    loaded = newly_loaded(imports)
    assert "evfuse" in loaded
    assert loaded & heavy == set()
