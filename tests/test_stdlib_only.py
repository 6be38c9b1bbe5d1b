"""What importing evfuse loads: nothing outside the standard library,
and none of the heavy standard modules that evfuse does not use."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Run isolated (-I: no PYTHONPATH, no user site).  ``site`` may still
# preload third-party modules before any evfuse code runs, so the
# snapshot of ``sys.modules`` comes first.
PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import evfuse, evfuse.cli
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def newly_loaded() -> set[str]:
    run = subprocess.run([sys.executable, "-I", "-c", PROBE, str(SRC)],
                         capture_output=True, encoding="utf-8", check=True)
    return set(run.stdout.split())


def test_runtime_imports_only_the_standard_library():
    loaded = newly_loaded()
    assert "evfuse" in loaded
    assert {name for name in loaded - {"evfuse"}
            if name not in sys.stdlib_module_names} == set()


def test_import_leaves_out_the_heavy_standard_modules():
    # dataclasses pulls in inspect, which pulls in ast, dis and tokenize:
    # about two fifths of the import time on CPython 3.11
    assert newly_loaded() & {"dataclasses", "inspect", "ast", "dis", "typing"} == set()
