"""The README's examples run as written and print what they say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import evfuse
from evfuse.cli import main

from support import REACH

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
QUICK_START = [body for lang, body in BLOCKS if lang == "python"]
COMMANDS = [line for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("evfuse ")]

_MASSES = re.compile(r"\{([^{}]*)\}")


def _masses(text: str) -> dict[str, str]:
    # "{A: 0.38, A|C: 0.02}" -> {"A": "0.38", "A|C": "0.02"}
    pairs = (item.rsplit(":", 1) for item in _MASSES.search(text).group(1).split(","))
    return {key.strip(): value.strip() for key, value in pairs}


def test_readme_has_its_examples():
    assert len(QUICK_START) == 1
    assert COMMANDS


def test_quick_start_prints_the_commented_masses():
    code = QUICK_START[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.split("#", 1)[1] for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    assert len(printed) == len(comments) >= 2
    expected = None
    for line, comment in zip(printed, comments):
        if "{" in comment:
            expected = _masses(comment)
        else:
            assert comment.strip().startswith("same values")
        got = _masses(line)
        assert got.keys() == expected.keys(), line
        for key, shown in expected.items():
            digits = len(shown.partition(".")[2])
            assert f"{float(got[key]):.{digits}f}" == shown, (line, key)


@pytest.mark.parametrize("command", COMMANDS)
def test_shell_examples_exit_zero(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out


def test_reach_table_matches_the_pins():
    # the reach table under "Known limits", read row by row past its separator
    body = README.partition("| atoms | focal sets | exclusive | free | ring |\n")[2]
    kinds = ("exclusive", "free", "ring")
    table = {}
    for line in body.splitlines()[1:]:
        if not line.startswith("|"):
            break
        atoms, focal, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        table.update({(int(atoms), kind, int(focal)): cell for kind, cell in zip(kinds, cells)})
    assert table == {cell: "reached 400" if k is None else f"refused at {k}"
                     for cell, k in REACH.items()}


def test_public_surface_matches_the_exports():
    # the "Public surface" paragraph under "Package layout": its count and its names
    found = re.search(r"^Public surface: the package exports (\d+) names, (.*?)\.", README,
                      re.M | re.S)
    names = re.findall(r"`(\w+)`", found.group(2))
    assert int(found.group(1)) == len(names)
    assert names == evfuse.__all__


def _gates(text: str) -> set[tuple]:
    # the gates a shell text runs, read as plain text: the benchmark self-test,
    # ("run.py", workload, flags) per looped workload, and ("golden", hash seed,
    # test id) per looped seed and test id
    text = re.sub(r"\\\n\s*", " ", text)
    selftest = re.search(r"^\s*(run: )?python3 perfbench/selftest\.py\b", text, re.M)
    gates = {("selftest",)} if selftest else set()
    loops = re.findall(r"\bfor (\w+) in ([^;\n]+); do[^\n]*\n(.*?)^\s*done\b", text, re.M | re.S)
    for var, values, body in loops:
        run = re.search(rf'perfbench/run\.py --workload "?\${var}"? (--seed \S+ --seconds \S+)',
                        body)
        if run:
            gates |= {("run.py", value, run.group(1)) for value in values.split()}
        golden = re.search(rf"PYTHONHASHSEED=\${var} .*?pytest -q (.*)", body)
        if golden:
            gates |= {("golden", value, test) for value in values.split()
                      for test in golden.group(1).split()}
    return gates


def _profile_runs(text: str) -> set[tuple]:
    # (Hypothesis profile, test file) per pytest run a shell text names a profile for
    return set(re.findall(r"pytest -q --hypothesis-profile=(\S+) (tests/\S+)", text))


def test_readme_gate_list_matches_ci():
    # the sh block after "CI runs these gates besides the suite" names the
    # workflow's benchmark, golden and larger-profile gates, no more and no fewer
    block = re.search(r"CI runs these gates besides the suite.*?^```sh\n(.*?)^```$", README,
                      re.M | re.S).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    readme = _gates(block)
    assert readme == _gates(workflow)
    assert sorted(gate[0] for gate in readme) == ["golden"] * 4 + ["run.py"] * 3 + ["selftest"]
    assert {gate[1:] for gate in readme if gate[0] == "run.py"} == {
        (workload, "--seed 1 --seconds 1") for workload in ("stream", "wide_batch", "verify")}
    assert {gate[1] for gate in readme if gate[0] == "golden"} == {"0", "1"}
    assert _profile_runs(block) == _profile_runs(workflow) == {
        ("machine-large", "tests/test_machine.py")}
