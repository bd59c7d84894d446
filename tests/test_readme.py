"""The README's Python examples run, and give the values their comments state;
its command-line examples print what they show."""

import re
import shlex
from pathlib import Path

import pytest

from spacelike import cli

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:e[-+]?\d+)?)")


def test_readme_python_blocks_state_true_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    ns: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)

    assert ns["lab"].ordering == ("A", "B")
    assert ns["moving"].ordering == ("B", "A")
    assert ns["lab"].probabilities[(("A", "+"), ("B", "+"))] == pytest.approx(0.125, abs=1e-12)
    assert ns["report"].ok
    assert ns["report"].worst < 1e-9
    assert (ns["report"].worst, ns["report"].method) == (0.0, "pairwise")
    assert ns["rep"].ok
    assert ns["rep"].worst < 1e-9
    # The last block rebinds s to its one-station scenario.
    probabilities = ns["evaluate_in_order"](ns["s"], ["M"]).probabilities
    assert probabilities == pytest.approx({(("M", "up"),): 0.5, (("M", "down"),): 0.5}, abs=1e-12)


def test_readme_cli_examples_print_what_they_show(capsys):
    text = "".join(re.findall(r"^```text\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S))
    examples = re.findall(r"^\$ spacelike (.*)\n((?:(?!\$ ).*\n)*)", text, re.M)
    assert len(examples) == 3
    for command, shown in examples:
        cli.main(shlex.split(command))
        printed = capsys.readouterr().out.splitlines()
        shown = shown.rstrip("\n").splitlines()
        # A line that starts with "..." ends the comparison; without one, every line is shown.
        cut = next((i for i, line in enumerate(shown) if line.startswith("...")), None)
        assert len(printed[:cut]) == len(shown[:cut]), (command, printed)
        for want, got in zip(shown[:cut], printed):
            want, got = NUMBER.split(want), NUMBER.split(got)
            assert want[::2] == got[::2], (command, got)
            assert all(abs(float(a) - float(b)) <= 1e-12 for a, b in zip(want[1::2], got[1::2])), (command, got)
