"""The README's Python examples run, and give the values their comments state."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


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
