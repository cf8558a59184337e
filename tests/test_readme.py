"""The README's library example, run as it is written there."""
from __future__ import annotations

import contextlib
import io
import math
import re
from pathlib import Path

from tauc.simulation import cost_delta

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The ```python block that opens the README's "## Library use" section."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    match = re.match(r"\s*```python\n(.*?\n)```\n", section, re.S)
    assert match, 'no python block opens the "Library use" section'
    return match.group(1)


def test_the_readme_library_example_prints_costs_that_agree_with_cost_delta():
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), namespace)
    c_ch, c_ta, delta = (float(word) for word in out.getvalue().splitlines()[0].split())
    assert all(math.isfinite(value) for value in (c_ch, c_ta, delta))
    assert delta == cost_delta(c_ch, c_ta)
    report = namespace["report"]
    assert (report.c_ch, report.c_ta, report.delta_pct) == (c_ch, c_ta, delta)
