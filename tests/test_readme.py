"""The README's Python examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:  # later blocks reuse names (inst) from earlier ones
        exec(compile(block, str(README), "exec"), namespace)
    # library + pool: (1 + 3) * (1 + 6) = 28 beats park + pool at 24
    assert namespace["sol"].knapsack == (1, 2)
    assert namespace["sol"].value.score == 28
    assert namespace["verify_reduction"](namespace["red"], True)
