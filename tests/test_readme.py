"""README.md's python blocks run in order, in one namespace: an example that calls a removed name
or argument fails here. CI also runs this file from outside the checkout, on the installed package."""
import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md holds no python block"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(_README), "exec"), namespace)
    assert "invalid scenario: mu=2.0" in capsys.readouterr().out  # the gate example's printed refusal
