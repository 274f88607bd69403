"""README.md's python blocks run in order, in one namespace: an example that calls a removed name
or argument fails here. CI also runs this file from outside the checkout, on the installed package."""
import re
from pathlib import Path

from edgeprice.scenario import DEFAULT_CONFIG, parse_config

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md holds no python block"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(_README), "exec"), namespace)
    assert "invalid scenario: mu=2.0" in capsys.readouterr().out  # the gate example's printed refusal


def test_readme_scenario_file_is_the_defaults_and_the_box_corner_purchase():
    # a default changed in the code or in README.md alone fails here; keys in order
    text = _README.read_text(encoding="utf-8")
    block = re.search(r"^### Scenario files\n.*?^```\n(.*?)^```", text, re.M | re.S).group(1)
    expected = {**DEFAULT_CONFIG, "f_server_ghz": 6.0, "b_mbps": 1.0}
    assert list(parse_config(block).items()) == list(expected.items())
