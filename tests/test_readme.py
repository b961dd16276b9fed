"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["ev"].holds
    assert namespace["report"].violated == 0
    assert "variant,checked,held,violated,min_slack,min_rel_slack\n" in capsys.readouterr().out
