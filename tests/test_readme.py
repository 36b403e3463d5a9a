"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, str(README), "exec"), {})
