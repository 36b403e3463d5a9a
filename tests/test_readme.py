"""README's library example runs as written; docs/symbol_schema.md lists
every check with its parameters."""

import inspect
import re
from pathlib import Path

from onewave.scenario import CHECKS

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_example_runs():
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, str(README), "exec"), {})


def test_check_table_lists_every_check_and_parameter():
    rows = {line.split("|")[1].strip(" `"): line for line in
            (ROOT / "docs" / "symbol_schema.md").read_text().splitlines()
            if line.startswith("| `")}
    assert sorted(rows) == sorted(CHECKS)
    for name, (run, _) in CHECKS.items():
        params = list(inspect.signature(run).parameters)[1:]     # after ctx
        assert all(f"`{p}`" in rows[name] for p in params), name
