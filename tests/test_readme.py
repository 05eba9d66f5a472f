"""The README's Quickstart block runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def quickstart_block() -> str:
    with open(README) as handle:
        text = handle.read()
    section = text.split("## Quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## Quickstart"
    return match.group(1)


def test_readme_quickstart_runs(capsys):
    exec(compile(quickstart_block(), "README.md#quickstart", "exec"), {})
    out = capsys.readouterr().out
    assert "logical" in out  # the fixed-length query's cost summary
    assert out.count("\n") == 2
