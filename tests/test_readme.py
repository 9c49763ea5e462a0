"""The README's library example runs as written, so a renamed or deleted name cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block of the README's `## Library` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    exec(compile(library_example(), f"{README.name} (## Library)", "exec"), {})
