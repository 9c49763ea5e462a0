"""The README's library example runs as written, and every package name it cites resolves, so a renamed or deleted
name cannot leave it stale."""

import importlib
import pkgutil
import re
from pathlib import Path

import oamboost

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block of the README's `## Library` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    exec(compile(library_example(), f"{README.name} (## Library)", "exec"), {})


def test_every_cited_module_name_resolves():
    # a code span outside the fenced blocks that opens with `module.name` (or `oamboost.module.name`) for a module of
    # the package; a span may wrap across lines
    modules = {info.name for info in pkgutil.iter_modules(oamboost.__path__)}
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL))
    cited = {match.groups() for match in (re.match(r"(?:oamboost\.)?(\w+)\.(\w+)", span) for span in spans)
             if match and match[1] in modules}
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"oamboost.{module}"), name)]
    assert cited and not missing
