"""src/ holds at most a committed number of lines, so the package cannot grow unnoticed.

The ceiling only falls, except for the new outputs that ROADMAP.md item 8 names (items 2-4, 9 and 10);
a change that raises it for one of them says so in CHANGES.md.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oamboost"
SRC_LINE_CEILING = 1800


def test_src_stays_within_its_line_ceiling():
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines()) for path in PACKAGE.glob("*.py")}
    assert "cli.py" in lines and sum(lines.values()) <= SRC_LINE_CEILING, lines
