import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_what_its_comments_state(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "VIOLATED"
    assert lines[1] == "True"
    assert lines[3].startswith("diverged 76.45")
    assert lines[4] == "converged True"
