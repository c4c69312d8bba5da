"""The README's Python quick start, run as written (about 5 s: it trains
a 100-tree forest on 10,000 synthetic examples)."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    threshold, score = (float(line) for line in capsys.readouterr().out.split())
    assert 0.0 <= threshold <= 1.0 and 0.0 <= score <= 1.0
