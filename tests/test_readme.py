"""The README's library example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["bounds"].normalized.shape == (4,)
    assert namespace["series"].j.shape == (2, 4, 4)
    assert capsys.readouterr().out.strip()
