"""README's "Library use" block runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, pushed):
    # vertices 2 and 7 inactive; 0, 3 and 4 active. Activating 2 joins 0 to
    # the component {3, 4}, which 7 touches too.
    (tmp_path / "g.txt").write_text("8 5\n0 2\n2 4\n3 4\n4 7\n5 6\nOFF 2\n2 7\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(library_use_block(), str(README), "exec"), scope)
    assert scope["sg"].comp == {2: 0, 7: 0}
    # the base, then the members of 2, of 7 and of the pair {2, 7}
    assert pushed[0] is scope["s"].base and scope["a"].pushes == len(pushed) == 4
    assert scope["s"].base.deleted == frozenset()  # the deactivation of 3 was rolled back
    assert scope["s"].session is None
