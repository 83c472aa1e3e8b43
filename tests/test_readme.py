"""README's "Library use" block runs against the current API, and its
counter table names real counters."""

import dataclasses
import re
from pathlib import Path

import sensconn

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def counter_column() -> list[str]:
    """The counter cell of each row of README's claim/counter table."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| claim | counter |"):].split("\n\n", 1)[0]
    return [row.rsplit("|", 2)[1] for row in table.splitlines()[2:]]


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


def test_counter_table_names_real_fields():
    named = [m.groups() for cell in counter_column() for m in re.finditer(r"`([A-Z]\w*)\.(\w+)`", cell)]
    assert {c for c, _ in named} >= {"DecrementalOracle", "IncrementalIndex", "SuperGraph"}
    for cls_name, attr in named:
        assert cls_name in sensconn.__all__, f"{cls_name} is not exported by sensconn"
        cls = getattr(sensconn, cls_name)
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        is_class_attr = any(attr in vars(k) for k in cls.__mro__) and not callable(getattr(cls, attr))
        assert attr in fields or is_class_attr, f"{cls_name}.{attr} is neither a field nor a class attribute"
