"""The table layout of ``rpickle.seeding``, which every CSV artifact is written and read through."""

import pytest

from rpickle.errors import ConfigError
from rpickle.seeding import read_table, write_table


def test_table_layout_and_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, {"n_xi": 2, "config_hash": "abc"}, ["cell", "value"], [[0, "1.5"], [1, ""]])
    assert path.read_text() == "# n_xi=2\n# config_hash=abc\ncell,value\n0,1.5\n1,\n"
    comments, header, rows = read_table(path)
    assert list(comments.items()) == [("n_xi", "2"), ("config_hash", "abc")]
    assert header == ["cell", "value"] and rows == [["0", "1.5"], ["1", ""]]


@pytest.mark.parametrize(
    "text, reason",
    [(None, "not found"), ("", "no header"), ("# a=1\n\n", "no header"), ("dir", "Is a directory")],
    ids=["missing", "empty", "comment-only", "directory"],
)
def test_unreadable_table_named(tmp_path, text, reason):
    path = tmp_path / "t.csv"
    if text == "dir":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=reason) as info:
        read_table(path)
    assert str(path) in str(info.value)
