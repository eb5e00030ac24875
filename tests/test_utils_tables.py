"""Tests for repro.utils.tables."""

from repro.utils.tables import format_table


class TestFormatTable:
    def test_basic_rendering(self):
        text = format_table([{"a": 1, "b": "x"}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert lines[2].split() == ["1", "x"]

    def test_title(self):
        text = format_table([{"a": 1}], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_precision(self):
        text = format_table([{"v": 1.23456}], precision=2)
        assert "1.23" in text
        assert "1.2346" not in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_empty_rows_with_title(self):
        text = format_table([], title="t")
        assert text.startswith("t")

    def test_missing_cells_render_empty(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "2" in text

    def test_explicit_column_order(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b", "a"])
        header = text.splitlines()[0].split()
        assert header == ["b", "a"]

    def test_column_alignment(self):
        text = format_table([{"name": "x", "v": 1}, {"name": "longer", "v": 22}])
        lines = text.splitlines()
        # Header, separator, and both data rows share the "v" column offset.
        offset = lines[0].index("v")
        assert lines[2][:offset].rstrip() == "x"
        assert lines[3][:offset].rstrip() == "longer"

    def test_bool_rendering(self):
        assert "True" in format_table([{"flag": True}])
