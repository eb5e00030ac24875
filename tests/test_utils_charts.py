"""Tests for the ASCII chart renderer."""

from repro.utils.charts import ascii_chart


class TestAsciiChart:
    def test_contains_markers_and_legend(self):
        chart = ascii_chart({"up": [(0, 0), (1, 1)], "down": [(0, 1), (1, 0)]})
        assert "*" in chart and "o" in chart
        assert "*=up" in chart and "o=down" in chart

    def test_title(self):
        chart = ascii_chart({"s": [(0, 5)]}, title="Figure X")
        assert chart.splitlines()[0] == "Figure X"

    def test_axis_labels(self):
        chart = ascii_chart({"s": [(10, 100), (50, 400)]})
        assert "400.0" in chart
        assert "100.0" in chart
        assert "10" in chart and "50" in chart

    def test_empty(self):
        assert "(no data)" in ascii_chart({})
        assert ascii_chart({}, title="t").startswith("t")

    def test_flat_series_no_crash(self):
        chart = ascii_chart({"flat": [(0, 3), (1, 3), (2, 3)]})
        assert "*" in chart

    def test_dimensions_respected(self):
        chart = ascii_chart({"s": [(0, 0), (1, 1)]}, width=20, height=6)
        body = [l for l in chart.splitlines() if "│" in l or "┤" in l]
        assert len(body) == 6

    def test_monotone_series_renders_monotone(self):
        chart = ascii_chart({"s": [(0, 0), (1, 1), (2, 2)]}, width=30, height=10)
        rows_with_marker = [
            i for i, line in enumerate(chart.splitlines()) if "*" in line
        ]
        cols = []
        for i in rows_with_marker:
            line = chart.splitlines()[i]
            cols.append(line.index("*"))
        # Higher y (earlier rows) at larger x (later columns).
        assert cols == sorted(cols, reverse=True)
