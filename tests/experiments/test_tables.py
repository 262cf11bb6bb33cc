"""Table formatting."""

import pytest

from repro.experiments import format_float, format_table


class TestFormatters:
    def test_format_float(self):
        assert format_float(1.23456) == "1.23"
        assert format_float(1.23456, digits=3) == "1.235"
        assert format_float(None) == "-"


class TestTable:
    def test_alignment_and_headers(self):
        rows = [
            {"method": "dense", "acc": "93.85"},
            {"method": "dst_ee", "acc": "94.13"},
        ]
        text = format_table(rows, ["method", "acc"], headers=["Method", "Acc"])
        lines = text.splitlines()
        assert lines[0].startswith("Method")
        assert "-" in lines[1]
        assert "dst_ee" in lines[3]

    def test_missing_cells_dashed(self):
        text = format_table([{"a": "1"}], ["a", "b"])
        assert "-" in text.splitlines()[-1]

    def test_title(self):
        text = format_table([], ["a"], title="Table I")
        assert text.splitlines()[0] == "Table I"

    def test_header_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table([], ["a", "b"], headers=["only-one"])
