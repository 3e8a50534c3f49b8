"""Tests for the experiment tables and the report's experiment declarations."""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis import report
from repro.analysis.report import experiment_e9
from repro.analysis.sweeps import ExperimentTable, SweepSpec

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


class TestExperimentTable:
    def test_markdown_shape(self):
        table = ExperimentTable(name="t", description="desc")
        table.add(n=10, rounds=3.14159)
        table.notes.append("a note")
        md = table.to_markdown()
        assert "### t" in md
        assert "| n | rounds |" in md
        assert "3.14" in md
        assert "*a note*" in md

    def test_empty_table(self):
        md = ExperimentTable(name="empty", description="d").to_markdown()
        assert "(no rows)" in md

    def test_mixed_types_render(self):
        table = ExperimentTable(name="t", description="d")
        table.add(a="text", b=2, c=1.5)
        md = table.to_markdown()
        assert "text" in md and "| 2 |" in md

    def test_missing_key_blank(self):
        table = ExperimentTable(name="t", description="d")
        table.add(a=1, b=2)
        table.add(a=3)  # b missing in second row
        md = table.to_markdown()
        assert md.count("|  |") >= 1


class _Captured(Exception):
    pass


class _InlineBenchmark:
    """The slice of pytest-benchmark's fixture the E1 bench uses."""

    def __init__(self):
        self.extra_info = {}

    def pedantic(self, fn, args=(), iterations=1, rounds=1):
        return fn(*args)


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDeclarations:
    def test_e1_renders_one_row_per_n_and_the_exponent_note(self):
        table = report.e1_table(report.sweep_rows(report.e1_spec(4, [24, 32])))
        assert [row["n"] for row in table.rows] == [24, 32]
        assert all(row["rounds"] > 0 for row in table.rows)
        assert table.name == "E1 p=4 (generic)"
        assert len(table.notes) == 1 and "fitted exponent" in table.notes[0]

    def test_e3_rows_carry_m_learn_rounds_and_the_general_comparator(self):
        table = report.e3_table(report.sweep_rows(*report.e3_specs(3, n=32)))
        assert table.rows
        for row in table.rows:
            assert row["m"] > 0
            assert 0 < row["learn_rounds"] <= row["rounds"]
            assert row["general_measured"] > 0
        edges = [row["m"] for row in table.rows]
        assert edges == sorted(edges)

    def test_e4_joins_every_model_per_n(self):
        table = report.e4_table(report.sweep_rows(*report.e4_specs([20])))
        (row,) = table.rows
        assert row["n"] == 20
        for column in ("ours_k4", "eden_k4", "broadcast_orientation"):
            assert row[column] > 0, column
        assert row["broadcast_neighborhood"] > 0

    def test_report_e1_cells_are_the_bench_cells(self, monkeypatch):
        """The report and bench_congest_listing.py run the same E1 cells:
        one seed convention, one cache entry per cell."""
        bench = _load_bench("bench_congest_listing")
        expand = SweepSpec.runs
        captured = []

        def capture(spec):
            captured.extend(expand(spec))
            raise _Captured

        monkeypatch.setattr(SweepSpec, "runs", capture)
        sizes = [48, 72, 96]
        for p in report.E1_PS:
            with pytest.raises(_Captured):
                bench.test_congest_rounds_vs_n(_InlineBenchmark(), sizes, p)
        monkeypatch.undo()
        expected = [c for p in report.E1_PS for c in report.e1_spec(p, sizes).runs()]
        assert [c.cache_key() for c in captured] == [c.cache_key() for c in expected]
        assert {c.seed for c in captured} == {0}


class TestReportPieces:
    def test_e9_ladder_monotone(self):
        table = experiment_e9()
        gaps = [row["gap"] for row in table.rows]
        assert gaps == sorted(gaps, reverse=True)
        assert len(table.rows) == 7
