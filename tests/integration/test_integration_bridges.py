"""Reports rendering end to end: a registered experiment's report as
markdown, with table cells escaped."""

from repro.experiments import run_experiment


class TestReportRendering:
    def test_markdown_rendering(self):
        report = run_experiment("E1")
        md = report.to_markdown()
        assert md.startswith("## E1")
        assert "| state |" in md or "| state" in md
        assert "- [x]" in md

    def test_markdown_escapes_pipes(self):
        from repro.experiments.base import ExperimentReport

        report = ExperimentReport("EX", "t", "c", ["col"],
                                  rows=[["a|b"]], checks={"ok": True})
        assert "a\\|b" in report.to_markdown()
