"""The carcs command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def fast_repo(monkeypatch):
    """Share one seeded repository across CLI invocations in this module
    (seeding takes ~2s; the CLI reseeds per call by default)."""
    from repro.corpus.seed import seed_all

    cached = seed_all()
    monkeypatch.setattr("repro.cli.seed_all", lambda: cached)
    return cached


class TestStats:
    def test_stats_lists_collections_and_ontologies(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "itcs3145" in out
        assert "ontology CS13" in out


class TestCoverage:
    def test_area_table(self, capsys):
        assert main(
            ["coverage", "--collection", "itcs3145", "--ontology", "PDC12"]
        ) == 0
        out = capsys.readouterr().out
        assert "Programming" in out and "16" in out

    def test_tree_rendering(self, capsys):
        assert main(
            ["coverage", "--collection", "peachy", "--ontology", "PDC12",
             "--tree", "--depth", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "PDC12  (11 materials)" in out


class TestSimilarity:
    def test_figure3_numbers(self, capsys):
        assert main(["similarity", "--threshold", "2"]) == 0
        out = capsys.readouterr().out
        assert "edges=24" in out
        assert "isolated nifty: 59" in out


class TestSearch:
    def test_hit(self, capsys):
        assert main(["search", "hurricane storm", "--limit", "3"]) == 0
        assert "Hurricane Tracker" in capsys.readouterr().out

    def test_miss_returns_nonzero(self, capsys):
        assert main(["search", "xylophone zebra", "--limit", "3"]) == 1

    def test_negative_limit_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--limit", "-1", "parallel"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--limit: must be >= 0, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["recommend", "parallel sorting", "--top", "-3"],
        ["profile", "--top", "-1"],
        ["explain", "materials", "--order", "year", "--limit", "-1"],
        ["explain", "materials", "--offset", "-2"],
        ["jobs", "unused-dir", "--limit", "-1"],
    ], ids=["recommend-top", "profile-top", "explain-limit",
            "explain-offset", "jobs-limit"])
    def test_every_negative_size_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "must be >= 0, got -" in captured.err
        assert captured.out == ""

    def test_zero_limit_is_accepted(self, capsys):
        assert main(["search", "parallel", "--limit", "0"]) == 1
        assert capsys.readouterr().out == "no results\n"

    def test_subtree_filter(self, capsys):
        assert main(
            ["search", "", "--under", "PDC12/PROG", "--collection", "peachy"]
        ) == 0
        out = capsys.readouterr().out
        assert "peachy" in out and "nifty" not in out


class TestGaps:
    def test_gap_report(self, capsys):
        assert main(["gaps"]) == 0
        out = capsys.readouterr().out
        assert "Alignment of 'peachy' with 'nifty'" in out


class TestRecommend:
    def test_suggestions(self, capsys):
        assert main(
            ["recommend", "parallel loops over an image with OpenMP pragmas"]
        ) == 0
        out = capsys.readouterr().out
        assert "PDC12/" in out or "CS13/" in out

    def test_empty_repository_has_no_suggestions(self, monkeypatch, capsys):
        from repro.core.repository import Repository
        from repro.corpus.seed import seed_ontologies

        def empty():
            repo = Repository()
            seed_ontologies(repo)
            return repo

        monkeypatch.setattr("repro.cli.seed_all", empty)
        assert main(["recommend", "parallel loops over an image"]) == 1
        assert capsys.readouterr().out == "no suggestions\n"


class TestPlan:
    def test_core_plan(self, capsys):
        assert main(["plan", "--ontology", "PDC12", "--tier", "core",
                     "--max-materials", "4"]) == 0
        out = capsys.readouterr().out
        assert "Course plan over PDC12" in out


class TestDiff:
    def test_edition_diff(self, capsys):
        assert main(["diff", "PDC12", "PDC19"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out


class TestProfile:
    def test_profile_all_collections(self, capsys):
        assert main(["profile", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "nifty: 65 materials" in out
        assert "entries/material" in out
        assert "hottest entries:" in out

    def test_profile_specific_collection(self, capsys):
        assert main(["profile", "--collections", "itcs3145"]) == 0
        out = capsys.readouterr().out
        assert "itcs3145: 21 materials" in out
        assert "nifty:" not in out


class TestReport:
    def test_html_report_written(self, capsys, tmp_path):
        path = tmp_path / "report.html"
        assert main(["report", str(path)]) == 0
        assert path.read_text().startswith("<!DOCTYPE html>")


class TestLint:
    def test_lint_finds_the_known_issue(self, capsys):
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "cross-ontology" in out
        assert "Rectangle Method" in out

    def test_lint_clean_collection(self, capsys):
        assert main(["lint", "--collection", "nifty"]) == 0
        assert "clean" in capsys.readouterr().out


class TestSnapshot:
    def test_export_then_operate_on_snapshot(self, capsys, tmp_path):
        path = tmp_path / "snap.json"
        assert main(["export", str(path)]) == 0
        assert path.exists()
        assert main(["--snapshot", str(path), "stats"]) == 0
        assert "materials: 97" in capsys.readouterr().out
