"""``scripts/check_docs.py``: links and their ``#fragment`` anchors."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "check_docs.py"


@pytest.fixture
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repository_docs_pass(check_docs):
    assert check_docs.main() == 0
    docs = check_docs.ROOT / "docs"
    assert "procpool-shared-memory-layout" in check_docs.heading_slugs(
        (docs / "architecture.md").read_text(encoding="utf-8"))
    assert "control-plane" in check_docs.heading_slugs(
        (docs / "serving.md").read_text(encoding="utf-8"))


def test_slugs_follow_github_rules(check_docs):
    text = ("# The stacked `(T·N, …)` trick\n"
            "## `BatchScheduler` (synchronous)\n"
            "## See [serving](serving.md) ##\n"
            "## Repeat\n## Repeat\n"
            "```bash\n# a shell comment\n```\n")
    assert check_docs.heading_slugs(text) == {
        "the-stacked-tn--trick", "batchscheduler-synchronous",
        "see-serving", "repeat", "repeat-1"}


def test_planted_broken_anchor_fails(check_docs, tmp_path, monkeypatch,
                                     capsys):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text(
        "# Guide\n\n## The `serve()` API\n\n```bash\n# not a heading\n```\n",
        encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "# Readme\n\n[ok](docs/guide.md#the-serve-api) [top](#readme)\n"
        "[bad](docs/guide.md#not-a-heading)\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    assert check_docs.main() == 1
    out = capsys.readouterr().out
    assert "README.md:4: broken anchor -> docs/guide.md#not-a-heading" in out
    assert out.count("broken") == 1
