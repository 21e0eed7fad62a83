"""CLI argument handling (full CLI flows are driven in verify; these
cover the no-Ray paths)."""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "crawl4ai_ray", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


class TestCli:
    def test_unknown_query_fast_fail(self):
        r = run_cli("queries", "nonexistent")
        assert r.returncode == 2
        assert "unknown query" in r.stderr
        assert "adaptive_digest" in r.stderr  # lists choices

    def test_missing_subcommand(self):
        r = run_cli()
        assert r.returncode == 2

    def test_crawl_requires_seeds(self):
        r = run_cli("crawl", "--corpus", "/tmp/x", "--out", "/tmp/y")
        assert r.returncode == 2
        assert "--seeds" in r.stderr

    def test_warc_requires_direction(self):
        r = run_cli("warc", "--src", "/tmp/x", "--out", "/tmp/y")
        assert r.returncode == 2

    def test_warc_rejects_bad_direction(self):
        r = run_cli("warc", "sideways", "--src", "/tmp/x", "--out", "/tmp/y")
        assert r.returncode == 2
        assert "export" in r.stderr and "ingest" in r.stderr
