"""Every example script must run clean and print its headline output."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(name: str) -> str:
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestExamples:
    def test_examples_directory_complete(self):
        names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert "quickstart.py" in names
        assert len(names) >= 3

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "our protocol" in out
        assert "rsync (default)" in out
        assert "zdelta (local)" in out

    def test_web_mirror(self):
        out = run_example("web_mirror.py")
        assert "every 1d" in out
        assert "every 7d" in out
        assert "ours" in out

    def test_source_tree_release(self):
        out = run_example("source_tree_release.py")
        assert "Updating the mirror" in out
        assert "s2c/delta" in out

    def test_tuning_block_sizes(self):
        out = run_example("tuning_block_sizes.py")
        assert "Minimum block size trade-off" in out
        assert "best with continuation" in out

    def test_adaptive_link(self):
        out = run_example("adaptive_link.py")
        assert "Adaptive parameter selection" in out
        assert "satellite" in out

    def test_protocol_trace(self):
        out = run_example("protocol_trace.py")
        assert "round" in out
        assert "harvest rate" in out
