"""The helper scripts under scripts/ start: each parses --help and exits 0,
so a broken import (bench_pairs.py reads bench/run.py's private _quartiles)
fails here rather than at the next benchmark comparison."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["sweep_digests.py", "bench_pairs.py"])
def test_help_exits_0(script):
    run = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage:")
