"""Byte identity of the simulated curves, report sizes and codebook entries.

tests/digests.txt holds the output of scripts/sweep_digests.py under a
header line that records the numpy version, OPENBLAS_NUM_THREADS and the CPU
count it was made with. The test runs the script's nrsim commands in this
process (sweeps through compare_modes and the write_* functions) at the
default worker count, which test_parallel_matches_sequential shows gives
the bytes of one worker, and compares every digest with the file's. A
change that moves outputs on purpose regenerates the file:

    (echo "# numpy $(python3 -c 'import numpy; print(numpy.__version__)')," \\
          "OPENBLAS_NUM_THREADS=${OPENBLAS_NUM_THREADS:-unset}, $(nproc) CPUs"
     python3 scripts/sweep_digests.py) > tests/digests.txt
"""

import contextlib
import importlib.util
import io
import os
from pathlib import Path

import numpy as np

from nrsim import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "digests.txt"
_spec = importlib.util.spec_from_file_location("sweep_digests", ROOT / "scripts" / "sweep_digests.py")
sweep_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_digests)


def _digests(lines):
    """{line without its worker count: digest}: a sweep's digests do not
    depend on the worker count, so the file's two worker counts share a key."""
    out = {}
    for line in lines:
        digest, fields = line.split("  ", 1)
        fields = fields.split()
        if len(fields) > 3 and fields[3] in sweep_digests.CSVS:
            del fields[2]  # seed, panel, workers, file[, mode]
        out.setdefault(" ".join(fields), set()).add(digest)
    return out


def test_outputs_match_committed_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("NRSIM_THREADS", raising=False)

    def nrsim(argv, workers):
        assert workers == "default"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv

    header, *recorded = DIGESTS.read_text(encoding="utf-8").splitlines()
    want = _digests(recorded)
    got = _digests(sweep_digests.digest_lines(nrsim, tmp_path, workers=("default",)))
    assert all(len(digests) == 1 for digests in want.values()), "digests.txt disagrees with itself"
    moved = [key for key in want.keys() | got.keys() if want.get(key) != got.get(key)]
    assert not moved, (f"{len(moved)} digest lines moved (recorded with {header.lstrip('# ')}; "
                       f"now numpy {np.__version__}, OPENBLAS_NUM_THREADS="
                       f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, {os.cpu_count()} CPUs):\n"
                       + "\n".join(sorted(moved)))
