#!/usr/bin/env python3
"""Print SHA-256 digests of the CSVs of a fixed set of short sweeps.

Runs `nrsim sweep --codebook type1,type2,svd --slots 80` from this
checkout's `src/` at seeds 2026 and 7, on the default 4x1 panel and on a
4x2 panel (`[antenna] n2 = 2`), each once with NRSIM_THREADS=1 and once with
the default worker count. Prints one `sha256  seed panel workers file` line
per CSV. Running it in two checkouts and diffing the output shows whether a
change keeps the simulated curves byte-identical.

Example:
    python3 scripts/sweep_digests.py > digests.txt
"""

import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (2026, 7)
PANELS = {"4x1": "", "4x2": "[antenna]\nn2 = 2\n"}
WORKERS = ("1", "default")
CSVS = ("sweep.csv", "ri_hist.csv", "cqi_hist.csv")


def main() -> int:
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "NRSIM_THREADS"} | {"PYTHONPATH": pythonpath}
    with tempfile.TemporaryDirectory() as tmp:
        for panel, ini in PANELS.items():
            (Path(tmp) / f"{panel}.ini").write_text(ini, encoding="utf-8")
        for seed, panel, workers in itertools.product(SEEDS, PANELS, WORKERS):
            out = Path(tmp) / f"{seed}-{panel}-{workers}"
            subprocess.run([sys.executable, "-m", "nrsim", "sweep", "--config", f"{tmp}/{panel}.ini",
                            "--codebook", "type1,type2,svd", "--slots", "80",
                            "--seed", str(seed), "--out", str(out)],
                           env=env if workers == "default" else {**env, "NRSIM_THREADS": workers},
                           check=True, stdout=subprocess.DEVNULL)
            for name in CSVS:
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                print(f"{digest}  {seed} {panel} {workers} {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
