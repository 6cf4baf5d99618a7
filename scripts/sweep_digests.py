#!/usr/bin/env python3
"""Print SHA-256 digests of the CSVs of a fixed set of short sweeps.

Runs `nrsim sweep --codebook type1,type2,svd --slots 80` from this
checkout's `src/` at seeds 2026 and 7, on the default 4x1 panel, on a 4x2
panel (`[antenna] n2 = 2`) and on a 2x2 panel (`[antenna] n1 = 2`, `n2 = 2`:
8 ports, both grid axes oversampled), and on the 4x1 panel twice more: at
`[sweep] feedback_delay = 0` down to -30 dB (`snr = -30:5:40`), where each
report is scored on the channel it was chosen on, so only rounding parts
realized from predicted SINR, and the lowest points report CQI 0; and at
`[channel] doppler_hz = 100` with `feedback_delay = 4`, where about half the
scheduled slots fail (panels `4x1-delay0` and `4x1-doppler100-delay4`);
and on the 4x2 panel at `doppler_hz = 100` with `feedback_delay = 4`
(`4x2-doppler100-delay4`), where Type I selects one slot at a time, so each
report is applied to a channel four selection blocks later. Between them
the sweeps reach every outcome of a slot: paid, failed and not scheduled.
Each sweep runs once with NRSIM_THREADS=1 and once with the default worker
count. Prints one `sha256  seed panel workers
file` line per CSV, each
followed by one `sha256  seed panel workers file mode` line per mode over
that mode's rows, in file order without the header. Then, on each panel,
runs `nrsim overhead --out` for Type I ranks 1-4 and Type II layers
1-2, at 1 and 13 subbands, and prints one `sha256  panel overhead codebook
rank subbands` line per `overhead.csv`. Last, on each panel, runs `nrsim
codebook dump` for Type I ranks 1-4 and prints one `sha256  panel codebook
type1 rank` line per dumped CSV: every entry's PMI and precoder, from the
codebook's `precoders`. Running it in two checkouts and diffing the
output shows whether a change keeps the simulated curves, the report sizes
and the codebook entries byte-identical, and if not, which modes' rows moved.

`digest_lines` yields the lines for any runner of the nrsim commands:
`tests/test_digests.py` runs them in its own process and compares them with
`tests/digests.txt`, this script's output under a version header.

With `--keep DIR`, every CSV is also kept under DIR (new or empty), in one
subdirectory per run named like its digest line: `seed-panel-workers/`,
`overhead-panel-codebook-rank-subbands/` and `codebook-panel-type1-rank/`.
`diff -r` of two checkouts' DIRs then shows every changed value, not just
which digest moved.

Example:
    python3 scripts/sweep_digests.py --keep digests-csv > digests.txt
"""

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (2026, 7)
PANELS = {"4x1": "", "4x2": "[antenna]\nn2 = 2\n", "2x2": "[antenna]\nn1 = 2\nn2 = 2\n"}
SWEEPS = PANELS | {"4x1-delay0": "[sweep]\nfeedback_delay = 0\nsnr = -30:5:40\n",
                   "4x1-doppler100-delay4": "[channel]\ndoppler_hz = 100\n[sweep]\nfeedback_delay = 4\n",
                   "4x2-doppler100-delay4": PANELS["4x2"] + "[channel]\ndoppler_hz = 100\n"
                                            "[sweep]\nfeedback_delay = 4\n"}
WORKERS = ("1", "default")
CSVS = ("sweep.csv", "ri_hist.csv", "cqi_hist.csv")
MODES = ("type1", "type2", "svd")
OVERHEAD_RANKS = {"type1": (1, 2, 3, 4), "type2": (1, 2)}
OVERHEAD_SUBBANDS = (1, 13)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(nrsim, tmp: Path, workers=WORKERS, read=lambda run, name: (run / name).read_bytes()):
    """Yield the digest lines, in the order main prints them. nrsim(argv,
    workers) runs `nrsim argv` at NRSIM_THREADS=workers, or at the default
    worker count for "default"; every run writes under the directory tmp,
    and read(run directory, file name) returns a CSV's bytes."""
    for panel, ini in SWEEPS.items():
        (tmp / f"{panel}.ini").write_text(ini, encoding="utf-8")
    for seed, panel, threads in itertools.product(SEEDS, SWEEPS, workers):
        out = tmp / f"{seed}-{panel}-{threads}"
        nrsim(["sweep", "--config", f"{tmp}/{panel}.ini", "--codebook", ",".join(MODES),
               "--slots", "80", "--seed", str(seed), "--out", str(out)], threads)
        for name in CSVS:
            data = read(out, name)
            yield f"{sha256(data)}  {seed} {panel} {threads} {name}"
            rows = data.splitlines(keepends=True)[1:]  # every CSV has mode as column 2
            for mode in MODES:
                mode_rows = b"".join(r for r in rows if r.split(b",")[1] == mode.encode())
                yield f"{sha256(mode_rows)}  {seed} {panel} {threads} {name} {mode}"
    for panel, (codebook, ranks), subbands in itertools.product(
            PANELS, OVERHEAD_RANKS.items(), OVERHEAD_SUBBANDS):
        for rank in ranks:
            out = tmp / f"overhead-{panel}-{codebook}-{rank}-{subbands}"
            nrsim(["overhead", "--config", f"{tmp}/{panel}.ini", "--codebook", codebook,
                   "--rank", str(rank), "--subbands", str(subbands), "--out", str(out)], "default")
            data = read(out, "overhead.csv")
            yield f"{sha256(data)}  {panel} overhead {codebook} {rank} {subbands}"
    for panel, rank in itertools.product(PANELS, OVERHEAD_RANKS["type1"]):
        out = tmp / f"codebook-{panel}-type1-{rank}"
        nrsim(["codebook", "dump", "--config", f"{tmp}/{panel}.ini", "--rank", str(rank),
               "--out", str(out)], "default")
        data = read(out, f"codebook_type1_rank{rank}.csv")
        yield f"{sha256(data)}  {panel} codebook type1 {rank}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--keep", type=Path, metavar="DIR", help="also keep every CSV under DIR")
    keep = p.parse_args(argv).keep
    if keep is not None and keep.exists() and (not keep.is_dir() or any(keep.iterdir())):
        p.error(f"--keep {keep}: not a new or empty directory")

    def read(run: Path, name: str) -> bytes:
        data = (run / name).read_bytes()
        if keep is not None:
            (keep / run.name).mkdir(parents=True, exist_ok=True)
            (keep / run.name / name).write_bytes(data)
        return data

    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "NRSIM_THREADS"} | {"PYTHONPATH": pythonpath}

    def nrsim(argv, workers):
        subprocess.run([sys.executable, "-m", "nrsim", *argv],
                       env=env if workers == "default" else {**env, "NRSIM_THREADS": workers},
                       check=True, stdout=subprocess.DEVNULL)

    with tempfile.TemporaryDirectory() as tmp:
        for line in digest_lines(nrsim, Path(tmp), read=read):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
