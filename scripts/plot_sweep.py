#!/usr/bin/env python3
"""Plot throughput-vs-SNR curves from a sweep.csv written by the simulator.

Needs matplotlib (not a package dependency; `pip install matplotlib`).

Example:
    python3 scripts/plot_sweep.py results/sweep.csv --out results/sweep.png
"""

import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path

STYLES = {"type1": "o-", "type2": "s-", "svd": "k--"}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("csv_path", type=Path)
    p.add_argument("--out", type=Path, default=None,
                   help="output image path (default: alongside the CSV)")
    p.add_argument("--mbps", action="store_true",
                   help="plot Mbit/s over the whole band instead of bit/s/Hz")
    args = p.parse_args(argv)
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required for plotting: pip install matplotlib")

    curves = defaultdict(list)
    with args.csv_path.open(newline="") as f:
        for row in csv.DictReader(f):
            y = float(row["mean_mbps"] if args.mbps else row["mean_se"])
            curves[row["mode"]].append((float(row["snr_db"]), y))

    if not curves:
        sys.exit(f"no rows in {args.csv_path}")

    fig, ax = plt.subplots(figsize=(7, 4.5))
    for mode, pts in curves.items():
        pts.sort()
        xs, ys = zip(*pts)
        ax.plot(xs, ys, STYLES.get(mode, "-"), label=mode, markersize=4)
    ax.set_xlabel("SNR (dB)")
    ax.set_ylabel("mean throughput (Mbit/s)" if args.mbps
                  else "mean throughput (bit/s/Hz)")
    ax.legend()
    ax.grid(True, alpha=0.3)
    fig.tight_layout()

    out = args.out or args.csv_path.with_suffix(".png")
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
