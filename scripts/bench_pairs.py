#!/usr/bin/env python3
"""Compare a parent checkout's end-to-end benchmark metrics with this one's over alternating pairs.

Runs `bench/run.py --trace 0 --workload W` N times in the parent checkout and
in this one, alternating between them and swapping which side goes first
every pair, so that slow drift of the host falls on both sides alike. Only
the last line of each run's standard output, the result JSON, is read. A run
that exits nonzero or reports `"correct": false` (a failed repeatability or
metric check) is reported with its check messages and kept out of the
medians and the win counts. For every end-to-end metric of this checkout's
BENCHMARK.json it prints the parent's and this side's median and quartiles
and the number of pairs this side won, then each side's incorrect runs and
the share of SNR points that failed. The exit status is 1 if any run was
incorrect. With `--json PATH` it also writes every run's result, its metrics,
`correct`, `failed` and `attempted`, in run order per side, to PATH.

Example, from the root of this checkout:
    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 scripts/bench_pairs.py --parent ../parent --workload compare_8x4 \\
        --pairs 10 --seconds 12
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import _quartiles  # noqa: E402


def run_bench(checkout: Path, args: argparse.Namespace) -> dict:
    """One bench/run.py execution's result JSON, with `correct` false if the
    run exited nonzero, and its check messages under `problems`."""
    cmd = [sys.executable, "bench/run.py", "--trace", "0", "--workload", args.workload]
    for flag in ("seed", "seconds"):
        if getattr(args, flag) is not None:
            cmd += [f"--{flag}", str(getattr(args, flag))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{checkout}: bench/run.py printed no result JSON (exit {proc.returncode})\n"
                 f"{proc.stderr[-2000:]}")
    result["correct"] = result.get("correct") is True and proc.returncode == 0
    result["problems"] = proc.stderr.strip().splitlines()[-5:]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, help="passed to bench/run.py (default: its own)")
    p.add_argument("--seed", type=int, help="passed to bench/run.py (default: its own)")
    p.add_argument("--json", type=Path, metavar="PATH", help="also write each run's result to PATH")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    results = {side: [] for side in sides}
    for i in range(args.pairs):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            res = run_bench(sides[side], args)
            if not res["correct"]:
                print(f"pair {i + 1}: {side} run incorrect, left out:\n  "
                      + "\n  ".join(res["problems"]), file=sys.stderr)
            results[side].append(res)
        print(f"pair {i + 1}/{args.pairs} done ({' first, '.join(order)} second)", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs")
    print(f"{'metric':<14} {'parent median':>14} {'q1':>10} {'q3':>10} "
          f"{'change median':>14} {'q1':>10} {'q3':>10} {'change %':>9} {'wins':>7}")
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        vals = {side: [r["metrics"].get(name, {}).get("value") if r["correct"] else None
                       for r in results[side]] for side in sides}
        good = {side: [v for v in vals[side] if v is not None] for side in sides}
        if not good["parent"] or not good["change"]:
            print(f"{name:<14} missing from every run of a side")
            continue
        (pq1, pmed, pq3), (cq1, cmed, cq3) = _quartiles(good["parent"]), _quartiles(good["change"])
        both = [(b, c) for b, c in zip(vals["parent"], vals["change"])
                if b is not None and c is not None]
        wins = sum((c < b) if lower else (c > b) for b, c in both)
        print(f"{name:<14} {pmed:14.6g} {pq1:10.6g} {pq3:10.6g} {cmed:14.6g} {cq1:10.6g} "
              f"{cq3:10.6g} {100.0 * (cmed / pmed - 1.0):+8.1f}% {wins:>4}/{len(both)}")
    if args.json is not None:
        keep = ("metrics", "correct", "failed", "attempted")
        runs = {side: [{k: r.get(k) for k in keep} for r in results[side]] for side in sides}
        args.json.write_text(json.dumps({"workload": args.workload, "seed": args.seed, **runs},
                                        indent=1) + "\n", encoding="utf-8")
    incorrect = 0
    for side in sides:
        bad = sum(not r["correct"] for r in results[side])
        incorrect += bad
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"{side}: {bad} of {args.pairs} runs incorrect; failed_frac "
              f"{failed / max(attempted, 1):.6g} ({failed} of {attempted} points)")
    return 1 if incorrect else 0


if __name__ == "__main__":
    raise SystemExit(main())
