"""Command-line front end.

Subcommands: `sweep` (one or more codebook modes on paired channels, to
CSV), `overhead` (report bit-width calculator), `codebook dump` (Type I
entries to CSV), `channel probe` (statistics self-test). Settings resolve
with precedence flags > config file > built-in defaults; `sweep` snapshots
the resolved configuration into manifest.json (written atomically before any
results) and a manifest can be fed back via --config to reproduce a run bit
for bit.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelConfig, _j0, generate_channel, load_pdp_file
from .codebook import (AntennaConfig, Type2Config, _check_count, _check_real, build_type1_codebook,
                       build_type2_structure, oversampling_factors)
from .csi import CqiTable
from .overhead import type1_overhead_bits, type2_overhead_bits
from .sim import (
    CodebookMode,
    Scenario,
    SweepConfig,
    _worker_count,
    compare_modes,
    write_cqi_hist_csv,
    write_ri_hist_csv,
    write_sweep_csv,
)

__all__ = ["main"]

_DEFAULTS: dict[str, object] = {
    "antenna.n1": 4,
    "antenna.n2": 1,
    "channel.rx": 4,
    "channel.doppler_hz": 5.0,
    "channel.delay_spread_ns": 100.0,
    "channel.subbands": 13,
    "channel.subband_spacing_hz": 720e3,
    "channel.slot_duration_s": 1e-3,
    "channel.pdp_file": "",
    "sweep.snr": "-10:5:40",
    "sweep.slots": 1000,
    "sweep.feedback_delay": 1,
    "sweep.codebook": "type1",
    "sweep.seed": 0,
    "type2.beams": 4,
    "type2.n_psk": 8,
    "csi.cqi_table": "",
}

# Largest SNR grid a sweep accepts; a finer step is almost surely a typo.
_MAX_SNR_POINTS = 10_000

# First zero of J0, used by `channel probe` to pick a Doppler that makes
# consecutive slots uncorrelated so the power check averages cleanly.
_J0_FIRST_ZERO = 2.404825557695773


def _load_config_file(path: str) -> dict[str, object]:
    """The settings of an INI file or manifest, each converted to the type
    of its key's default."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        if text.lstrip().startswith("{"):
            data = json.loads(text)
            flat = data.get("config", data)
        else:
            parser = configparser.ConfigParser()
            parser.read_string(text)
            flat = {f"{section}.{key}": value for section in parser.sections()
                    for key, value in parser.items(section)}
    except (ValueError, RecursionError, configparser.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(flat, dict):
        raise ValueError(f"{path}: manifest 'config' must be an object")
    unknown = sorted(set(flat) - set(_DEFAULTS))
    if unknown:
        raise ValueError(f"{path}: unknown config key {unknown[0]!r}")
    typed = {}
    for key, value in flat.items():
        kind = type(_DEFAULTS[key])
        try:
            typed[key] = kind(str(value))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{path}: {key} must be {noun}, got {value!r}") from None
    return typed


class _Settings(dict):
    """Resolved settings; origins maps each key set by a --config file to it."""

    origins: dict[str, str] = {}

    def name(self, key: str) -> str:
        """The key, prefixed by the file that set it, for error messages."""
        return f"{self.origins[key]}: {key}" if key in self.origins else key

    def build(self, sections: str, make, **kwargs):
        """make(**kwargs); if make rejects them, the error also names the
        --config file and the keys it set in the space-separated sections."""
        try:
            return make(**kwargs)
        except ValueError as exc:
            keys = [key for key in self.origins if key.split(".")[0] in sections.split()]
            if not keys:
                raise
            raise ValueError(f"{self.origins[keys[0]]}: {', '.join(keys)}: {exc}") from None


def _resolve(args: argparse.Namespace) -> _Settings:
    """Defaults, overridden by the --config file, overridden by the flags
    whose dest is a config key; every value has its default's type."""
    from_file = _load_config_file(args.config) if args.config else {}
    flags = {key: value for key, value in vars(args).items()
             if key in _DEFAULTS and value is not None}
    settings = _Settings({**_DEFAULTS, **from_file, **flags})
    settings.origins = {key: args.config for key in from_file if key not in flags}
    return settings


def _parse_snr(cfg: _Settings) -> tuple[float, ...]:
    spec, name = cfg["sweep.snr"], cfg.name("sweep.snr")
    parts = spec.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"{name} must be 'min:step:max' or a single value, got {spec!r}") from None
    values = [_check_real(name, v) for v in values]
    if len(values) == 1:
        return (values[0],)
    lo, step, hi = values
    _check_real(f"{name} step", step, positive=True)
    if hi < lo:
        raise ValueError(f"{name} has max {hi} below min {lo}")
    if (hi - lo) / step >= _MAX_SNR_POINTS:
        raise ValueError(f"{name} has more than {_MAX_SNR_POINTS} points, got {spec!r}")
    points = []
    value = lo
    while value <= hi + 1e-9:
        points.append(round(value, 9))
        value = lo + (len(points)) * step
    return tuple(points)


def _parse_modes(cfg: _Settings) -> list[CodebookMode]:
    """Comma-separated mode labels, each at most once, in the given order."""
    spec, name = cfg["sweep.codebook"], cfg.name("sweep.codebook")
    labels = [label.strip() for label in spec.split(",")]
    known = {mode.value: mode for mode in CodebookMode}
    for label in labels:
        if label not in known:
            raise ValueError(f"{name} entries must be type1/type2/svd, got {label!r}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{name} lists a mode twice: {spec!r}")
    return [known[label] for label in labels]


def _antenna(cfg: _Settings) -> AntennaConfig:
    antenna = cfg.build("antenna", AntennaConfig, n1=cfg["antenna.n1"], n2=cfg["antenna.n2"])
    cfg.build("antenna", oversampling_factors, cfg=antenna)  # rejects an unsupported panel
    return antenna


def _type2(cfg: _Settings) -> Type2Config:
    return cfg.build("type2", Type2Config, num_beams=cfg["type2.beams"], n_psk=cfg["type2.n_psk"])


def _channel(cfg: _Settings, antenna: AntennaConfig) -> ChannelConfig:
    pdp_file = cfg["channel.pdp_file"]
    pdp = {"pdp": tuple(load_pdp_file(pdp_file))} if pdp_file else {}
    return cfg.build(
        "channel", ChannelConfig,
        num_tx_ports=antenna.num_ports,
        num_rx_ports=cfg["channel.rx"],
        doppler_hz=cfg["channel.doppler_hz"],
        delay_spread_ns=cfg["channel.delay_spread_ns"],
        num_subbands=cfg["channel.subbands"],
        subband_spacing_hz=cfg["channel.subband_spacing_hz"],
        slot_duration_s=cfg["channel.slot_duration_s"],
        **pdp,
    )


def _write_json_atomic(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _write_manifest(out_dir: Path, command: str, cfg: dict, seed: int, outputs: list[Path]) -> None:
    _write_json_atomic(out_dir / "manifest.json", {
        "tool": "nrsim",
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "outputs": [str(p) for p in outputs],
    })


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out or "nrsim_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    snr_points = _parse_snr(cfg)
    modes = _parse_modes(cfg)
    antenna = _antenna(cfg)
    channel = _channel(cfg, antenna)
    table_path = cfg["csi.cqi_table"]
    table = CqiTable.from_csv(table_path) if table_path else CqiTable.default()
    scenario = Scenario(antenna=antenna, channel=channel, type2=_type2(cfg), cqi_table=table)
    sweep_cfgs = [  # in Type II mode SweepConfig also checks the beam count against the panel
        cfg.build("sweep antenna type2" if mode is CodebookMode.TYPE2 else "sweep", SweepConfig,
                  scenario=scenario, snr_points_db=snr_points, num_slots=cfg["sweep.slots"],
                  feedback_delay_slots=cfg["sweep.feedback_delay"], codebook_mode=mode,
                  seed=cfg["sweep.seed"])
        for mode in modes
    ]
    _worker_count(len(snr_points))  # rejects a malformed NRSIM_THREADS
    out = _out_dir(args)
    paths = [out / "sweep.csv", out / "ri_hist.csv", out / "cqi_hist.csv"]
    _write_manifest(out, "sweep", cfg, cfg["sweep.seed"], paths)
    comparison = compare_modes(sweep_cfgs)
    write_sweep_csv(comparison.results, paths[0])
    write_ri_hist_csv(comparison.results, paths[1])
    write_cqi_hist_csv(comparison.results, paths[2])
    print(f"{'snr_db':>8}  {'mode':>5}  {'mean_se':>10}  {'mean_mbps':>10}  "
          f"{'overhead':>9}  {'fail':>6}")
    for i, row in enumerate(comparison.rows):
        for res in comparison.results:
            pt = res.points[i]
            print(f"{pt.snr_db:>8.2f}  {res.mode.value:>5}  {pt.mean_throughput:>10.4f}  "
                  f"{pt.mean_throughput_mbps:>10.3f}  {pt.mean_overhead_bits:>9.2f}  "
                  f"{pt.slots_failed:>6.4f}")
        if len(modes) > 1:
            print(f"{'':>8}  winner {row.winner}")
    print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    antenna = _antenna(cfg)
    ov = oversampling_factors(antenna)
    if args.codebook == "type2":
        space = build_type2_structure(antenna, _type2(cfg), ov)
        breakdown = type2_overhead_bits(space, args.rank, args.subbands)
    else:
        breakdown = type1_overhead_bits(build_type1_codebook(antenna, args.rank, ov), args.subbands)
    rows = [*breakdown.per_index_bits.items(), ("total", breakdown.total_bits)]
    width = max(len(key) for key, _ in rows)
    for key, bits in rows:
        print(f"{key:<{width}}  {bits:>5} bits")
    table = "index,bits\n" + "".join(f"{key},{bits}\n" for key, bits in rows)
    print()
    print(table, end="")
    if args.out:
        out = _out_dir(args)
        path = out / "overhead.csv"
        path.write_text(table, encoding="utf-8", newline="")
        _write_manifest(out, f"overhead --codebook {args.codebook}", cfg, 0, [path])
        print(f"wrote {path}")
    return 0


def _cmd_codebook_dump(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    antenna, rank = _antenna(cfg), args.rank
    cb = build_type1_codebook(antenna, rank, oversampling_factors(antenna))
    out = _out_dir(args)
    path = out / f"codebook_type1_rank{rank}.csv"
    ports = antenna.num_ports
    header = ["entry", "i11", "i12", "i13", "i2"] + [
        f"w{port}_{layer}_{part}" for port in range(ports) for layer in range(rank)
        for part in ("re", "im")]
    entries = np.arange(len(cb))
    pmis = np.stack(np.unravel_index(entries, cb.index_shape), axis=-1).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for idx, pmi, w in zip(entries.tolist(), pmis, cb.precoders(entries)):
            # C order of the float view: port, then layer, then re/im.
            row = [str(idx), *map(str, pmi), *map(repr, w.view(np.float64).ravel().tolist())]
            fh.write(",".join(row) + "\n")
    _write_manifest(out, "codebook dump", cfg, 0, [path])
    print(f"wrote {path} ({len(cb)} entries, {ports} ports, rank {rank})")
    return 0


def _cmd_channel_probe(args: argparse.Namespace) -> int:
    cfg, slots = _resolve(args), _check_count("slots", args.slots, 2)
    seed = cfg["sweep.seed"]
    channel = _channel(cfg, _antenna(cfg))
    slot_s = channel.slot_duration_s
    ok = True

    # Power conservation, averaged over slots decorrelated by a Doppler at
    # the first J0 zero.
    doppler_zero = _J0_FIRST_ZERO / (2.0 * math.pi * slot_s)
    h = generate_channel(replace(channel, doppler_hz=doppler_zero), slots, seed)
    mean_power = float(np.mean(np.abs(h) ** 2))
    power_ok = abs(mean_power - 1.0) <= 0.02
    ok &= power_ok
    print(f"mean per-entry power      {mean_power:8.4f}  (target 1.0 +/- 0.02)  "
          f"{'PASS' if power_ok else 'FAIL'}")

    # Slot-to-slot correlation against the Jakes value at a Doppler that
    # separates cleanly from 1.
    doppler_corr = 100.0
    rho_target = _j0(2.0 * math.pi * doppler_corr * slot_s)
    h = generate_channel(replace(channel, doppler_hz=doppler_corr), slots, seed)
    a = h[:-1].ravel()
    b = h[1:].ravel()
    rho_hat = float(np.real(np.vdot(a, b)) / math.sqrt((np.abs(a) ** 2).sum() * (np.abs(b) ** 2).sum()))
    rho_ok = abs(rho_hat - rho_target) <= 0.02
    ok &= rho_ok
    print(f"lag-1 correlation @100 Hz {rho_hat:8.4f}  (target {rho_target:.4f} +/- 0.02)  "
          f"{'PASS' if rho_ok else 'FAIL'}")
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise RuntimeError("channel probe statistics out of tolerance")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrsim",
        description="Link-level downlink MIMO simulator with Type I / Type II precoding feedback.",
    )
    parser.add_argument("--version", action="version", version=f"nrsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run an SNR sweep and write CSV results")
    sweep.add_argument("--config", help="INI config file or a manifest.json from a previous run")
    sweep.add_argument("--snr", dest="sweep.snr",
                       help="SNR grid in dB as min:step:max (or one value); "
                            "write a negative min as --snr=-10:5:40")
    sweep.add_argument("--slots", dest="sweep.slots", type=int, help="slots per SNR point")
    sweep.add_argument("--codebook", dest="sweep.codebook",
                       help="feedback modes, comma-separated from type1, type2, svd; "
                            "several run on paired channels")
    sweep.add_argument("--rx", dest="channel.rx", type=int, help="receive antenna count")
    sweep.add_argument("--seed", dest="sweep.seed", type=int, help="sweep seed")
    sweep.add_argument("--out", help="output directory (default nrsim_out)")

    overhead = sub.add_parser("overhead", help="print PMI report bit-widths")
    overhead.add_argument("--config", help="INI config file or a manifest.json from a previous run")
    overhead.add_argument("--codebook", choices=["type1", "type2"], default="type1",
                          help="report family (default type1)")
    overhead.add_argument("--rank", type=int, default=1, help="rank (type1: 1-4, type2: 1-2)")
    overhead.add_argument("--subbands", type=int, default=1,
                          help="subband count (default 1 = wideband)")
    overhead.add_argument("--beams", dest="type2.beams", type=int, help="type2 combined beams")
    overhead.add_argument("--npsk", dest="type2.n_psk", type=int,
                          help="type2 co-phase alphabet size")
    overhead.add_argument("--out", help="also write overhead.csv under this directory")

    codebook = sub.add_parser("codebook", help="codebook tools")
    codebook_sub = codebook.add_subparsers(dest="action", required=True)
    dump = codebook_sub.add_parser("dump", help="write Type I entries to CSV")
    dump.add_argument("--config",
                      help="INI config file or a manifest.json from a previous run")
    dump.add_argument("--rank", type=int, default=1, help="rank (1-4)")
    dump.add_argument("--out", help="output directory (default nrsim_out)")

    channel = sub.add_parser("channel", help="channel tools")
    channel_sub = channel.add_subparsers(dest="action", required=True)
    probe = channel_sub.add_parser("probe", help="statistics self-test")
    probe.add_argument("--config", help="INI config file or a manifest.json from a previous run")
    probe.add_argument("--slots", type=int, default=2000, help="slots per check (default 2000)")
    probe.add_argument("--rx", dest="channel.rx", type=int, help="receive antenna count")
    probe.add_argument("--seed", dest="sweep.seed", type=int, help="probe seed")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    commands = {"sweep": _cmd_sweep, "overhead": _cmd_overhead,
                "codebook": _cmd_codebook_dump, "channel": _cmd_channel_probe}
    try:
        return commands[args.command](args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
