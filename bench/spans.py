"""In-memory span tracer that wraps nrsim's public names from outside.

Only module attributes that nrsim looks up at call time are replaced, so the
simulator's own code is untouched. Spans are kept in a list and written out
once the traced run is over. A span's self time is its duration minus the
durations of its direct children; with properly nested spans the self times
of all spans add up to the root span's duration.
"""

from __future__ import annotations

import csv
import time
from collections import Counter, defaultdict

# (module, attribute, span name); select_csi and run_sweep are named per call.
_WRAPPED = (
    ("sim", "generate_channel", "channel.generate_channel"),
    ("sim", "select_csi", None),
    ("sim", "build_type1_codebook", "codebook.build_type1_codebook"),
    ("sim", "build_type2_structure", "codebook.build_type2_structure"),
    ("sim", "realize_type2_precoder", "codebook.realize_type2_precoder"),
    ("sim", "type1_overhead_bits", "overhead.type1_overhead_bits"),
    ("sim", "type2_overhead_bits", "overhead.type2_overhead_bits"),
    ("sim", "expected_overhead", "overhead.expected_overhead"),
    ("sim", "run_sweep", "sim.run_sweep"),
    ("csi", "quantize_phases", "csi.quantize_phases"),
    ("csi", "realize_type2_precoder", "codebook.realize_type2_precoder"),
    ("codebook", "dft_beam", "codebook.dft_beam"),
)


class Tracer:
    def __init__(self) -> None:
        # Finished spans: (id, parent id or -1, name, start, end, self seconds, mode).
        self.spans: list[tuple] = []
        self._open: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0
        self.mode = ""  # codebook mode of the enclosing run_sweep
        self.beams: Counter = Counter()  # dft_beam calls per (l, m)
        self.type1_precoders = 0  # sum of entries x subbands searched by Type I selection
        self.h_bytes = 0  # largest channel array generated
        self._restore: list[tuple] = []

    def enter(self, name: str) -> None:
        self._open.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._open.pop()
        dur = end - start
        parent = -1
        if self._open:
            self._open[-1][3] += dur
            parent = self._open[-1][0]
        self.spans.append((sid, parent, name, start, end, dur - child, self.mode))

    def install(self, nrsim) -> None:
        modules = {"sim": nrsim.sim, "csi": nrsim.csi, "codebook": nrsim.codebook}
        for mod_name, attr, name in _WRAPPED:
            module = modules[mod_name]
            fn = getattr(module, attr)
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, attr, name, nrsim))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrapper(self, fn, attr, name, nrsim):
        tracer = self
        if attr == "run_sweep":
            def run_sweep(cfg):
                outer, tracer.mode = tracer.mode, cfg.codebook_mode.value
                tracer.enter(name)
                try:
                    return fn(cfg)
                finally:
                    tracer.exit()
                    tracer.mode = outer
            return run_sweep
        if attr == "select_csi":
            space_type = nrsim.Type2CodebookSpace

            def select_csi(h, noise_var, codebooks, table):
                type2 = isinstance(codebooks, space_type)
                tracer.enter("csi.select_csi.type2" if type2 else "csi.select_csi.type1")
                try:
                    return fn(h, noise_var, codebooks, table)
                finally:
                    tracer.exit()
                    if not type2:
                        num_sb, num_rx, num_tx = h.shape
                        tracer.type1_precoders += num_sb * sum(
                            len(cb) for r, cb in codebooks.items() if r <= min(num_rx, num_tx))
            return select_csi
        if attr == "dft_beam":
            def dft_beam(l, m, cfg, ov):
                tracer.enter(name)
                try:
                    return fn(l, m, cfg, ov)
                finally:
                    tracer.exit()
                    tracer.beams[(l, m)] += 1
            return dft_beam
        if attr == "generate_channel":
            def generate_channel(*args, **kwargs):
                tracer.enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.exit()
                tracer.h_bytes = max(tracer.h_bytes, out.h.nbytes)
                return out
            return generate_channel

        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s", "self_s", "mode"])
            writer.writerows(self.spans)

    def summary(self) -> dict:
        """Self seconds and call counts per span name, inclusive seconds of
        run_sweep per mode, and the work counts recorded at the boundaries."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        sweep_s_by_mode: dict[str, float] = defaultdict(float)
        roots = []
        for _, parent, name, start, end, self_time, mode in self.spans:
            self_s[name] += self_time
            calls[name] += 1
            if name == "sim.run_sweep":
                sweep_s_by_mode[mode] += end - start
            if parent == -1:
                roots.append(end - start)
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "sweep_s_by_mode": dict(sweep_s_by_mode),
            "root_s": sum(roots),
            "dft_beam_distinct": len(self.beams),
            "type1_precoders": self.type1_precoders,
            "h_bytes": self.h_bytes,
        }
