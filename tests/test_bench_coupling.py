"""The benchmark under bench/ drives nrsim through public names: its tracer
wraps module attributes by name, and its workloads build configs and
codebooks through the package. These checks load bench/spans.py and
bench/workloads.py as they are and fail when a refactor drops a name they
use, or changes a call pattern they rely on, which would otherwise surface
only as a crash of `bench/run.py --trace 1`: run.py divides by the time
spent in `sim.run_sweep` (so compare_modes must call it once per config),
and the sweep calls neither `select_csi` nor `generate_channel`, so the
tracer's `select_csi` and `generate_channel` spans read 0.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import nrsim

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"nrsim_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in spans._WRAPPED])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(getattr(nrsim, module), attr))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds(name):
    wl = workloads.WORKLOADS[name]
    cfgs = workloads.build_configs(nrsim, wl, workloads.REFERENCE_SEED, wl.slots)
    assert [cfg.codebook_mode.value for cfg in cfgs] == list(wl.modes)
    workloads.build_codebooks(nrsim, wl)


def _traced_compare_8x4(monkeypatch):
    """compare_8x4's three configs at 3 slots, traced in-process as the
    benchmark traces them; returns the tracer summary and the shape of every
    slot view select_csi received."""
    monkeypatch.setenv("NRSIM_THREADS", "1")
    shapes = []
    select_csi = nrsim.sim.select_csi

    def recording(h, *args):
        shapes.append(h.shape)
        return select_csi(h, *args)

    monkeypatch.setattr(nrsim.sim, "select_csi", recording)
    wl = workloads.WORKLOADS["compare_8x4"]
    tracer = spans.Tracer()
    tracer.install(nrsim)
    try:
        nrsim.compare_modes(workloads.build_configs(nrsim, wl, workloads.REFERENCE_SEED, 3))
    finally:
        tracer.uninstall()
    return tracer.summary(), shapes


def test_compare_modes_runs_run_sweep_once_per_config(monkeypatch):
    summary, _ = _traced_compare_8x4(monkeypatch)
    assert summary["calls"]["sim.run_sweep"] == 3
    assert sorted(summary["sweep_s_by_mode"]) == ["svd", "type1", "type2"]


def test_select_csi_gets_3d_slot_views(monkeypatch):
    """The traced comparison completes, runs run_sweep once per config, and
    never calls select_csi: the point runner selects blocks of slots through
    sim's block selectors, so the tracer's select_csi spans, which would
    unpack a slot view's h.shape as (subbands, rx, tx), read 0."""
    summary, shapes = _traced_compare_8x4(monkeypatch)
    wl = workloads.WORKLOADS["compare_8x4"]
    assert shapes == []
    assert not [name for name in summary["calls"] if name.startswith("csi.select_csi.")]
    assert summary["calls"]["sim.run_sweep"] == len(wl.modes)


def test_sweep_generates_no_whole_channel(monkeypatch):
    """The point runner streams each point's channel block by block and
    never calls generate_channel, which returns a whole trajectory: the
    traced comparison records no channel.generate_channel span and no
    channel array, and channel time lands in run_sweep's self time."""
    summary, _ = _traced_compare_8x4(monkeypatch)
    assert "channel.generate_channel" not in summary["calls"]
    assert summary["h_bytes"] == 0


def test_every_mode_sweep_span_positive(monkeypatch):
    """At one worker each config's points run inside its own run_sweep call,
    so the traced per-mode times stay true: every mode has a positive sweep
    time."""
    summary, _ = _traced_compare_8x4(monkeypatch)
    wl = workloads.WORKLOADS["compare_8x4"]
    sweep_s = summary["sweep_s_by_mode"]
    assert sorted(sweep_s) == sorted(wl.modes) and all(t > 0 for t in sweep_s.values())
