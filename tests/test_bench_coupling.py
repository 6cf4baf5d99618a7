"""The benchmark under bench/ drives nrsim through public names: its tracer
wraps module attributes by name, and its workloads build configs and
codebooks through the package. These checks load bench/spans.py and
bench/workloads.py as they are and fail when a refactor drops a name they
use, which would otherwise surface only as a crash of `bench/run.py --trace 1`.
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
