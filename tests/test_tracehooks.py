"""The per-layer benchmark hooks name functions that still exist.

`perfbench/tracehooks.py` wraps package functions by name and leaves out
the metric of any name it cannot resolve, so a renamed or deleted target
would silently drop a per-layer metric from a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from versal import as_generator_matrix, cotangent, exactla, load_input
from versal.exactla import SparseMatrix

ROOT = Path(__file__).resolve().parent.parent
TRACEHOOKS = ROOT / "perfbench" / "tracehooks.py"
DATA = ROOT / "demos" / "data"
NONCLOSING = ROOT / "perfbench" / "nonclosing.vdef"


def load_tracehooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracehooks", TRACEHOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_is_callable():
    metrics = load_tracehooks().METRICS
    assert metrics
    for metric, (mod, attr, _) in metrics.items():
        obj = importlib.import_module("versal." + mod)
        for name in attr.split("."):
            obj = getattr(obj, name, None)
        assert callable(obj), "%s: versal.%s.%s is gone" % (metric, mod, attr)


@pytest.fixture
def tracehooks(monkeypatch):
    """The hooks module; every name its Tracer rebinds is put back after
    the test."""
    module = load_tracehooks()
    modules = [m for name, m in list(sys.modules.items())
               if name == "versal" or name.startswith("versal.")]
    for mod, attr, _ in module.METRICS.values():
        owner_name, _, name = attr.rpartition(".")
        owner = importlib.import_module("versal." + mod)
        if owner_name:
            owner = getattr(owner, owner_name)
            monkeypatch.setattr(owner, name, getattr(owner, name))
            continue
        fn = getattr(owner, name)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    monkeypatch.setattr(m, key, value)
    return module


def test_rref_cells_reads_the_sparse_matrix_shape(tracehooks):
    # `exactla.rref_cells` sums rows * cols of `rref`'s first argument; a
    # change of that argument's type would quietly turn the metric into 0
    tracer = tracehooks.Tracer()
    tracer.install()
    M = SparseMatrix(4, [{0: 1, 3: 2}, {1: 1}, {0: 2, 3: 4}])
    assert exactla.rank(M) == 2
    report = tracer.report()
    assert report["exactla.rref_cells"] == 12
    assert report["exactla.rref_calls"] == 1


def test_space_hook_targets_are_called(tracehooks):
    # a target that stays callable but drops off the call path (inlined
    # into its caller, say) would report 0 for its per-layer metric; the
    # local branch runs on the cone, the graded one on `nonclosing`.  The
    # spaces are called through the module, whose names the tracer rebinds
    tracer = tracehooks.Tracer()
    assert tracer.install() == []
    cone = as_generator_matrix(load_input(DATA / "quartic_cone.vdef").generators)
    assert cotangent.cotangent1(cone).dimension == 4
    assert cotangent.cotangent2(cone).dimension == 3
    nonclosing = as_generator_matrix(load_input(NONCLOSING).generators)
    assert cotangent.normal_matrix(nonclosing, 0).dimension == 8
    assert cotangent.cotangent1(nonclosing, 0).dimension == 2
    assert cotangent.cotangent2(nonclosing, 0).dimension == 0
    targets = sorted({"%s.%s" % (mod, attr)
                      for mod, attr, _ in tracehooks.METRICS.values()
                      if mod == "cotangent"})
    targets.append("groebner.kernel_mod_ideal")
    assert len(targets) == 6
    for target in targets:
        assert tracer.stats[target]["calls"] >= 1, target
