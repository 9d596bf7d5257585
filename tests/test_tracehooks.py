"""The per-layer benchmark hooks name functions that still exist.

`perfbench/tracehooks.py` wraps package functions by name and leaves out
the metric of any name it cannot resolve, so a renamed or deleted target
would silently drop a per-layer metric from a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from versal import exactla
from versal.exactla import SparseMatrix

TRACEHOOKS = Path(__file__).resolve().parent.parent / "perfbench" / "tracehooks.py"


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


def test_rref_cells_reads_the_sparse_matrix_shape(monkeypatch):
    # `exactla.rref_cells` sums rows * cols of `rref`'s first argument; a
    # change of that argument's type would quietly turn the metric into 0
    tracehooks = load_tracehooks()
    modules = [m for name, m in list(sys.modules.items())
               if name == "versal" or name.startswith("versal.")]
    for mod, attr, _ in tracehooks.METRICS.values():
        owner_name, _, name = attr.rpartition(".")
        owner = importlib.import_module("versal." + mod)
        if owner_name:
            owner = getattr(owner, owner_name)
            monkeypatch.setattr(owner, name, getattr(owner, name))
            continue
        fn = getattr(owner, name)
        for m in modules:  # every name the tracer rebinds is put back
            for key, value in list(vars(m).items()):
                if value is fn:
                    monkeypatch.setattr(m, key, value)
    tracer = tracehooks.Tracer()
    tracer.install()
    M = SparseMatrix(4, [{0: 1, 3: 2}, {1: 1}, {0: 2, 3: 4}])
    assert exactla.rank(M) == 2
    report = tracer.report()
    assert report["exactla.rref_cells"] == 12
    assert report["exactla.rref_calls"] == 1
