"""The per-layer benchmark hooks name functions that still exist.

`perfbench/tracehooks.py` wraps package functions by name and leaves out
the metric of any name it cannot resolve, so a renamed or deleted target
would silently drop a per-layer metric from a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

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
