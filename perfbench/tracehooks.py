"""Per-layer spans and counters for one traced `versal` command.

The hooks wrap functions of the installed package from outside: every
module attribute (or class attribute) that is bound to a target function is
replaced by one wrapper, so a name imported into several modules
(`buchberger` into groebner, cotangent, deformation and cli; `rref` into
cotangent) is counted once per call, whichever name the caller used.
`exactla.rank` and `exactla.kernel_basis` call `exactla.rref` through the
module global, so they are covered by the `rref` hook.

Spans nest.  A span's self time is its wall time minus the wall time of the
spans it encloses, so no interval is counted twice.  Counter hooks (the
`_Engine` methods, called thousands of times inside `buchberger`) record
calls only and open no span, so they leave `buchberger`'s self time whole.

A target that no longer exists is reported as missing; its metrics are
left out rather than reported as 0.
"""

import functools
import sys
import time

# metric name -> (module, attribute, statistic)
#   self   wall time minus enclosed spans, summed over calls
#   incl   wall time of outermost calls, summed
#   last   wall time of the final call
#   calls  number of calls
#   cells  rows * cols of the first argument, summed over calls
#   out    size of the result: len() of a list, UTF-8 bytes of a string
METRICS = {
    "inputfile.load_input_s": ("inputfile", "load_input", "self"),
    "cotangent.cotangent1_s": ("cotangent", "cotangent1", "incl"),
    "cotangent.cotangent2_s": ("cotangent", "cotangent2", "incl"),
    "cotangent.normal_matrix_s": ("cotangent", "normal_matrix", "incl"),
    "cotangent.subquotient_s": ("cotangent", "_subquotient_std_basis", "incl"),
    "cotangent.graded_kernel_s": ("cotangent", "_graded_kernel", "self"),
    "groebner.buchberger_s": ("groebner", "buchberger", "self"),
    "groebner.buchberger_calls": ("groebner", "buchberger", "calls"),
    "groebner.syzygy_columns_s": ("groebner", "_syzygy_columns", "self"),
    "groebner.syzygy_columns_out": ("groebner", "_syzygy_columns", "out"),
    "groebner.minimal_columns_s": ("groebner", "_minimal_columns_graded", "self"),
    "groebner.kernel_mod_ideal_s": ("groebner", "kernel_mod_ideal", "self"),
    "groebner.module_quotient_lift_s": ("groebner", "module_quotient_lift", "self"),
    "groebner.spairs_reduced": ("groebner", "_Engine.spoly", "calls"),
    "groebner.reductions": ("groebner", "_Engine.reduce_full", "calls"),
    "groebner.basis_elements": ("groebner", "_Engine._append", "calls"),
    "exactla.rref_s": ("exactla", "rref", "self"),
    "exactla.rref_calls": ("exactla", "rref", "calls"),
    "exactla.rref_cells": ("exactla", "rref", "cells"),
    "deformation.reduction_setup_s": ("deformation", "_reduction_setup", "self"),
    "deformation.error_term_s": ("deformation", "_error_term", "self"),
    "deformation.xbasis_reduce_s": ("deformation", "_XBasis.reduce", "self"),
    "deformation.phase_a_s": ("deformation", "_phase_a", "self"),
    "deformation.identity_defect_s": ("deformation", "_identity_defect", "self"),
    "deformation.last_order_s": ("deformation", "_lift_step", "last"),
    "deformation.orders": ("deformation", "_lift_step", "calls"),
    "render.dumps_s": ("render", "dumps", "self"),
    "render.json_bytes": ("render", "dumps", "out"),
}

_TIMED = {"self", "incl", "last"}


class Tracer:
    """Span and counter totals for one process, keyed by target."""

    def __init__(self):
        self.stack = []          # enclosed-span time of each open span
        self.open = {}           # target -> depth of open calls
        self.stats = {}          # target -> {statistic: value}
        self.missing = []        # metric names whose target is gone

    def _stat(self, target):
        return self.stats.setdefault(
            target, {"self": 0.0, "incl": 0.0, "last": 0.0, "calls": 0,
                     "cells": 0, "out": 0})

    def span(self, target, fn):
        stat = self._stat(target)
        stack, depth = self.stack, self.open

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stat["calls"] += 1
            if args and hasattr(args[0], "rows") and hasattr(args[0], "cols"):
                stat["cells"] += args[0].rows * args[0].cols
            depth[target] = depth.get(target, 0) + 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                enclosed = stack.pop()
                if stack:
                    stack[-1] += dt
                depth[target] -= 1
                stat["self"] += dt - enclosed
                stat["last"] = dt
                if not depth[target]:
                    stat["incl"] += dt
            stat["out"] += _size(result)
            return result

        return wrapped

    def counter(self, target, fn):
        stat = self._stat(target)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stat["calls"] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self):
        """Wrap every target; returns the list of missing metric names."""
        wanted = {}
        for metric, (mod, attr, stat) in METRICS.items():
            wanted.setdefault((mod, attr), []).append((metric, stat))
        for (mod, attr), metrics in wanted.items():
            module = sys.modules.get("versal." + mod)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, name, None) if owner is not None else None
            if not callable(fn):
                self.missing.extend(m for m, _ in metrics)
                continue
            target = "%s.%s" % (mod, attr)
            timed = any(s in _TIMED for _, s in metrics)
            wrapper = (self.span if timed else self.counter)(target, fn)
            if owner_name:
                setattr(owner, name, wrapper)
                continue
            for mname, m in list(sys.modules.items()):
                if mname != "versal" and not mname.startswith("versal."):
                    continue
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
        return self.missing

    def report(self):
        """{metric: value} for every target that was wrapped."""
        out = {}
        for metric, (mod, attr, stat) in METRICS.items():
            if metric in self.missing:
                continue
            out[metric] = self._stat("%s.%s" % (mod, attr))[stat]
        return out


def _size(result):
    if isinstance(result, str):
        return len(result.encode("utf-8"))
    if isinstance(result, list):
        return len(result)
    return 0
