"""Benchmark of `versal deform`, end to end and per layer.

Usage (from the repository root):
    python3 perfbench/run.py --workload cone --seed 1 --seconds 30 --trace 0

One client runs one `versal deform ... --json` command at a time, each in a
fresh interpreter (perfbench/child.py), until --seconds have passed: a
closed loop.  Every output is checked by checks.py, apart from the program.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones:

    deform_s      median wall time of the entry point call, output flushed
    setup_s       median time from spawning the interpreter to the input
                  file parsed, `import versal` included
    peak_rss_mb   median peak resident memory of the command's process

The two times are scaled to a reference host speed.  Before the first
command and after each one, this process times 60 repeats of a fixed piece
of Fraction arithmetic (calibrate).  Each command's times are multiplied by
(CALIBRATION_REF_S / c) ** CALIBRATION_EXPONENT, where c is the median of
the 120 repeats just before and just after it, and the metrics are the
medians of the scaled times.  The host this was tuned on changes speed by
up to 1.8x for seconds to minutes at a time, and the calibration follows
it; it never runs versal code, so it does not move with the program, and a
change to the program moves the scaled times as it moves the wall times.
The run and its commands are kept on one CPU, so the calibration times the
CPU the commands ran on.  The unscaled wall times are printed to stderr and
kept in the result file.

With --trace 1 every command runs with the per-layer hooks of tracehooks.py
and the metrics are the medians of the per-layer figures over the commands.
See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from checks import (NONCLOSING_MAX_ORDER, CheckError, check_identity,
                    check_output, family_terms, make_rng, read_vdef)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")

# name -> (input file, extra arguments of `versal deform`)
WORKLOADS = {
    "cone": ("demos/data/quartic_cone.vdef", []),
    "diagonal": ("demos/data/diagonal_p2cubed.vdef", ["--degree", "0,0,0"]),
    "nonclosing": ("perfbench/nonclosing.vdef",
                   ["--degree", "0", "--max-order", str(NONCLOSING_MAX_ORDER)]),
}

# A run must end within 180 s; no command is started that could pass this.
RUN_LIMIT_S = 170.0

# Time of one calibration product on the tuning host at its usual speed;
# times are reported in seconds of a host on which it takes this long.
CALIBRATION_REF_S = 0.005
# A command slows by less than the calibration does: over 60 runs of 40 s
# the log of a run's median wall time moved 0.56-0.73 times the log of its
# median calibration time, since the calibration sees only the edges of
# each command.  Scaling by the full factor overcorrected slow periods.
CALIBRATION_EXPONENT = 0.75
_CAL_A = {(i % 7, i % 5, i % 3): Fraction(i + 1, 2 * i + 3) for i in range(40)}
_CAL_B = {(i % 3, i % 7, i % 5): Fraction(3 * i + 1, i + 2) for i in range(40)}


def calibrate():
    """Times of 60 products of two fixed sparse polynomials with Fraction
    coefficients, as dicts keyed by exponent tuples: work like versal's,
    done without versal."""
    times = []
    for _ in range(60):
        t0 = time.perf_counter()
        acc = {}
        for ma, ca in _CAL_A.items():
            for mb, cb in _CAL_B.items():
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                acc[m] = acc.get(m, 0) + ca * cb
        times.append(time.perf_counter() - t0)
    return times


class CommandFailed(Exception):
    pass


def run_command(path, extra, trace, timeout):
    """Run one command; returns (stdout bytes, child record with setup_s)."""
    argv = [sys.executable, CHILD] + (["--trace"] if trace else []) \
        + ["deform", path] + extra + ["--json"]
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "VERSAL_MAX_ORDER")}
    spawn = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          timeout=timeout)
    err = proc.stderr.decode("utf-8", "replace").strip().splitlines()
    try:
        record = json.loads(err[-1])
    except (IndexError, ValueError):
        record = {}
    if proc.returncode != 0 or record.get("code") != 0:
        raise CommandFailed("exit %d: %s" % (proc.returncode,
                                             "\n".join(err[-5:])))
    record["setup_s"] = record["ready"] - spawn
    return proc.stdout, record


def _summary(values):
    if len(values) < 2:
        return "n=%d value=%.4f" % (len(values), values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return "n=%d median=%.4f q1=%.4f q3=%.4f" % (len(values), q2, q1, q3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    path, extra = WORKLOADS[args.workload]
    for need in (os.path.join("src", "versal", "cli.py"), path):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print("perfbench: %s is missing; run from a full checkout" % need,
                  file=sys.stderr)
            return 2
    if importlib.util.find_spec("sympy") is None:
        print("perfbench: sympy is missing; the output checks need it",
              file=sys.stderr)
        return 2
    x_vars, generators = read_vdef(os.path.join(ROOT, path))

    start = time.monotonic()
    attempted = failed = 0
    correct = True
    first = None          # (raw bytes, parsed Output) of the first good run
    records = []
    durations = []
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calibration = calibrate()
    while True:
        attempted += 1
        rng = make_rng(args.seed, attempted)
        t0 = time.monotonic()
        try:
            raw, record = run_command(
                path, extra, args.trace,
                RUN_LIMIT_S - (t0 - start))
        except (CommandFailed, subprocess.TimeoutExpired) as e:
            failed += 1
            print("perfbench: command failed: %s" % e, file=sys.stderr)
            raw = None
        previous, calibration = calibration, calibrate()
        durations.append(time.monotonic() - t0)
        if raw is not None:
            record["calibration_s"] = statistics.median(previous
                                                         + calibration)
            try:
                if first is None:
                    out = check_output(args.workload, raw.decode("utf-8"),
                                       x_vars, generators, rng)
                    first = (raw, out)
                elif raw != first[0]:
                    raise CheckError("output differs from the first repeat")
                else:
                    check_identity(first[1], rng)
                if args.trace and "deformation.orders" in record["trace"]:
                    orders = record["trace"]["deformation.orders"]
                    if orders != first[1].order - 1:
                        raise CheckError(
                            "hook counted %d lift steps, output reached "
                            "order %d" % (orders, first[1].order))
            except CheckError as e:
                correct = False
                print("perfbench: check failed: %s" % e, file=sys.stderr)
            records.append(record)
        # Start another command only if it would end nearer to --seconds
        # than stopping now does, so runs of every workload last about
        # --seconds, and never one that could pass the run limit.
        elapsed = time.monotonic() - start
        typical = statistics.median(durations)
        if elapsed + typical / 2 >= args.seconds or \
                elapsed + 2 * max(durations) > RUN_LIMIT_S:
            break

    if not records:
        print("perfbench: no command succeeded", file=sys.stderr)
        return 1

    metrics = {}
    if args.trace:
        for name in sorted({n for rec in records for n in rec["missing"]}):
            print("perfbench: warning: %s is missing (its hook target is "
                  "gone)" % name, file=sys.stderr)
        samples = {}
        for rec in records:
            values = dict(rec["trace"])
            values["trace.total_s"] = rec["total_s"]
            for name, value in values.items():
                samples.setdefault(name, []).append(value)
        if first is not None:
            samples["deformation.family_terms"] = [family_terms(first[1])]
        for name, values in samples.items():
            unit = "s" if name.endswith("_s") else \
                "bytes" if name.endswith("_bytes") else "count"
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        samples = {
            "peak_rss_mb": [r["rss_kb"] * 1024 / 1e6 for r in records],
            "calibration_s": [r["calibration_s"] for r in records],
        }
        for name in ("deform_s", "setup_s"):
            samples[name] = [r[name] * (CALIBRATION_REF_S / r["calibration_s"])
                             ** CALIBRATION_EXPONENT for r in records]
            samples[name[:-2] + "_wall_s"] = [r[name] for r in records]
        units = {"deform_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": unit} for name, unit in units.items()}
    for name, values in sorted(samples.items()):
        print("perfbench: %-34s %s" % (name, _summary(values)),
              file=sys.stderr)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(dict(result, samples=samples, seconds=args.seconds), fh,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
