"""One timed `versal` command in a fresh interpreter.

Usage (from the repository root):
    python3 perfbench/child.py [--trace] deform FILE [versal options...]

Imports versal from ./src, reads and parses FILE (the end of set-up), then
calls the command-line entry point with the remaining arguments and times
it up to its return, with the output flushed.  The command's own output goes
to stdout; the last line of stderr is a JSON record:

    {"ready": <CLOCK_MONOTONIC at the end of set-up>, "deform_s": ...,
     "rss_kb": <peak resident set of this process>, "code": <exit code>}

The peak is VmHWM of /proc/self/status, the high-water mark of this
program's own memory.  ru_maxrss is not used: Linux carries it over from
the runner across fork and exec, so it reads at least the runner's size.

With --trace the per-layer hooks of tracehooks.py are installed after
set-up, and the record also carries "trace" (metric -> value), "missing"
and "total_s", the traced wall time of the command.
"""

import json
import os
import sys
import time


def peak_rss_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    args = sys.argv[1:]
    trace = args[:1] == ["--trace"]
    if trace:
        args = args[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import versal.cli
    import versal.inputfile

    versal.inputfile.load_input(args[1])
    ready = time.monotonic()
    record = {"ready": ready}
    if trace:
        from tracehooks import Tracer

        tracer = Tracer()
        record["missing"] = tracer.install()
    t0 = time.perf_counter()
    code = versal.cli.main(args)
    sys.stdout.flush()
    elapsed = time.perf_counter() - t0
    record.update(deform_s=elapsed, code=code, rss_kb=peak_rss_kb())
    if trace:
        record.update(trace=tracer.report(), total_s=elapsed)
    sys.stderr.write("\n" + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
