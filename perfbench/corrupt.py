"""Show that the output checks reject corrupted copies of real outputs.

Usage (from the repository root):
    python3 perfbench/corrupt.py

Runs `versal deform --json` once per workload, checks the output, then makes
corrupted copies and checks each one.  Each of F, R, G and C gets one
coefficient negated: the first term of highest parameter order in the first
nonzero entry, changed in the total matrix and in its series piece alike, so
only the identity or the facts can catch it.  One more copy has every entry
of R zero, totals and series alike, which the identity alone cannot catch.
On `nonclosing` one more has R multiplied by its first variable, which only
the span check of its syzygies catches.  A last copy states a wrong T1.
Prints which check rejected each copy; exits 1 if any copy passes.
"""

import copy
import json
import os
import sys

from checks import CheckError, Output, check_output, make_rng, read_vdef
from run import ROOT, WORKLOADS, run_command


def format_poly(poly, names):
    if not poly:
        return "0"
    terms = []
    for mono, c in poly.items():
        factors = ["%s^%d" % (names[i], e) for i, e in enumerate(mono) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else [])
                        + factors)
        terms.append(("-" if c < 0 else "+") + body)
    return "".join(terms)


def flipped(out, key):
    """A copy of the document with one coefficient of matrix `key` negated."""
    for i, row in enumerate(out.mat[key]):
        for j, poly in enumerate(row):
            if not poly:
                continue
            mono = max(poly, key=out.t_degree)
            order = out.t_degree(mono)
            doc = copy.deepcopy(out.doc)
            for cells, rows in (
                    (doc["matrices"][key], out.mat[key]),
                    (doc["series"][key][str(order)], out.series[key][order])):
                changed = dict(rows[i][j])
                changed[mono] = -changed[mono]
                cells[i][j] = format_poly(changed, out.names)
            return doc, "%s[%d][%d] term of order %d" % (key, i, j, order)
    return None, "%s has no nonzero entry" % key


def scaled_r(out):
    """A copy of the document with R multiplied by the first variable."""
    shift = (1,) + (0,) * (len(out.names) - 1)

    def times_x(poly):
        return format_poly({tuple(a + b for a, b in zip(mo, shift)): c
                            for mo, c in poly.items()}, out.names)

    doc = copy.deepcopy(out.doc)
    doc["matrices"]["R"] = [[times_x(p) for p in row] for row in out.mat["R"]]
    for order, rows in out.series["R"].items():
        doc["series"]["R"][str(order)] = [[times_x(p) for p in row]
                                          for row in rows]
    return doc


def main():
    escaped = 0
    for workload, (path, extra) in WORKLOADS.items():
        x_vars, generators = read_vdef(os.path.join(ROOT, path))
        raw, _ = run_command(path, extra, False, 170)
        raw = raw.decode("utf-8")
        check_output(workload, raw, x_vars, generators, make_rng(0, 0))
        out = Output(raw, x_vars)
        copies = [flipped(out, key) for key in Output.MATRICES]
        doc = copy.deepcopy(out.doc)
        for rows in [doc["matrices"]["R"]] + list(doc["series"]["R"].values()):
            for row in rows:
                row[:] = ["0"] * len(row)
        copies.append((doc, "R zero"))
        if workload == "nonclosing":
            copies.append((scaled_r(out), "R times %s" % x_vars[0]))
        doc = copy.deepcopy(out.doc)
        doc["dims"]["t1"] += 1
        copies.append((doc, "dims t1 = %d" % doc["dims"]["t1"]))
        for doc, what in copies:
            if doc is None:
                print("%-10s %-36s skipped" % (workload, what))
                continue
            try:
                check_output(workload, json.dumps(doc), x_vars, generators,
                             make_rng(0, 1))
            except CheckError as e:
                print("%-10s %-36s rejected: %s" % (workload, what, e))
            else:
                escaped += 1
                print("%-10s %-36s PASSED THE CHECKS" % (workload, what))
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
