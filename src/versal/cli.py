"""Command-line front end.

Subcommands:
  t1 FILE                  basis of first-order deformations
  t2 FILE                  basis of the obstruction space
  normal FILE --degree D   graded piece of the normal module
  deform FILE              versal deformation by order-by-order lifting
  gb FILE                  reduced Groebner basis of the ideal
  hilbert FILE --upto N    Hilbert function in degrees 0..N

``--json`` switches to the structured output document; ``--output PATH``
writes the result to a file instead of stdout.  The environment variable
VERSAL_MAX_ORDER overrides the default lifting bound of ``deform``.
Exit codes: 0 success, 1 computation error, 2 usage error.
"""

import argparse
import os
import sys

from .cotangent import as_generator_matrix, cotangent1, cotangent2, normal_matrix
from .deformation import versal_deformation
from .errors import ParseError, VersalError
from .groebner import buchberger, hilbert_function
from .inputfile import load_input
from .polyring import RingSpec, format_expr
from .render import document, dumps, format_matrix, series_rows

DEFAULT_MAX_ORDER = 20


class _UsageError(Exception):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="versal",
        description="Tangent spaces, obstructions and versal deformations "
                    "of ideals over QQ.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree_required=False, degree=True):
        p.add_argument("input", help="input file (ring, vars, generators)")
        if degree:
            p.add_argument("--degree", required=degree_required,
                           metavar="D", help="comma-separated degree tuple")
        p.add_argument("--json", action="store_true",
                       help="emit the structured output document")
        p.add_argument("--output", metavar="PATH",
                       help="write the result to a file")
        p.add_argument("--verbose", type=int, default=0, metavar="N",
                       help="0 silent, 1 status line, 2 per-order log")

    p = sub.add_parser("t1", help="first-order deformations")
    common(p)
    p = sub.add_parser("t2", help="obstruction space")
    common(p)
    p = sub.add_parser("normal", help="graded piece of the normal module")
    common(p, degree_required=True)
    p = sub.add_parser("deform", help="versal deformation")
    common(p)
    p.add_argument("--max-order", type=int, default=None, metavar="K",
                   help="stop lifting after parameter order K (default %d)"
                        % DEFAULT_MAX_ORDER)
    p = sub.add_parser("gb", help="reduced Groebner basis")
    common(p, degree=False)
    p = sub.add_parser("hilbert", help="Hilbert function values")
    common(p, degree=False)
    p.add_argument("--upto", type=int, required=True, metavar="N",
                   help="report degrees 0..N")
    return parser


def _parse_degree(text, ring):
    try:
        deg = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise _UsageError("bad --degree value %r" % text)
    if not ring.is_graded:
        raise _UsageError(
            "--degree requires a graded ring; declare 'degrees:' in the "
            "input file")
    if len(deg) != ring.grading_rank:
        raise _UsageError(
            "--degree has %d components but the grading has rank %d"
            % (len(deg), ring.grading_rank))
    return deg


def _resolve_max_order(args):
    if args.max_order is not None:
        mo = args.max_order
    else:
        env = os.environ.get("VERSAL_MAX_ORDER")
        if env is None:
            mo = DEFAULT_MAX_ORDER
        else:
            try:
                mo = int(env)
            except ValueError:
                raise _UsageError("bad VERSAL_MAX_ORDER value %r" % env)
    if mo < 1:
        raise _UsageError("--max-order must be at least 1")
    return mo


def _tangent_command(name, args, system):
    degree = None
    if args.degree is not None:
        degree = _parse_degree(args.degree, system.ring)
    F0 = as_generator_matrix(system.generators)
    if name == "t1":
        basis = cotangent1(F0, degree)
        label = "T1"
    elif name == "t2":
        basis = cotangent2(F0, degree)
        label = "T2"
    else:
        basis = normal_matrix(F0, degree)
        label = "normal"
    if args.json:
        return document(name, dims={name: basis.dimension},
                        matrices={"basis": basis.vectors})
    return "dim %s = %d\n%s" % (label, basis.dimension,
                                format_matrix(basis.vectors))


def _gb_command(args, system):
    gb = buchberger(system.generators)
    polys = gb.polynomials()
    if args.json:
        return document("gb", dims={"elements": len(polys)},
                        matrices={"basis": [[format_expr(p)] for p in polys]})
    lines = ["Groebner basis, %d elements:" % len(polys)]
    lines.extend(format_expr(p) for p in polys)
    return "\n".join(lines)


def _hilbert_command(args, system):
    if args.upto < 0:
        raise _UsageError("--upto must be nonnegative")
    ring = system.ring
    if ring.is_graded and ring.grading_rank == 1:
        gens = system.generators
    else:
        # Count by total degree under the standard grading.
        std = RingSpec(ring.x_vars, (), ((1,),) * len(ring.x_vars))
        gens = [p.map_ring(std) for p in system.generators]
    gb = buchberger(gens)
    values = [hilbert_function(gb, (k,)) for k in range(args.upto + 1)]
    if args.json:
        return document("hilbert",
                        dims={str(k): v for k, v in enumerate(values)})
    return "\n".join("H(%d) = %d" % (k, v) for k, v in enumerate(values))


def _deform_command(args, system):
    degree = None
    if args.degree is not None:
        degree = _parse_degree(args.degree, system.ring)
    max_order = _resolve_max_order(args)
    stream = sys.stderr if args.json else sys.stdout
    logger = None
    if args.verbose >= 2:
        logger = lambda line: print(line, file=stream, flush=True)
    res = versal_deformation(system.generators, degree=degree,
                             max_order=max_order, logger=logger)
    status = "polynomial" if res.polynomial else "truncated"
    if args.verbose == 1:
        print("%s after order %d" % (status, res.order), file=stream,
              flush=True)
    F, R = res.family(), res.relations()
    G, C = res.obstruction_equations(), res.coefficient_matrix()
    if args.json:
        return document(
            "deform",
            dims={"t1": res.tangent_dimension,
                  "t2": res.obstruction_dimension},
            matrices={"F": F, "R": R, "G": G, "C": C},
            series={"F": series_rows(res.F_pieces),
                    "R": series_rows(res.R_pieces),
                    "G": series_rows(res.G_pieces),
                    "C": series_rows(res.C_pieces)},
            status=status,
            orders_log=res.log,
        )
    return "\n".join([
        "dim T1 = %d" % res.tangent_dimension,
        "dim T2 = %d" % res.obstruction_dimension,
        "status: %s" % status,
        "order: %d" % res.order,
        "F =", format_matrix(F),
        "R =", format_matrix(R),
        "G =", format_matrix(G),
        "C =", format_matrix(C),
    ])


def _dispatch(args):
    # each handler builds only the form that is written: the document
    # under --json, else the text
    system = load_input(args.input)
    if args.command in ("t1", "t2", "normal"):
        out = _tangent_command(args.command, args, system)
    elif args.command == "gb":
        out = _gb_command(args, system)
    elif args.command == "hilbert":
        out = _hilbert_command(args, system)
    else:
        out = _deform_command(args, system)
    body = dumps(out) if args.json else out + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except _UsageError as e:
        print("versal: %s" % e, file=sys.stderr)
        return 2
    except ParseError as e:
        print("versal: %s" % e, file=sys.stderr)
        return 2
    except OSError as e:
        print("versal: %s" % e, file=sys.stderr)
        return 2
    except VersalError as e:
        print("versal: error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
