"""Command-line entry point: solve / geometry / bench subcommands.

Polytope arguments accept either a built-in name (simplex3, box2, ...) or a
path to a file that ``load_polytope`` reads: JSON holding {"A","b","D","e"}
(H-form, equalities optional) or {"vertices": [[...], ...]} (V-form), or the
keyword text format.  Objective specs use a small key=value mini-language
documented in the README; vector- and matrix-valued keys take either a file
path or semicolon-separated numbers.

Exit codes: 0 success, 1 envelope/invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .geometry import (
    distance_for,
    inner_facial_distance,
    outer_facial_distance,
    phi_lower_bound,
    sigma_profile,
)
from .harness import bench
from .instances import named_objective, named_polytope
from .objectives import distance_squared, power_distance, quadratic
from .polytope import PolytopeError, load_polytope
from .solvers import solve


class UsageError(Exception):
    pass


def _load_polytope(spec):
    try:
        return named_polytope(spec)
    except KeyError:
        if not os.path.exists(spec):
            raise UsageError(f"unknown polytope {spec!r}: not a built-in name or a file")
    try:
        return load_polytope(spec)
    except (OSError, PolytopeError) as exc:
        raise UsageError(f"cannot read polytope file {spec!r}: {exc}")


def _load_array(val):
    """A numeric value: a file path (whitespace table) or 'a;b;c' inline."""
    try:
        if os.path.exists(val):
            return np.loadtxt(val)
        return np.asarray([float(tok) for tok in val.split(";")])
    except ValueError as exc:
        raise UsageError(f"cannot parse numbers from {val!r}: {exc}")


def _parse_objective(spec, n):
    head, _, rest = spec.partition(":")
    opts = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise UsageError(f"objective option {item!r} is not key=value")
            opts[key] = val
    if head == "quad":
        if "Q" not in opts or "c" not in opts:
            raise UsageError("quad objective needs Q=<file> and c=<file>")
        Q = np.atleast_2d(_load_array(opts["Q"]))
        c = np.atleast_1d(_load_array(opts["c"]))
        return quadratic(Q, c)
    if head == "powdist":
        try:
            p = float(opts.get("p", 2))
        except ValueError:
            raise UsageError(f"powdist exponent p must be a number, got {opts['p']!r}")
        center = (np.atleast_1d(_load_array(opts["center"]))
                  if "center" in opts else np.zeros(n))
        if p == 2:
            return distance_squared(center)
        return power_distance(center, p)
    try:
        return named_objective(head)
    except KeyError:
        raise UsageError(f"unknown objective {spec!r}")


def _parse_point(val, what, n):
    try:
        x = np.asarray([float(tok) for tok in val.split(",")])
    except (AttributeError, ValueError):
        raise UsageError(f"{what} must be comma-separated numbers, got {val!r}")
    if x.size != n:
        raise UsageError(f"{what} needs {n} coordinates, got {x.size}")
    return x


def _parse_face(val):
    toks = [tok.strip() for tok in val.split(",") if tok.strip()]
    try:
        return [int(tok[1:] if tok.startswith("v") else tok) for tok in toks]
    except ValueError:
        raise UsageError(f"face spec must be vertex indices like v0 or v0,v2: {val!r}")


def _cmd_solve(args):
    poly = _load_polytope(args.polytope)
    obj = _parse_objective(args.objective, poly.n)
    if obj.n != poly.n:
        raise UsageError(f"objective has dimension {obj.n}, the polytope {poly.n}")
    x0 = _parse_point(args.x0, "--x0", poly.n) if args.x0 else None
    trace = solve(poly, obj, args.variant.upper(), step=args.step,
                  max_iters=args.max_iters, gap_tol=args.tol, x0=x0)
    trace.to_csv(args.trace)
    print(f"{poly.name} {args.variant} {args.step}: {len(trace.records)} iterations, "
          f"final f={trace.f_final:.12g}, fw_gap={trace.fw_gap_final:.6g}, "
          f"stopped on {trace.terminal_reason}; trace -> {args.trace}")
    return 0


def _cmd_geometry(args):
    poly = _load_polytope(args.polytope)
    op = args.op
    if op in ("radial", "vertex", "face"):
        if args.x is None or args.y is None:
            raise UsageError(f"--op {op} needs --x and --y points")
        x = _parse_point(args.x, "--x", poly.n)
        y = _parse_point(args.y, "--y", poly.n)
        print(f"{distance_for(op)(poly, y, x):.16g}")
        return 0
    if op == "sigma":
        print(",".join(f"{s:.16g}" for s in sigma_profile(poly)))
        return 0
    if args.face is None:
        raise UsageError(f"--op {op} needs --face (vertex indices like v0)")
    face = _parse_face(args.face)
    if op == "phi":
        val = inner_facial_distance(poly, face)
    elif op == "phibar":
        val = outer_facial_distance(poly, face)
    else:  # lb
        val = phi_lower_bound(poly, face)
    print(f"{val:.16g}")
    return 0


def _cmd_bench(args):
    rows = bench(args.suite, args.out, max_iters=args.max_iters, gap_tol=args.tol)
    for row in rows:
        print(f"{row['instance']:20s} {row['variant']:5s} {row['step']:4s} "
              f"iters={row['iters']:6d} regime={row['regime']:12s} "
              f"envelope={row['envelope']}")
    return 1 if any(row["envelope"] == "fail" for row in rows) else 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fwpoly",
        description="Projection-free solvers on polytopes with certified rate checks")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("solve", help="run one solver and write a trace CSV")
    sp.add_argument("--polytope", required=True)
    sp.add_argument("--objective", required=True)
    sp.add_argument("--variant", required=True,
                    choices=["fw", "afw", "bpfw", "ifw", "fwipw"])
    sp.add_argument("--step", default="ss", choices=["ls", "ss", "pow2"])
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--max-iters", type=int, default=1000)
    sp.add_argument("--x0", default=None,
                    help="start point, comma-separated (default: a vertex)")
    sp.add_argument("--trace", default="trace.csv")
    sp.set_defaults(fn=_cmd_solve)

    gp = sub.add_parser("geometry", help="evaluate distances and face constants")
    gp.add_argument("--polytope", required=True)
    gp.add_argument("--op", required=True,
                    choices=["radial", "vertex", "face", "phi", "phibar", "lb",
                             "sigma"])
    gp.add_argument("--face", default=None, help="vertex indices, e.g. v0 or v0,v2")
    gp.add_argument("--x", default=None)
    gp.add_argument("--y", default=None)
    gp.set_defaults(fn=_cmd_geometry)

    bp = sub.add_parser("bench", help="run a named suite and write traces + summary")
    bp.add_argument("--suite", required=True,
                    choices=["wolfe", "interior", "theta-sweep", "fwipw"])
    bp.add_argument("--out", required=True)
    bp.add_argument("--tol", type=float, default=1e-10)
    bp.add_argument("--max-iters", type=int, default=20000)
    bp.set_defaults(fn=_cmd_bench)
    return ap


def parse_and_dispatch(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PolytopeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
