"""Command line interface.

One executable with subcommands for the convolution operators, root
finding, class membership, domain queries, the kernel approximant, and the
randomized theorem verification harness.  Exit codes: 0 success, 1 verdict
or verification failure, 2 usage error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import classes, domains, harness, herglotz, qconv
from .errors import BadParams, NoConvergence, PolyconvError
from .poly import LambdaParam, Polynomial, complex_pairs
from .roots import find_roots


def _fmt(x):
    return f"{x:.17g}"


def _read_poly(path):
    with open(path) as fh:
        return Polynomial.from_json(fh.read())


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _parse_domain_spec(text):
    """unit_disk[_closed] | unit_circle | omega[_closed]:re,im,gamma |
    limacon_{i,o}[_closed]:gamma | complement:<spec>"""
    if text.startswith("complement:"):
        return domains.complement(_parse_domain_spec(text[len("complement:"):]))
    head, _, rest = text.partition(":")
    head = head.lower()
    if head == "unit_disk":
        return domains.DomainSpec(domains.UNIT_DISK_OPEN)
    if head == "unit_disk_closed":
        return domains.DomainSpec(domains.UNIT_DISK_CLOSED)
    if head == "unit_circle":
        return domains.DomainSpec(domains.UNIT_CIRCLE)
    if head in {"omega", "omega_closed"}:
        re, im, gamma = (float(v) for v in rest.split(","))
        return domains.omega(complex(re, im), gamma, closed=head.endswith("closed"))
    if head in {"limacon_i", "limacon_i_closed"}:
        return domains.limacon_inner(float(rest), closed=head.endswith("closed"))
    if head in {"limacon_o", "limacon_o_closed"}:
        return domains.limacon_outer(float(rest), closed=head.endswith("closed"))
    raise ValueError(f"cannot parse domain spec {text!r}")


@functools.cache
def _build_parser():
    """The argument parser, built once per process (parse_args does not
    change it, and building it costs twenty parses)."""
    p = argparse.ArgumentParser(prog="polyconv",
                                description="circle/disk polynomial classes, "
                                            "weighted convolutions, zero domains")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--output-format", choices=["json", "csv"], default="json")
    sub = p.add_subparsers(dest="command")

    q = sub.add_parser("qcoef", help="one convolution weight C_k^(n)(lambda)")
    q.add_argument("n", type=int)
    q.add_argument("k", type=int)
    q.add_argument("lam", type=float)

    qp = sub.add_parser("qpoly", help="the extremal polynomial Q_n(lambda; z)")
    qp.add_argument("n", type=int)
    qp.add_argument("lam", type=float)

    c = sub.add_parser("convolve", help="weighted coefficientwise product")
    c.add_argument("--mode", choices=["gs", "lambda"], default="gs")
    c.add_argument("--lambda", dest="lam", type=float, default=None)
    c.add_argument("f")
    c.add_argument("g")

    r = sub.add_parser("roots", help="roots with multiplicities and circle tags")
    r.add_argument("poly")

    cl = sub.add_parser("classify", help="class membership verdict")
    cl.add_argument("--class", dest="cls", required=True,
                    choices=["T", "D", "PT", "PD"])
    cl.add_argument("--open", action="store_true",
                    help="test the open class (default closed)")
    cl.add_argument("--lambda", dest="lam", type=float, required=True)
    cl.add_argument("--method", choices=["first", "second", "third", "oracle"],
                    default="third",
                    help="route for D and PD at an interior lambda (second: on the split "
                         "P = (F - F^*n)/2); both endpoints are decided by definition")
    cl.add_argument("poly")

    d = sub.add_parser("domain", help="domain membership and boundary data")
    dsub = d.add_subparsers(dest="action")
    dc = dsub.add_parser("contains")
    dc.add_argument("--spec", required=True)
    dc.add_argument("--point", required=True, help="re,im")
    dc.add_argument("--tol", type=float, default=domains.BOUNDARY_TOL)
    dr = dsub.add_parser("roots")
    dr.add_argument("--spec", required=True)
    dr.add_argument("--tol", type=float, default=domains.BOUNDARY_TOL)
    dr.add_argument("poly")
    db = dsub.add_parser("boundary")
    db.add_argument("--spec", required=True)
    db.add_argument("--samples", type=int, default=256)

    h = sub.add_parser("herglotz", help="kernel-combination approximant")
    h.add_argument("--coeffs", required=True,
                   help="JSON file: list of [re, im] Taylor coefficients")
    h.add_argument("--k", type=int, required=True)
    h.add_argument("--r", type=float, required=True)

    v = sub.add_parser("verify", help="randomized theorem trials")
    v.add_argument("--theorem", required=True,
                   choices=["suffridge", "main", "limacon", "gausslucas",
                            "herglotz"])
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--lambda", dest="lam", type=float, default=None)
    v.add_argument("--n-max", type=int)
    v.add_argument("--tau", help="re,im")
    v.add_argument("--gamma", type=float)
    v.add_argument("--max-indeterminate-fraction", type=float, default=0.5)

    i = sub.add_parser("inverse", help="conjugate-reversed coefficients")
    i.add_argument("poly")

    de = sub.add_parser("delta", help="difference-operator image")
    de.add_argument("--lambda", dest="lam", type=float, required=True)
    de.add_argument("poly")

    return p


def _cmd_classify(args):
    p = _read_poly(args.poly)
    lp = LambdaParam(p.nominal_degree, args.lam)
    closed = not args.open
    if args.cls == "T":
        v = classes.in_T(p, lp, closed)
    elif args.cls == "D":
        v = classes.in_D(p, lp, closed, method=args.method)
    else:
        which = f"{args.cls}_{'closed' if closed else 'open'}"
        v = classes.pre_class_test(p, lp, which, method=args.method)
    _emit(args, json.dumps(v.as_dict(), indent=2))
    return 0 if v.member else 1


#: verify's per-theorem options (parser dest: flag), None unless given
_VERIFY_OPTIONS = {"n": "--n", "lam": "--lambda", "n_max": "--n-max",
                   "tau": "--tau", "gamma": "--gamma"}


def _cmd_verify(args):
    if args.trials < 1:
        raise BadParams(f"--trials must be >= 1, got {args.trials}")
    if not 0.0 <= args.max_indeterminate_fraction <= 1.0:
        raise BadParams("--max-indeterminate-fraction must be in [0, 1], "
                        f"got {args.max_indeterminate_fraction}")
    theorem, seed = args.theorem, args.rng_seed
    if theorem == "herglotz":
        reads, hint = (), ""
    elif theorem == "limacon":
        reads, hint = ("n", "tau", "gamma"), ""
    elif (args.n is None) != (args.lam is None):
        given, missing = ("--n", "--lambda") if args.lam is None else ("--lambda", "--n")
        raise BadParams(f"{given} needs {missing}: give both for one grid point, "
                        "or neither for the whole grid")
    else:
        reads = ("n_max",) if args.n is None else ("n", "lam")
        hint = "; it reads --n with --lambda, or else --n-max"
    unread = [flag for k, flag in _VERIFY_OPTIONS.items()
              if k not in reads and getattr(args, k) is not None]
    if unread:
        raise BadParams(f"--theorem {theorem} does not read {', '.join(unread)}{hint}")
    if theorem == "limacon":
        re, im = (float(x) for x in ("1,0" if args.tau is None else args.tau).split(","))
        reports = [harness.run_limacon_trial(
            complex(re, im), 0.5 if args.gamma is None else args.gamma,
            5 if args.n is None else args.n, args.trials, seed=seed)]
    elif theorem == "herglotz":
        reports = [harness.run_herglotz_trial(args.trials, seed)]
    elif args.n is not None:
        reports = [harness._THEOREMS[theorem](args.n, args.lam, args.trials, seed)]
    else:
        reports = harness.run_grid(theorem, args.trials, seed,
                                   8 if args.n_max is None else args.n_max)
    _emit(args, "[\n" + ",\n".join(r.to_json() for r in reports) + "\n]")
    failures = sum(r.failures for r in reports)
    trials = sum(r.trials for r in reports)
    indet = sum(r.indeterminate for r in reports)
    if failures > 0:
        return 1
    if trials and indet / trials > args.max_indeterminate_fraction:
        return 1
    return 0


def _cmd_herglotz(args):
    with open(args.coeffs) as fh:
        coeffs = complex_pairs(json.load(fh))
    h = herglotz.build_approximant(coeffs, args.k, args.r)
    if args.output_format == "csv":
        # error against the supplied Taylor series along growing radii
        lines = ["radius,sup_error"]
        for rho in np.linspace(0.05, 0.9, 18):
            zs = rho * np.exp(2j * np.pi * np.linspace(0, 1, 90, endpoint=False))
            approx = herglotz.evaluate_approximant_many(h, zs)
            ref = np.polyval(np.asarray(coeffs)[::-1], zs)
            lines.append(f"{_fmt(rho)},{_fmt(float(np.max(np.abs(approx - ref))))}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps({
            "m": h.m,
            "weights": [float(w) for w in h.weights],
            "nodes": [[z.real, z.imag] for z in h.nodes],
        }, indent=2))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.command:
            parser.print_usage(sys.stderr)
            return 2
        if args.command == "qcoef":
            _emit(args, _fmt(qconv.q_coefficient(args.n, args.k, args.lam)))
            return 0
        if args.command == "qpoly":
            _emit(args, qconv.q_extremal(args.n, args.lam).to_json())
            return 0
        if args.command == "convolve":
            f = _read_poly(args.f)
            g = _read_poly(args.g)
            if args.mode == "lambda" and args.lam is None:
                raise BadParams("--lambda required for mode lambda")
            out = (qconv.grace_szego(f, g) if args.mode == "gs" else
                   qconv.lambda_convolve(f, g, LambdaParam(f.nominal_degree, args.lam)))
            _emit(args, out.to_json())
            return 0
        if args.command == "roots":
            rs = find_roots(_read_poly(args.poly))
            if args.output_format == "csv":
                _emit(args, "re,im,mult,tag\n" + rs.to_csv())
            else:
                _emit(args, json.dumps([
                    {"re": z.real, "im": z.imag, "mult": m, "tag": t}
                    for (z, m), t in zip(rs.roots, rs.tags())], indent=2))
            return 0
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "domain":
            if args.action in ("contains", "roots") and not 0.0 <= args.tol < math.inf:
                raise BadParams(f"--tol must be finite and >= 0, got {args.tol}")
            if args.action == "contains":
                re, im = (float(x) for x in args.point.split(","))
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise BadParams(f"--point must be finite, got {args.point}")
                spec = _parse_domain_spec(args.spec)
                _emit(args, domains.contains(spec, complex(re, im), args.tol))
                return 0
            if args.action == "roots":
                spec = _parse_domain_spec(args.spec)
                ok, bad = domains.root_set_in(_read_poly(args.poly), spec, args.tol)
                _emit(args, json.dumps({
                    "inside": ok,
                    "offending_root": None if bad is None
                    else [bad.real, bad.imag]}, indent=2))
                return 0 if ok else 1
            if args.action == "boundary":
                spec = _parse_domain_spec(args.spec)
                pts = domains.boundary_polyline(spec, args.samples)
                lines = ["re,im"] + [f"{_fmt(a)},{_fmt(b)}" for a, b in pts]
                _emit(args, "\n".join(lines))
                return 0
            raise BadParams("domain needs an action")
        if args.command == "herglotz":
            return _cmd_herglotz(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "inverse":
            _emit(args, _read_poly(args.poly).n_inverse().to_json())
            return 0
        if args.command == "delta":
            p = _read_poly(args.poly)
            out = qconv.delta(p, LambdaParam(p.nominal_degree, args.lam))
            _emit(args, out.to_json())
            return 0
    except NoConvergence as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (PolyconvError, ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
