"""Command-line surface: bound reports, compression, estimation, demos, suites.

Exit codes: 0 success, 1 usage, 2 parse/shape error, 3 verification failure,
4 numerical failure.  Each subcommand accepts only the flags it reads; any
other flag is a usage error.  All commands run on a single worker and are
deterministic for fixed flags (including the seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import bounds, compress, lowerbound, matlin, rademacher, verify
from .errors import NumericalError, ParseError, ShapeError, VerificationError
from .network import (Dataset, Layer, Network, _rng, _save, load_dataset,
                      load_network, profile, save_network, sphere_points)

_FMT = bounds._fmt


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kw):
        # no prefix matching: `sweep --p 3` must not mean `--product 3`
        super().__init__(allow_abbrev=False, **kw)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_p(text: str) -> float:
    p = float(text)
    matlin.schatten(p)  # validates the domain; +inf is the spectral norm
    return p


def _float_list(text: str) -> list[float]:
    return [_parse_p(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the shared flags; each subcommand declares the ones it reads
_FLAGS = {
    "--network": dict(required=True, help="network JSON file"),
    "--data": dict(help="dataset JSON file"),
    "--p": dict(type=_parse_p, default=2.0,
                help=f"Schatten exponent in [1, {matlin.MAX_SCHATTEN_P:g}] or inf (default 2)"),
    "--gamma": dict(type=float, default=1.0, help="margin parameter"),
    "--seed": dict(type=int, default=42),
    "--samples": dict(type=int),  # each subcommand sets its own default
    "--restarts": dict(type=int, default=8),
    "--steps": dict(type=int, default=500),
    "--format": dict(dest="fmt", choices=("table", "structured", "csv"), default="table"),
    "--out": dict(default=None, help="output file (default stdout)"),
    "--override-Gamma": dict(dest="override_gamma", type=float, default=None,
                             help="what-if spectral-norm product"),
    "--override-M": dict(dest="override_m", type=float, default=None,
                         help="what-if Schatten-norm product"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="capnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, flags, help, **defaults):
        sp = sub.add_parser(name, help=help)
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func, **defaults)
        return sp

    command("report", cmd_report, "--network --data --p --gamma --seed "
            "--format --out --override-Gamma --override-M", "evaluate every applicable bound")

    sp = command("compress", cmd_compress, "--network --data --p --seed --samples --out "
                 "--override-Gamma --override-M", "rank-1 layer replacement with certificate",
                 samples=1000)
    sp.add_argument("--r", type=int, required=True, help="replacement depth budget")
    sp.add_argument("--B", type=float, default=None, help="domain radius when no dataset")

    command("rademacher", cmd_rademacher, "--network --data --p --seed --samples --restarts "
            "--steps --format --out", "Monte Carlo complexity of the norm-ball class",
            samples=32)

    sp = command("lowerbound", cmd_lowerbound, "--gamma --seed --samples --out",
                 "construction-vs-floor ratio table (CSV)", samples=0)
    sp.add_argument("--h-grid", type=_int_list, default=[2, 4, 8])
    sp.add_argument("--m-grid", type=_int_list, default=[8, 16])
    sp.add_argument("--p-grid", type=_float_list, default=[1.0, 2.0, math.inf])

    sp = command("sweep", cmd_sweep, "--data --gamma --seed --samples --restarts "
                 "--steps --out", "depth sweep with pinned norm products (CSV)", samples=0)
    sp.add_argument("--depths", type=_int_list, default=list(range(2, 65)))
    sp.add_argument("--family", choices=("ultrathin", "random"), default="ultrathin")
    sp.add_argument("--product", type=float, default=1.0,
                    help="pinned Frobenius-norm product")
    # None marks a flag as not given: --data excludes all three
    sp.add_argument("--m", type=int, default=None, help="synthesised sample count (default 16)")
    sp.add_argument("--B", type=float, default=None, help="synthesised data radius (default 1)")
    sp.add_argument("--dim", type=int, default=None,
                    help="synthesised input dimension (default 4)")

    sp = command("verify", cmd_verify, "", "run property suites")
    sp.add_argument("--suite", choices=tuple(verify.SUITES) + ("all",), default="all")
    return parser


def cmd_report(args) -> int:
    if not args.data:
        raise ParseError("report requires --data")
    net = load_network(args.network)
    data = load_dataset(args.data)
    report = bounds.report_for(net, data, p=args.p, gamma=args.gamma,
                               gamma_override=args.override_gamma,
                               schatten_override=args.override_m)
    if args.fmt == "table":
        text = f"# defaults: p={_FMT(args.p)} gamma={_FMT(args.gamma)} seed={args.seed}\n" \
            + report.render_table()
    elif args.fmt == "structured":
        text = report.render_structured()
    else:
        text = report.render_csv()
    _emit(text, args.out)
    return 0


def cmd_compress(args) -> int:
    net = load_network(args.network)
    if args.data:
        if args.B is not None:
            raise ParseError("compress takes the domain radius from --data or --B, not both")
        data = load_dataset(args.data)
        bounds._check_dim(net, data)
        B = data.radius
        b_source = "dataset"
    elif args.B is not None:
        B = args.B
        b_source = "user"
    else:
        raise ParseError("compress needs --data or --B for the domain radius")
    compressed, cert = compress.rank1_replace(
        net, p=args.p, r=args.r, B=B,
        gamma_override=args.override_gamma, schatten_override=args.override_m,
    )
    observed = compress.verify_certificate(net, compressed, cert, B=B,
                                           samples=args.samples, seed=args.seed)
    lines = [
        f"replaced layer {cert.r_prime} of {net.depth} (requested r={cert.r_requested})",
        f"degenerate_zero={str(cert.degenerate_zero).lower()} B={_FMT(B)} ({b_source})",
        f"lemma_bound={_FMT(cert.lemma_bound)}",
        f"theorem_bound={_FMT(cert.theorem_bound)}",
        f"observed_deviation={_FMT(observed)} ({args.samples} samples, seed {args.seed})",
    ]
    if args.out:
        save_network(compressed, args.out)
        _save(cert.to_obj(), args.out + ".cert.json")
        lines.append(f"wrote {args.out} and {args.out}.cert.json")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _ball_class(net: Network, p: float) -> rademacher.ClassSpec:
    """The norm-ball class induced by a network's own per-layer norms."""
    kind = matlin.schatten(p)
    balls = []
    for layer in net.layers:
        radius = matlin.matrix_norm(layer.weight, kind)
        if radius <= 0:
            raise ShapeError("a zero layer induces an empty ball class")
        balls.append(matlin.BallConstraint(kind, radius))
    return rademacher.ClassSpec(template=net, balls=tuple(balls))


def cmd_rademacher(args) -> int:
    if not args.data:
        raise ParseError("rademacher requires --data")
    net = load_network(args.network)
    data = load_dataset(args.data)
    spec = _ball_class(net, args.p)
    est = rademacher.mc_rademacher(spec, data, epsilon_samples=args.samples,
                                   restarts=args.restarts, steps=args.steps, seed=args.seed)
    obj = {**dataclasses.asdict(est), "p": args.p}
    if args.fmt == "structured":
        text = json.dumps(obj, indent=1) + "\n"
    elif args.fmt == "csv":
        text = bounds.csv_text(list(obj), [list(obj.values())])
    else:
        text = "".join(f"{k}: {_FMT(v) if isinstance(v, float) else v}\n"
                       for k, v in obj.items())
    _emit(text, args.out)
    return 0


def cmd_lowerbound(args) -> int:
    rows = lowerbound.demonstrate_lower_bound(
        h_grid=args.h_grid, m_grid=args.m_grid, p_grid=args.p_grid,
        seed=args.seed, gamma=args.gamma, samples=args.samples,
    )
    header = ["h", "m", "p", "diag_value", "scalar_value", "bound_lower", "ratio"]
    text = bounds.csv_text(header, [list(r.values()) for r in rows])
    _emit(text, args.out)
    return 0


def _ultrathin(depth: int, dim: int, product: float, seed: int) -> Network:
    """Depth-d chain: one row vector then positive scalars, all Frobenius
    norms equal to product^(1/d)."""
    per = product ** (1.0 / depth)
    v = _rng(seed, 0).standard_normal(dim)
    v *= per / float(np.linalg.norm(v))
    layers = [Layer(weight=v[None, :], activation="relu" if depth > 1 else None)]
    for j in range(2, depth + 1):
        layers.append(Layer(weight=np.array([[per]]),
                            activation="relu" if j < depth else None))
    return Network(layers=tuple(layers), input_dim=dim)


def _random_family(depth: int, dim: int, product: float, seed: int) -> Network:
    net = verify.random_net(_rng(seed, 1, depth), depth=depth, max_width=6,
                            scalar_output=True, input_dim=dim)
    per = product ** (1.0 / depth)
    layers = [
        Layer(weight=l.weight * (per / matlin.matrix_norm(l.weight, matlin.FROBENIUS)),
              activation=l.activation)
        for l in net.layers
    ]
    return Network(layers=tuple(layers), input_dim=dim)


def cmd_sweep(args) -> int:
    if any(d < 1 for d in args.depths):
        raise ParseError("depths must be positive")
    if not 0.0 < args.product < math.inf:
        raise ParseError(f"--product must be finite and > 0, got {args.product}")
    if args.data:
        given = [f"--{k}" for k in ("m", "B", "dim") if getattr(args, k) is not None]
        if given:
            raise ParseError(f"{' '.join(given)} synthesise data and cannot be used with --data")
        data = load_dataset(args.data)
    else:
        B = 1.0 if args.B is None else args.B
        compress._check_radius(B)
        data = Dataset(points=B * sphere_points(4 if args.dim is None else args.dim,
                                                16 if args.m is None else args.m,
                                                args.seed, (2,)))
    B, m = data.radius, data.m
    rows = []
    active_plateau = []
    for d in args.depths:
        if args.family == "ultrathin":
            net = _ultrathin(d, data.dim, args.product, args.seed)
        else:
            net = _random_family(d, data.dim, args.product, args.seed)
        prof = profile(net, 2.0)
        ney = bounds.bound_frobenius_exp_depth(prof, B, m)
        sqd = bounds.bound_frobenius_sqrt_depth(prof, data)
        free = bounds.bound_frobenius_depth_free(prof, B, m, args.gamma)
        first, second = bounds.frobenius_depth_free_branches(prof, m)
        if args.family == "ultrathin" and first < second:
            active_plateau.append(free)
        mc_val, mc_err = "", ""
        if args.samples:
            spec = _ball_class(net, 2.0)
            est = rademacher.mc_rademacher(spec, data, epsilon_samples=args.samples,
                                           restarts=args.restarts, steps=args.steps,
                                           seed=args.seed)
            mc_val, mc_err = est.value, est.std_error
        rows.append([d, ney, sqd, free, mc_val, mc_err])
    if active_plateau and max(active_plateau) - min(active_plateau) >= 1e-9:
        raise VerificationError(
            "depth-free column varies across depths while its first branch is active"
        )
    text = bounds.csv_text(
        ["depth", "frobenius_exp_depth", "frobenius_sqrt_depth",
         "frobenius_depth_free", "mc_estimate", "mc_std_error"], rows)
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = verify.run_suites(names)
    failed = False
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        detail = f" ({res.detail})" if res.detail else ""
        sys.stdout.write(f"{status} {res.label}{detail}\n")
        failed = failed or not res.ok
    return 3 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"capnet: missing file: {exc.filename}", file=sys.stderr)
        return 2
    except (ParseError, ShapeError) as exc:
        print(f"capnet: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"capnet: verification failed: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"capnet: numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"capnet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
