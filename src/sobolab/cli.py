"""Command-line front end.

Subcommands (one verb per library capability):

  gen      sample a dataset from a distribution config     -> dataset CSV
  interp   build the bump interpolant of a dataset         -> interpolant CSV
  norm     exact W^{k,p} norm of a stored interpolant
  check    structural battery: packing, in-degree, interpolation, norm bound
  risk     excess-risk estimates for a dataset's bump interpolant
  sweep    run a config-driven experiment sweep            -> CSV + summary

Every verb but norm takes --config (norm reads (k, p, d) from its
interpolant file); only risk and sweep take --threads (default: CPU count).

Exit codes: 0 success, 1 at least one contract failed, 2 invalid usage or
config.  Commands that sample require an explicit --seed; reruns with the
same seed and config are byte-identical, whatever the thread count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import experiments, geometry, interpolant, model, risk
from .bump import reference_moduli
from .errors import InvalidRange, SobolabError, UnsupportedSpec

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_USAGE = 2


def _seed_type(raw):
    value = int(raw)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _threads_type(raw):
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("threads must be at least 1")
    return value


def _add_common(sub, seed=False, out=False, threads=False):
    sub.add_argument("--config", required=True, metavar="PATH",
                     help="config file (sections [params], [distribution], [sweep])")
    if seed:
        sub.add_argument("--seed", required=True, type=_seed_type, metavar="U64",
                         help="master seed; required for commands that sample")
    if out:
        sub.add_argument("--out", required=True, metavar="DIR",
                         help="output directory (created if absent)")
    if threads:
        sub.add_argument("--threads", type=_threads_type,
                         default=os.cpu_count() or 1, metavar="N",
                         help="worker threads (results independent of N)")


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args):
    params, spec = config_mod.load_distribution(args.config)
    ds = model.sample(spec, args.n, args.seed)
    out = _outdir(args) / f"dataset_n{args.n}_seed{args.seed}.csv"
    geometry.save_dataset(ds, out)
    print(f"wrote {ds.n} points in d={params.d} to {out}")
    return EXIT_OK


def cmd_interp(args):
    params, _ = config_mod.load_distribution(args.config)
    ds = geometry.load_dataset(args.data)
    radii = geometry.nn_radii(ds)
    f = interpolant.build(ds, radii, args.shrink, params)
    out = _outdir(args) / f"interpolant_shrink{args.shrink!r}.csv"
    interpolant.save_interpolant(f, params, args.shrink, out)
    print(f"wrote {f.n}-bump interpolant (shrink={args.shrink}) to {out}")
    return EXIT_OK


def cmd_norm(args):
    f, params, _ = interpolant.load_interpolant(args.interp)
    moduli = reference_moduli(params)
    # at large p the linear-scale sum overflows; its result is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        norm = interpolant.sobolev_norm(f, moduli)
    if not math.isfinite(norm):
        raise InvalidRange(
            f"W^{{{params.k},{params.p}}} norm of {args.interp} is {norm!r}: "
            f"not finite in double precision at p = {params.p!r}")
    print(f"W^{{{params.k},{params.p}}} norm: {norm!r}")
    return EXIT_OK


def cmd_check(args):
    params, _ = config_mod.load_distribution(args.config)
    ds = geometry.load_dataset(args.data)
    if ds.dim != params.d:
        raise SobolabError(f"dataset d={ds.dim} but config says d={params.d}")
    radii = geometry.nn_radii(ds)
    failures = 0

    packing = geometry.check_packing(ds, radii)
    print(f"packing: {len(packing)} violations")
    failures += len(packing)

    tau = geometry.kissing_number(ds.dim)
    degrees = geometry.in_degrees(geometry.nn_graph(ds))
    worst = int(degrees.max())
    print(f"in-degree: max {worst} (bound {tau})")
    failures += int(not worst <= tau)

    moduli = reference_moduli(params)
    f = interpolant.build(ds, radii, 1.0, params)
    resid = float(np.max(interpolant.interpolation_residual(f, ds)))
    print(f"interpolation: max residual {resid:.3e} "
          f"(tolerance {interpolant.INTERPOLATION_TOL:g})")
    failures += int(not resid <= interpolant.INTERPOLATION_TOL)

    norm_p, bound, violated = interpolant.norm_bound_check(f, ds, radii, moduli)
    print(f"norm bound: norm^p = {norm_p:.6g} <= {bound:.6g}")
    failures += int(violated)

    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return EXIT_OK if failures == 0 else EXIT_CONTRACT


def cmd_risk(args):
    params, spec = config_mod.load_distribution(args.config)
    ds = geometry.load_dataset(args.data)
    radii = geometry.nn_radii(ds)
    f = interpolant.build(ds, radii, args.shrink, params)
    mc = risk.excess_risk_mc(f, spec, args.mc_samples, args.seed,
                             threads=args.threads)
    print(f"excess risk (monte-carlo): {mc.mean!r} +- {mc.stderr!r} "
          f"[{mc.samples} samples]")
    try:
        sa = risk.excess_risk_semianalytic(f, spec)
        agree = "agrees" if mc.within(sa.mean) else "DISAGREES"
        print(f"excess risk (semi-analytic): {sa.mean!r} ({agree} within 3 stderr)")
    except UnsupportedSpec:  # no closed form for this spec; a failure raises
        pass
    bayes = risk.bayes_risk_mc(spec, args.mc_samples, args.seed,
                               threads=args.threads)
    print(f"bayes risk (monte-carlo): {bayes.mean!r} +- {bayes.stderr!r}")
    return EXIT_OK


def cmd_sweep(args):
    cfg = config_mod.load_sweep(args.config, seed_override=args.seed)
    result = experiments.run(cfg, _outdir(args), fmt=args.format,
                             threads=args.threads)
    for contract in result.contracts:
        status = "pass" if contract.passed else "FAIL"
        print(f"[{status}] {contract.name}: observed {contract.observed!r} "
              f"(target {contract.target})")
    print(f"summary written to {Path(args.out) / (cfg.config_id + '_summary.json')}")
    return EXIT_OK if result.all_passed else EXIT_CONTRACT


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sobolab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("gen", help="sample a dataset")
    _add_common(s, seed=True, out=True)
    s.add_argument("-n", type=int, required=True, help="sample size (>= 2)")
    s.set_defaults(handler=cmd_gen)

    s = sub.add_parser("interp", help="build a bump interpolant")
    _add_common(s, out=True)
    s.add_argument("--data", required=True, metavar="CSV", help="dataset file")
    s.add_argument("--shrink", type=float, default=1.0)
    s.set_defaults(handler=cmd_interp)

    s = sub.add_parser("norm", help="exact Sobolev norm of an interpolant")
    s.add_argument("--interp", required=True, metavar="CSV",
                   help="interpolant file")
    s.set_defaults(handler=cmd_norm)

    s = sub.add_parser("check", help="structural invariant battery")
    _add_common(s)
    s.add_argument("--data", required=True, metavar="CSV", help="dataset file")
    s.set_defaults(handler=cmd_check)

    s = sub.add_parser("risk", help="excess-risk estimates")
    _add_common(s, seed=True, threads=True)
    s.add_argument("--data", required=True, metavar="CSV", help="dataset file")
    s.add_argument("--shrink", type=float, default=1.0)
    s.add_argument("--mc-samples", type=int, default=200_000)
    s.set_defaults(handler=cmd_risk)

    s = sub.add_parser("sweep", help="run a config-driven sweep")
    _add_common(s, seed=True, out=True, threads=True)
    s.add_argument("--format", choices=("csv", "json-lines"), default="csv",
                   help="row output format")
    s.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.handler(args)
    except (SobolabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
