"""Command-line interface.

One JSON document per invocation on stdout; diagnostics on stderr.
Exit codes: 0 success, 1 domain error (single-line error JSON), 2 usage
error.  Every stochastic subcommand requires --seed; there is no silent
nondeterminism.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .cliques import neighbour_bitsets
from .complexes import ComplexParams, Convention, simplex_counts, threshold_edges
from .harness import (ExperimentConfig, clt_rate_experiment,
                      coverage_experiment, run_experiment)
from .homology import collapsed_homology
from .joracle import OverlapPattern, j_oracle_mc
from .moments import (ModelParams, cov_Nk_Nl, euclid_remark_moments,
                      fourth_moment_Nk, mean_Nk, mean_Nk_binomial, mean_chi,
                      mean_chi_binomial, third_moment_Nk, var_chi_1d,
                      var_chi_series)
from .sampling import Binomial, PointConfiguration, Poisson, SeedSpec, sample
from .subcomplex import GammaGraph, automorphism_count, count_gamma, star_arms
from .tails import beta0_tail_bound, chi2d_tail_bound
from .torus import Metric, TorusSpec

CONVENTIONS = {
    "rips2eps": Convention.RIPS_HALF_OPEN_2EPS,
    "subeps": Convention.SUBCOMPLEX_EPS,
}
METRICS = {"max": Metric.MAX_NORM, "euclidean": Metric.EUCLIDEAN}


def _finite(obj):
    """``obj`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(_finite(doc), allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_points(path: str) -> PointConfiguration:
    with open(path) as fh:
        return PointConfiguration.from_json(json.load(fh))


def _params(args) -> ComplexParams:
    return ComplexParams(epsilon=args.eps, metric=METRICS[args.metric],
                         convention=CONVENTIONS[args.convention])


def _seedspec(args) -> SeedSpec:
    return SeedSpec(master_seed=args.seed, stream_index=0)


def _add_torus(p):
    p.add_argument("--d", type=int, default=1, help="torus dimension")
    p.add_argument("--a", type=float, default=1.0, help="torus side length")


def _add_geometry(p):
    p.add_argument("--eps", type=float, required=True,
                   help="proximity parameter epsilon")
    p.add_argument("--metric", choices=sorted(METRICS), default="max")
    p.add_argument("--convention", choices=sorted(CONVENTIONS),
                   default="rips2eps")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torushom",
        description="Random geometric simplicial complexes on the flat torus")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a point configuration")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="Poisson intensity")
    p.add_argument("--n-points", type=int,
                   help="fixed point count (Binomial process)")
    _add_torus(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("complex", help="simplex counts of a configuration")
    p.add_argument("--in", dest="infile", required=True)
    _add_geometry(p)
    p.add_argument("--max-dim", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("homology", help="Betti numbers of a configuration")
    p.add_argument("--in", dest="infile", required=True)
    _add_geometry(p)
    p.add_argument("--out")

    p = sub.add_parser("moment", help="closed-form / assembled moments")
    p.add_argument("--quantity", required=True, choices=[
        "mean_Nk", "mean_Nk_binomial", "mean_chi", "mean_chi_binomial",
        "cov_Nk_Nl", "var_chi_series", "var_chi_1d", "third_moment",
        "fourth_moment", "euclid_remark"])
    p.add_argument("--lambda", dest="lam", type=float)
    _add_torus(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--n", type=int, help="point count for Binomial formulas")
    p.add_argument("--oracle-samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("tail", help="concentration-bound values")
    p.add_argument("--quantity", required=True, choices=["beta0", "chi2d"])
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--d", type=int,
                   help="torus dimension (default 1 for beta0; chi2d is d=2)")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--y", type=float, help="threshold for the beta0 bound")
    p.add_argument("--x", type=float, help="deviation for the chi bound")
    p.add_argument("--var-chi", type=float,
                   help="chi variance (default: analytic series)")
    p.add_argument("--out")

    p = sub.add_parser("subcount", help="count a pattern graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gamma", required=True,
                   help='pattern JSON file: {"n":3,"edges":[[0,1],[1,2]]}')
    _add_geometry(p)
    p.set_defaults(convention="subeps")
    p.add_argument("--out")

    p = sub.add_parser("experiment", help="replicated Monte Carlo estimates")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--n-points", type=int)
    _add_torus(p)
    _add_geometry(p)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--quantities", required=True,
                   help="comma-separated, e.g. N_1,N_2,chi,beta_0")
    p.add_argument("--raw-csv", help="write per-replication values as CSV")
    p.add_argument("--out")

    p = sub.add_parser("clt", help="normal-approximation rate experiment")
    p.add_argument("--gamma", help="pattern JSON file (default: single edge)")
    _add_torus(p)
    _add_geometry(p)
    p.set_defaults(convention="subeps")
    p.add_argument("--lambdas", required=True,
                   help="comma-separated increasing intensities")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("coverage", help="torus Betti-number recovery frequency")
    _add_torus(p)
    _add_geometry(p)
    p.set_defaults(convention="subeps")
    p.add_argument("--lambdas", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("j-oracle", help="Monte Carlo overlap integral")
    p.add_argument("--pattern", required=True,
                   help='JSON file: {"sizes":[2,2],"shared":'
                        '[{"simplices":[0,1],"count":1}]}')
    _add_torus(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    return ap


def _law(args):
    if (args.lam is None) == (getattr(args, "n_points", None) is None):
        raise ValueError("specify exactly one of --lambda / --n-points")
    if args.lam is not None:
        return Poisson(lam=args.lam)
    return Binomial(n=args.n_points)


def _cmd_sample(args):
    pc = sample(_law(args), TorusSpec(d=args.d, a=args.a), _seedspec(args))
    _emit(pc.to_json(), args.out)


def _cmd_complex(args):
    pc = _load_points(args.infile)
    cx = simplex_counts(pc, _params(args), max_dim=args.max_dim)
    _emit(cx.to_json(), args.out)


def _cmd_homology(args):
    pc = _load_points(args.infile)
    _emit(collapsed_homology(pc, _params(args)).to_json(), args.out)


def _model_params(args) -> ModelParams:
    if args.lam is None:
        raise ValueError("--lambda is required for this quantity")
    return ModelParams(lam=args.lam, spec=TorusSpec(d=args.d, a=args.a),
                       epsilon=args.eps)


def _cmd_moment(args):
    q = args.quantity
    doc = {"quantity": q,
           "params": {"lambda": args.lam, "d": args.d, "a": args.a,
                      "eps": args.eps}}
    spec = TorusSpec(d=args.d, a=args.a)

    def need(flag, name):
        if flag is None:
            raise ValueError(f"--{name} is required for {q}")
        return flag

    if q == "mean_Nk":
        mv = mean_Nk(_model_params(args), need(args.k, "k"))
    elif q == "mean_Nk_binomial":
        mv = mean_Nk_binomial(spec, args.eps, need(args.n, "n"),
                              need(args.k, "k"))
        doc["params"]["n"] = args.n
    elif q == "mean_chi":
        mv = mean_chi(_model_params(args))
    elif q == "mean_chi_binomial":
        mv = mean_chi_binomial(spec, args.eps, need(args.n, "n"))
        doc["params"]["n"] = args.n
    elif q == "cov_Nk_Nl":
        mv = cov_Nk_Nl(_model_params(args), need(args.k, "k"),
                       need(args.l, "l"))
    elif q == "var_chi_series":
        mv = var_chi_series(_model_params(args))
    elif q == "var_chi_1d":
        mv = var_chi_1d(_model_params(args))
    elif q in ("third_moment", "fourth_moment"):
        if args.seed is None:
            raise ValueError(f"--seed is required for {q} (oracle sampling)")
        fn = third_moment_Nk if q == "third_moment" else fourth_moment_Nk
        mv = fn(_model_params(args), need(args.k, "k"),
                oracle_samples=args.oracle_samples, seed=_seedspec(args))
    elif q == "euclid_remark":
        values = euclid_remark_moments(spec, need(args.lam, "lambda"), args.eps)
        doc.update(values)
        _emit(doc, args.out)
        return
    doc["value"] = mv.value
    if mv.truncation is not None:
        doc["truncation"] = mv.truncation
    _emit(doc, args.out)


def _cmd_tail(args):
    if args.quantity == "beta0":
        if args.lam is None or args.y is None:
            raise ValueError("beta0 bound needs --lambda and --y")
        d = 1 if args.d is None else args.d
        params = ModelParams(lam=args.lam, spec=TorusSpec(d=d, a=args.a),
                             epsilon=args.eps)
        bound = beta0_tail_bound(params, args.y)
        _emit({"quantity": "beta0", "y": args.y, "bound": bound}, args.out)
    else:
        if args.d not in (None, 2):
            raise ValueError(
                f"the chi2d bound holds on the 2-torus, got --d {args.d}")
        if args.x is None:
            raise ValueError("chi2d bound needs --x")
        var_chi = args.var_chi
        if var_chi is None:
            if args.lam is None:
                raise ValueError("chi2d bound needs --var-chi or --lambda")
            params = ModelParams(lam=args.lam, spec=TorusSpec(d=2, a=args.a),
                                 epsilon=args.eps)
            var_chi = var_chi_series(params).value
        bound = chi2d_tail_bound(var_chi, args.x)
        _emit({"quantity": "chi2d", "x": args.x, "var_chi": var_chi,
               "bound": bound}, args.out)


def _cmd_subcount(args):
    pc = _load_points(args.infile)
    with open(args.gamma) as fh:
        gamma = GammaGraph.from_json(json.load(fh))
    u, v = threshold_edges(pc.points, pc.spec.a, _params(args))
    degrees = np.bincount(np.concatenate((u, v)), minlength=pc.n)
    neigh = None if star_arms(gamma) else neighbour_bitsets(u, v, pc.n)
    _emit({"g_gamma": count_gamma(gamma, degrees, neigh),
           "c_gamma": automorphism_count(gamma)}, args.out)


def _cmd_experiment(args):
    quantities = tuple(s.strip() for s in args.quantities.split(",") if s.strip())
    cfg = ExperimentConfig(
        law=_law(args), spec=TorusSpec(d=args.d, a=args.a),
        params=_params(args), replications=args.reps,
        master_seed=args.seed, quantities=quantities)
    report = run_experiment(cfg)
    if args.raw_csv:
        with open(args.raw_csv, "w") as fh:
            fh.write(report.raw_csv())
    _emit(report.to_json(), args.out)


def _parse_lambdas(text: str):
    return [float(s) for s in text.split(",") if s.strip()]


def _cmd_clt(args):
    if args.gamma:
        with open(args.gamma) as fh:
            gamma = GammaGraph.from_json(json.load(fh))
    else:
        gamma = GammaGraph.edge()
    report = clt_rate_experiment(
        gamma, TorusSpec(d=args.d, a=args.a), _params(args),
        _parse_lambdas(args.lambdas), args.reps, _seedspec(args))
    _emit(report.to_json(), args.out)


def _cmd_coverage(args):
    report = coverage_experiment(
        TorusSpec(d=args.d, a=args.a), _params(args),
        _parse_lambdas(args.lambdas), args.reps, _seedspec(args))
    _emit(report.to_json(), args.out)


def _cmd_joracle(args):
    with open(args.pattern) as fh:
        pattern = OverlapPattern.from_json(json.load(fh))
    est = j_oracle_mc(pattern, TorusSpec(d=args.d, a=args.a), args.eps,
                      args.samples, _seedspec(args))
    _emit({"value": est.value, "stderr": est.stderr,
           "samples": est.samples, "M": pattern.total_vertices}, args.out)


_DISPATCH = {
    "sample": _cmd_sample,
    "complex": _cmd_complex,
    "homology": _cmd_homology,
    "moment": _cmd_moment,
    "tail": _cmd_tail,
    "subcount": _cmd_subcount,
    "experiment": _cmd_experiment,
    "clt": _cmd_clt,
    "coverage": _cmd_coverage,
    "j-oracle": _cmd_joracle,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _DISPATCH[args.command](args)
    except (ValueError, ArithmeticError, OSError, KeyError,
            RuntimeError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
