"""Command-line front end.

Subcommands: ``threshold`` (pairwise divergences and regime verdict for a
configured model), ``sample`` (draw one instance to a hypergraph file),
``recover`` (run a pipeline on a hypergraph file), ``estimate-k``
(eigenvalue-threshold community count), and ``phase`` (Monte Carlo sweep to
CSV).  Vertex ids and community labels are 1-based in all files and output.
"""

import argparse
import sys

import numpy as np

from .divergence import chernoff_hellinger, classify_regime
from .errors import ConvergenceError
from .harness import emit_csv, grid_points, phase_sweep, read_config, sample_instance
from .model import (
    ProbabilityTensors,
    read_hypergraph,
    read_membership,
    write_hypergraph,
    write_membership,
)
from .pipeline import agnostic_partition, estimate_num_communities, partition_with_prior


def _cmd_threshold(args) -> int:
    config = read_config(args.config)
    if config.k < 2:
        raise ValueError("threshold needs k >= 2")
    for point in grid_points(config):
        finite = chernoff_hellinger(config.alpha, point.coefficients, point.n)
        asym = chernoff_hellinger(config.alpha, point.coefficients, point.n,
                                  weights="asymptotic")
        label = f"point {point.point_id}: n={point.n}"
        if point.sweep_value is not None:
            label += f" sweep={point.sweep_value:g}"
        print(label)
        print("  pair   t*          finite      asymptotic")
        for p, pa in zip(finite.pairs, asym.pairs):
            print(f"  {p.j + 1}-{p.k + 1}    {p.t_star:<10.6f}  {p.value:<10.6f}  {pa.value:<10.6f}")
        print(f"  global: {finite.value:.6f} at pair "
              f"{finite.argmin[0] + 1}-{finite.argmin[1] + 1} -> "
              f"{classify_regime(finite.value)}")
        print("j,k,t_star,d_gch")
        for p in finite.pairs:
            print(f"{p.j + 1},{p.k + 1},{p.t_star:.9g},{p.value:.9g}")
    return 0


def _cmd_sample(args) -> int:
    config = read_config(args.config)
    points = grid_points(config)
    if not 0 <= args.point < len(points):
        raise ValueError(f"point index {args.point} out of range (grid has {len(points)})")
    seed = config.seed if args.seed is None else args.seed
    _, truth, h = sample_instance(config, points[args.point], seed)
    write_hypergraph(h, args.out)
    sizes = ", ".join(f"m={m}: {h.num_edges(m)}" for m in h.orders)
    print(f"wrote {args.out}: n={h.n}, edges {sizes}")
    if args.truth_out:
        write_membership(truth, args.truth_out)
        print(f"wrote {args.truth_out}")
    return 0


def _cmd_recover(args) -> int:
    h = read_hypergraph(args.input)
    truth = read_membership(args.truth) if args.truth else None
    if truth is not None and len(truth) != h.n:
        raise ValueError("truth length does not match hypergraph")
    if args.mode == "agnostic":
        report = agnostic_partition(h, args.k, seed=args.seed, truth=truth)
    else:
        if not args.config:
            raise ValueError("--mode prior needs --config for the probabilities and prior")
        config = read_config(args.config)
        point = grid_points(config)[0]
        tensors = ProbabilityTensors.from_unscaled(config.k, point.coefficients, h.n)
        report = partition_with_prior(h, args.k, tensors, config.alpha,
                                      seed=args.seed, truth=truth)
    print(f"mode={args.mode} n={h.n} k={args.k} seed={args.seed}")
    print(f"kept after trimming: {report.kept}/{h.n}")
    status = {True: " (converged)", False: " (capped)", None: ""}[report.converged]
    print(f"refinement rounds:   {report.iterations}{status}")
    if report.eta is not None:
        print(f"mismatch ratio:      {report.eta:.9g} (stage one {report.eta_stage1:.9g})")
    sizes = np.bincount(report.labels, minlength=args.k)
    print("community sizes:     " + ", ".join(str(s) for s in sizes))
    if args.out:
        write_membership(report.labels, args.out)
        print(f"wrote {args.out}")
    if args.csv:
        eta = "" if report.eta is None else f"{report.eta:.9g}"
        eta1 = "" if report.eta_stage1 is None else f"{report.eta_stage1:.9g}"
        print("n,k,seed,eta_stage1,eta_final,iters")
        print(f"{h.n},{args.k},{args.seed},{eta1},{eta},{report.iterations}")
    return 0


def _cmd_estimate_k(args) -> int:
    h = read_hypergraph(args.input)
    est = estimate_num_communities(h, num_eigenvalues=args.num_eigenvalues)
    print(f"estimated communities: {est.k_hat}")
    print(f"degree threshold:      {est.threshold:.6g}")
    # the values that decide k_hat; deeper ones may be loose lower bounds
    shown = est.eigenvalues[: est.k_hat + 1]
    print("top eigenvalues:       " + ", ".join(f"{v:.6g}" for v in shown))
    return 0


def _cmd_phase(args) -> int:
    config = read_config(args.config)
    out = args.out or config.out
    if not out:
        raise ValueError("no output path: pass --out or set out= in the config")
    records, summaries = phase_sweep(config, workers=args.workers)
    emit_csv(records, out)
    print(f"wrote {out}: {len(records)} trials over {len(summaries)} points")
    print("point_id,n,sweep_value,success_rate")
    for s in summaries:
        sval = "" if s.sweep_value is None else f"{s.sweep_value:g}"
        print(f"{s.point_id},{s.n},{sval},{s.success_rate:.4f}")
    failed = [r for r in records if r.error]
    if failed:
        print(f"note: {len(failed)} trials recorded errors")
    for r in failed:
        print(f"hypersbm: trial point={r.point_id} seed={r.seed}: {r.error}", file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypersbm",
                                     description="Non-uniform hypergraph block models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="pairwise divergences and regime verdict")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("sample", help="sample one instance to a hypergraph file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out")
    p.add_argument("--seed", type=int)
    p.add_argument("--point", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("recover", help="run a recovery pipeline on a hypergraph file")
    p.add_argument("--mode", choices=("agnostic", "prior"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--truth")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="model config (required for --mode prior)")
    p.add_argument("--out", help="write the estimated membership here")
    p.add_argument("--csv", action="store_true", help="also print a CSV row")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("estimate-k", help="estimate the number of communities")
    p.add_argument("--input", required=True)
    p.add_argument("--num-eigenvalues", type=int, metavar="N",
                   help="eigenvalues to compute in one solve (default: 6, doubled "
                        "up to ceil(log n) + 5 until the count is decided)")
    p.set_defaults(func=_cmd_estimate_k)

    p = sub.add_parser("phase", help="Monte Carlo sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel trial processes (default: 1)")
    p.set_defaults(func=_cmd_phase)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"hypersbm: error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"hypersbm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
