"""Command-line entry point.

Subcommands wire a config file to the pipeline stages: snapshot, match,
verify, refine, reference, compare, surrogate and report.  Exit codes:
0 on success (for `refine`, only when the run converged), 1 on module
errors, 2 on usage errors.  The EIGENTRACK_CACHE environment variable
overrides the configured cache directory of snapshots and of the level and
reference records of checked subintervals.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from eigentrack.config import ConfigError, RunConfig, parse_config_file
from eigentrack.eigensolver import SnapshotProvider
from eigentrack.grid import ParamPoint, point_of_phys
from eigentrack.matching import apriori_match, cost_matrix, solve_assignment
from eigentrack.propagation import (
    build_match_graph,
    compare_labelings,
    default_root,
    propagate_labels,
    reference_solution,
)
from eigentrack.refinement import CONVERGED, run_adaptive
from eigentrack.reports import (
    emit_reports,
    fmt,
    write_curves_csv,
    write_error_table,
    write_surrogate_csv,
)
from eigentrack.surrogate import build_surrogate, eval_surrogate, query_point
from eigentrack.verification import truncated, verify


def _provider(cfg: RunConfig) -> SnapshotProvider:
    cache = os.environ.get("EIGENTRACK_CACHE")
    return SnapshotProvider(cfg, cache_dir=cache if cache else None)


def _parse_point(text: str, cfg: RunConfig) -> ParamPoint:
    coords = [c.strip() for c in text.split(",")]
    if len(coords) != cfg.dim:
        raise ConfigError(f"point {text!r} has {len(coords)} coordinates, expected {cfg.dim}")
    try:
        return point_of_phys(coords, cfg.box)
    except ValueError as exc:
        raise ConfigError(f"point {text!r}: {exc}") from exc


def _print_matrix(mat, out) -> None:
    for row in np.atleast_2d(mat):
        print(",".join(fmt(x) for x in row), file=out)


def cmd_snapshot(args, cfg: RunConfig, out) -> int:
    provider = _provider(cfg)
    snap = provider.get(_parse_point(args.at, cfg))
    print(f"point {snap.point} eigenvalues_in_window {snap.n}", file=out)
    for lam in snap.eigenvalues:
        print(fmt(lam), file=out)
    return 0


def cmd_match(args, cfg: RunConfig, out) -> int:
    provider = _provider(cfg)
    snap_a = provider.get(_parse_point(args.a, cfg))
    snap_b = provider.get(_parse_point(args.b, cfg))
    cost = cost_matrix(snap_a, snap_b, provider.mass, cfg.w1, cfg.w2)
    assignment = solve_assignment(cost)
    print("cost_matrix", file=out)
    _print_matrix(cost.values, out)
    print("sigma," + ",".join(str(s + 1) for s in assignment.sigma), file=out)
    print("total_cost," + fmt(assignment.total_cost), file=out)
    print("reordered_eigenvalues", file=out)
    snap, order = (snap_a, assignment.order_a) if snap_a.n > snap_b.n else (snap_b, assignment.order_b)
    print(",".join(fmt(snap.eigenvalues[i]) for i in order), file=out)
    return 0


def cmd_verify(args, cfg: RunConfig, out) -> int:
    provider = _provider(cfg)
    snap_a = provider.get(_parse_point(args.a, cfg))
    snap_b = provider.get(_parse_point(args.b, cfg))
    _, projection, la, lb = apriori_match(snap_a, snap_b, provider.mass, cfg.w1, cfg.w2)
    report = verify(projection, la, lb, cfg.t_pi, cfg.t_lambda)
    print("projection_matrix", file=out)
    _print_matrix(projection, out)
    print("truncated", file=out)
    _print_matrix(truncated(projection, report, cfg.t_pi), out)
    for d in report.diagnostics:
        r1 = "|".join(str(i + 1) for i in d.r1)
        r2 = "|".join(str(i + 1) for i in d.r2)
        print(f"j={d.j + 1},r1={r1},r2={r2}", file=out)
    for c in report.clusters:
        print("cluster," + "|".join(str(i + 1) for i in c.rows), file=out)
    print(f"verdict,{report.verdict}", file=out)
    return 0


def _full_run(provider: SnapshotProvider, jobs: int, points: int = 0):
    """The adaptive run, its labeling and, when ``points > 0``, the dense reference,
    in one solving block (one worker pool); all but the run are None unless it converged."""
    with provider.solving(jobs):
        state = run_adaptive(provider.cfg, provider=provider, jobs=jobs)
        if state.terminated != CONVERGED:
            return state, None, None
        labeling = propagate_labels(build_match_graph(state), default_root(state.points))
        reference = None
        if points:
            reference = reference_solution(provider.cfg, points, provider=provider, jobs=jobs)
    return state, labeling, reference


def _output_dir(cfg: RunConfig) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir


def cmd_refine(args, cfg: RunConfig, out) -> int:
    state, labeling, _ = _full_run(_provider(cfg), args.jobs)
    for rec in state.level_records():
        print(
            f"level {rec['level']}: points {rec['points_total']} "
            f"(+{rec['points_new']}), checked {rec['subintervals_checked']}, "
            f"uncertified {rec['subintervals_uncertified']}",
            file=out,
        )
    print(f"terminated {state.terminated} at level {state.final_level}", file=out)
    if labeling is not None:
        surrogate = build_surrogate(labeling, state.provider)
        for path in emit_reports(state, labeling, surrogate, cfg.output_dir):
            print(f"wrote {path}", file=out)
    return 0 if state.terminated == CONVERGED else 1


def cmd_reference(args, cfg: RunConfig, out) -> int:
    provider = _provider(cfg)
    labeling = reference_solution(cfg, args.points, provider=provider, jobs=args.jobs)
    path = _output_dir(cfg) / f"reference_{args.points}.csv"
    write_curves_csv(labeling, provider, cfg.dim, path)
    print(f"wrote {path}", file=out)
    return 0


def cmd_compare(args, cfg: RunConfig, out) -> int:
    state, labeling, reference = _full_run(_provider(cfg), args.jobs, args.points)
    if labeling is None:
        print("run did not converge; nothing to compare", file=out)
        return 1
    rows = compare_labelings(labeling, reference, state)
    out_dir = _output_dir(cfg)
    paths = (out_dir / "error_table.csv", out_dir / "error_table.txt")
    write_error_table(rows, *paths)
    print(paths[1].read_text(), end="", file=out)
    for path in paths:
        print(f"wrote {path}", file=out)
    return 0


def cmd_surrogate(args, cfg: RunConfig, out) -> int:
    if args.surrogate_cmd == "eval":   # a bad --at fails before the run
        mu = query_point(args.at.split(","), cfg.dim, cfg.box)
    state, labeling, _ = _full_run(_provider(cfg), args.jobs)
    if labeling is None:
        print("run did not converge; no surrogate", file=out)
        return 1
    surrogate = build_surrogate(labeling, state.provider)
    if args.surrogate_cmd == "build":
        path = _output_dir(cfg) / "surrogate.csv"
        write_surrogate_csv(surrogate, path)
        print(f"wrote {path} with {len(surrogate.surface_ids())} surfaces", file=out)
        return 0
    try:
        value = eval_surrogate(surrogate, args.surface, mu)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    print("undefined" if value is None else fmt(value), file=out)
    return 0


def cmd_report(args, cfg: RunConfig, out) -> int:
    state, labeling, reference = _full_run(_provider(cfg), args.jobs, args.points)
    if labeling is None:
        print("run did not converge; no reports", file=out)
        return 1
    surrogate = build_surrogate(labeling, state.provider)
    for path in emit_reports(state, labeling, surrogate, cfg.output_dir, reference=reference):
        print(f"wrote {path}", file=out)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _lattice_size(text: str) -> int:
    value = int(text)
    if value < 2 or (value - 1) & (value - 2):   # value - 1 is not a power of two
        raise argparse.ArgumentTypeError(f"must be 2**k + 1 (2, 3, 5, 9, ...), got {value}")
    return value


def _lattice_size_or_zero(text: str) -> int:
    return 0 if int(text) == 0 else _lattice_size(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigentrack",
        description="Track eigenvalue surfaces of a parametric eigenproblem "
        "over a parameter box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, jobs=True):   # --jobs only where many points are solved
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="path to the run config file")
        if jobs:
            p.add_argument(
                "--jobs", type=_positive_int, default=1, help="concurrent snapshot solves"
            )

    p = sub.add_parser("snapshot", help="solve and cache the eigenpairs at one point")
    common(p, cmd_snapshot, jobs=False)
    p.add_argument("--at", required=True, help="physical coordinates, comma separated")

    p = sub.add_parser("match", help="cost matrix and assignment for one subinterval")
    common(p, cmd_match, jobs=False)
    p.add_argument("--a", required=True, help="first endpoint (physical coordinates)")
    p.add_argument("--b", required=True, help="second endpoint (physical coordinates)")

    p = sub.add_parser("verify", help="a posteriori verification of one subinterval")
    common(p, cmd_verify, jobs=False)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("refine", help="full adaptive run with reports")
    common(p, cmd_refine)

    p = sub.add_parser("reference", help="dense reference labeling on a uniform lattice")
    common(p, cmd_reference)
    p.add_argument("--points", type=_lattice_size, default=129, help="points per axis (2**k + 1)")

    p = sub.add_parser("compare", help="error table of the adaptive run vs a reference")
    common(p, cmd_compare)
    p.add_argument("--points", type=_lattice_size, default=129)

    p = sub.add_parser("surrogate", help="build or evaluate the surrogate")
    ssub = p.add_subparsers(dest="surrogate_cmd", required=True)
    pb = ssub.add_parser("build")
    common(pb, cmd_surrogate)
    pe = ssub.add_parser("eval")
    common(pe, cmd_surrogate)
    pe.add_argument("--surface", type=int, required=True)
    pe.add_argument("--at", required=True, help="physical coordinates, comma separated")

    p = sub.add_parser("report", help="regenerate all reports for a finished run")
    common(p, cmd_report)
    p.add_argument(
        "--points", type=_lattice_size_or_zero, default=0,
        help="reference resolution for the error table (0: none)",
    )
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = parse_config_file(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.run(args, cfg, out)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
