"""One workload process of the benchmark.

``run.py`` starts a fresh process of this script for every timed job, so
that set-up (imports, config parse, mesh and mass assembly) is measured the
way a user pays it.  The process imports eigentrack from ``src/`` of the
checkout, builds the ``SnapshotProvider``, runs the pipeline in the order
``eigentrack refine`` / ``eigentrack compare`` runs it, evaluates a seeded
batch of surrogate queries, applies the correctness gate and writes one JSON
result file.

Modes:
  setup    stop once the provider is ready (a set-up sample only)
  prepare  fill a snapshot cache for a warm workload (not timed)
  job      one timed job; ``--trace 1`` installs the layer wrappers first
  micro    the assignment micro cases, through the public solve_assignment
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import gate
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

# reference_points > 0 makes the job `eigentrack compare --points N`;
# "expected" names the seed run's gate data in expected/.
WORKLOADS = {
    "adaptive_2d_cold": {
        "config": "paper_2d.cfg", "jobs": 1, "warm": False, "reference_points": 0,
        "expected": "adaptive_2d",
    },
    "adaptive_2d_warm": {
        "config": "paper_2d.cfg", "jobs": 1, "warm": True, "reference_points": 0,
        "expected": "adaptive_2d",
    },
    "compare_1d_cold_jobs2": {
        "config": "paper_1d.cfg", "jobs": 2, "warm": False, "reference_points": 129,
        "expected": "compare_1d",
    },
}
N_QUERIES = 2000
# The batch repeats for at least this long in every job: the host's speed
# changes within a second, and a short batch would sample one instant of it.
QUERY_SECONDS = 1.0
LAP_CASES = {(10, 12): 20, (20, 24): 10, (40, 48): 3}   # shape -> repetitions


def import_eigentrack():
    """Import eigentrack from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import eigentrack

    if Path(eigentrack.__file__).resolve().parent != (src / "eigentrack").resolve():
        raise ImportError(f"eigentrack was imported from {eigentrack.__file__}, not {src}")
    return eigentrack


def run_pipeline(cfg, provider, out_dir: Path, jobs: int, reference_points: int = 0):
    """`eigentrack refine`, or `eigentrack compare --points N` when N > 0.

    Returns (state, surrogate, reference, error_rows); the last three are
    None when the run did not converge.  Layer functions are looked up on
    their modules at call time, so installed wrappers are the ones called.
    """
    from eigentrack import propagation, refinement, reports, surrogate as surrogate_mod

    state = refinement.run_adaptive(cfg, provider=provider, jobs=jobs)
    if state.terminated != refinement.CONVERGED:
        return state, None, None, None
    labeling = propagation.propagate_labels(
        propagation.build_match_graph(state), propagation.default_root(state.points)
    )
    surrogate = surrogate_mod.build_surrogate(labeling, provider)
    if not reference_points:
        reports.emit_reports(state, labeling, surrogate, out_dir)
        return state, surrogate, None, None
    reference = propagation.reference_solution(
        cfg, reference_points, provider=provider, jobs=jobs
    )
    rows = propagation.compare_labelings(labeling, reference, state)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports.write_error_table(rows, out_dir / "error_table.csv", out_dir / "error_table.txt")
    return state, surrogate, reference, rows


def make_queries(surrogate, seed: int, n: int = N_QUERIES):
    """n (surface id, point) pairs: ids uniform over the surfaces, points uniform in the box."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(surrogate.surface_ids(), size=n)
    lo = np.array([a for a, _ in surrogate.box])
    hi = np.array([b for _, b in surrogate.box])
    mus = rng.uniform(lo, hi, size=(n, surrogate.dim))
    return [(int(sid), tuple(float(x) for x in mu)) for sid, mu in zip(ids, mus)]


def file_digests(out_dir: Path) -> dict[str, str]:
    if not out_dir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def snapshot_files(cache_dir: Path) -> dict[str, int]:
    if not cache_dir.is_dir():
        return {}
    return {p.name: p.stat().st_size for p in cache_dir.glob("snap_*.npz")}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0   # ru_maxrss is in KiB on Linux


def traced_layers(tracer: Tracer, created: dict[str, int], state, report_bytes: int) -> dict:
    """Per-layer metrics of one traced job: spans and counts plus what the job observed."""
    layers = layer_metrics(tracer.spans, tracer.counts)
    layers.update(
        {
            "eigensolver.cache_misses": len(created),   # snapshot files created = solves
            "eigensolver.cache_bytes": sum(created.values()),
            "refinement.points": len(state.points),
            "refinement.subintervals": len(state.subintervals),
            "refinement.levels": len(state.levels),
            "reports.bytes": report_bytes,
        }
    )
    return layers


def timed_job(args, cfg, provider, spawned_at: float, tracer: Tracer | None) -> dict:
    from eigentrack import surrogate as surrogate_mod

    spec = WORKLOADS[args.workload]
    ready = time.monotonic()
    cache_dir, out_dir = Path(args.cache), Path(args.out)
    files_before = snapshot_files(cache_dir)

    t0 = time.perf_counter()
    state, surrogate, reference, rows = run_pipeline(
        cfg, provider, out_dir, spec["jobs"], spec["reference_points"]
    )
    wall = time.perf_counter() - t0

    queries, values, evaluated, query_s = [], [], 0, 0.0
    if surrogate is not None:
        queries = make_queries(surrogate, args.seed)
        q0 = time.perf_counter()
        while query_s < QUERY_SECONDS:
            values = [surrogate_mod.eval_surrogate(surrogate, sid, mu) for sid, mu in queries]
            evaluated += len(queries)
            query_s = time.perf_counter() - q0
    if tracer is not None:
        tracer.restore()

    observed = gate.observe_run(state, provider, reference, rows)
    errors = gate.pinned_errors(observed, cfg.dim)
    errors += gate.seed_errors(observed, gate.load_expected(spec["expected"]))
    if surrogate is not None:
        errors += gate.check_queries(surrogate, queries, values)
    created = {k: v for k, v in snapshot_files(cache_dir).items() if k not in files_before}
    if spec["warm"] and created:
        errors.append(f"warm job solved {len(created)} points; the cache was not warm")

    digests = file_digests(out_dir)
    result = {
        "setup_s": ready - spawned_at,
        "wall_s": wall,
        "queries": evaluated,
        "query_s": query_s,
        "peak_rss_mb": peak_rss_mb(),
        "gate_errors": errors,
        "digests": digests,
        "report_bytes": sum((out_dir / name).stat().st_size for name in digests),
    }
    if tracer is not None:
        result["layers"] = traced_layers(tracer, created, state, result["report_bytes"])
        Path(args.spans).write_text(json.dumps(tracer.spans))
    return result


def lap_micro(seed: int) -> dict:
    """Seeded random assignment problems through the public solve_assignment."""
    from scipy.optimize import linear_sum_assignment

    from eigentrack import matching

    rng = np.random.default_rng(seed)
    layers, errors = {}, []
    for (r, c), reps in LAP_CASES.items():
        times = []
        for _ in range(reps):
            values = rng.random((r, c))
            t0 = time.perf_counter()
            got = matching.solve_assignment(matching.CostMatrix(values=values, w1=1.0, w2=0.0))
            times.append(time.perf_counter() - t0)
            rows, cols = linear_sum_assignment(values)
            best = float(values[rows, cols].sum())
            if abs(got.total_cost - best) > 1e-9 * best:
                errors.append(f"{r}x{c}: assignment cost {got.total_cost} != optimum {best}")
        layers[f"matching.lap_{r}x{c}_ms"] = statistics.median(times) * 1e3
    return {"layers": layers, "gate_errors": errors}


def main(argv=None) -> int:
    spawned_at = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--mode", choices=("setup", "prepare", "job", "micro"), required=True)
    # time.monotonic() of the parent just before it started this process
    # (CLOCK_MONOTONIC on Linux, shared by all processes)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--cache", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    if args.spawned_at is not None:
        spawned_at = args.spawned_at

    import_eigentrack()
    from eigentrack.config import parse_config_file
    from eigentrack.eigensolver import SnapshotProvider

    if args.mode == "micro":
        result = lap_micro(args.seed)
    else:
        spec = WORKLOADS[args.workload]
        cfg = parse_config_file(ROOT / "configs" / spec["config"])
        tracer = Tracer() if args.mode == "job" and args.trace else None
        if tracer is not None:
            tracer.install()
        provider = SnapshotProvider(cfg, cache_dir=args.cache)
        if args.mode == "setup":
            result = {"setup_s": time.monotonic() - spawned_at}
        elif args.mode == "prepare":
            from eigentrack.refinement import run_adaptive

            run_adaptive(cfg, provider=provider, jobs=spec["jobs"])
            result = {}
        else:
            result = timed_job(args, cfg, provider, spawned_at, tracer)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
