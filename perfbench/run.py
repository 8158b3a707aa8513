"""The eigentrack benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload adaptive_2d_warm --seed 1 --seconds 28 --trace 0

``--workload`` also takes a comma-separated list or ``all``.  Each timed job
runs in a fresh process (``job.py``), one after the other: a closed loop
with a single caller.  Jobs repeat until ``--seconds`` have passed, and at
least twice, so that the report files of two jobs can be compared byte for
byte.  Every job passes the correctness gate (``gate.py``) or counts as
failed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones, plus the assignment micro cases.  The last line of standard output is
the JSON result; the exit code is 0 only when every job passed the gate.
The BLAS thread count is left as the environment sets it: the ``--jobs 2``
oversubscription it causes is one of the things measured.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DEADLINE_S = 170.0   # every run must end within 180 s
MIN_JOBS = 2
SETUP_SAMPLES = 3        # set-up-only processes per run, besides the jobs
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class JobFailed(RuntimeError):
    pass


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def source_key(config: str) -> str:
    """Digest of the eigentrack sources and one config: names a warm cache."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eigentrack").rglob("*.py")) + [ROOT / "configs" / config]:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "mp_start_method": multiprocessing.get_start_method(),
    }


class Runner:
    """Starts the job processes of one workload run, each under the run deadline."""

    def __init__(self, workload: str, seed: int, deadline: float, work: Path, spans: Path):
        self.workload, self.seed, self.deadline, self.work = workload, seed, deadline, work
        self.spans = spans
        self.env = dict(os.environ, TMPDIR=str(work))
        self.count = 0

    def spawn(self, mode: str, cache: Path, out: Path | None = None, trace: int = 0) -> dict:
        self.count += 1
        result = self.work / f"result_{self.count}.json"
        argv = [
            sys.executable, str(HERE / "job.py"), "--workload", self.workload,
            "--mode", mode, "--seed", str(self.seed), "--trace", str(trace),
            "--cache", str(cache), "--result", str(result),
        ]
        if out is not None:
            argv += ["--out", str(out)]
        if trace:
            argv += ["--spans", f"{self.spans}-{self.count}.json"]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise JobFailed("run deadline reached")
        argv += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # the job and its pool workers
            proc.wait()
            raise JobFailed(f"{mode} process exceeded the run deadline") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            raise JobFailed(f"{mode} process exited with code {code}")
        return json.loads(result.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: int, work: Path, spans: Path) -> dict:
    """Prepare, sample set-up, run the timed jobs, and aggregate one workload run."""
    from job import WORKLOADS   # job.py holds the workload table

    spec = WORKLOADS[name]
    runner = Runner(name, seed, time.monotonic() + RUN_DEADLINE_S, work, spans)
    # the warm cache is filled once per source tree and kept between runs;
    # a warm job that still has to solve a point fails the gate
    warm_cache = ROOT / ".bench_work" / f"warm_cache-{source_key(spec['config'])}"
    jobs, errors, attempted, setups = [], [], 0, []

    try:
        if spec["warm"] and not (warm_cache / "prepared").exists():
            runner.spawn("prepare", warm_cache)
            (warm_cache / "prepared").touch()
        for _ in range(SETUP_SAMPLES):
            setups.append(runner.spawn("setup", work / "unused_cache")["setup_s"])
        start = time.monotonic()
        while attempted < MIN_JOBS or time.monotonic() - start < seconds:
            traced = trace and attempted % 2 == 1
            cache = warm_cache if spec["warm"] else work / f"cache_{attempted}"
            out = work / f"out_{attempted}"
            attempted += 1
            try:
                res = runner.spawn("job", cache, out, int(traced))
            except JobFailed as exc:
                errors.append(f"job {attempted}: {exc}")
                if time.monotonic() >= runner.deadline:
                    break
                continue
            finally:
                shutil.rmtree(out, ignore_errors=True)
                if not spec["warm"]:
                    shutil.rmtree(cache, ignore_errors=True)
            res["traced"] = bool(traced)
            res["spans"] = f"{spans}-{runner.count}.json" if traced else None
            jobs.append(res)
            setups.append(res["setup_s"])
            errors += [f"job {attempted}: {e}" for e in res["gate_errors"]]
        micro = runner.spawn("micro", work / "unused_cache") if trace else None
    except JobFailed as exc:
        errors.append(str(exc))
        micro = None

    if len({json.dumps(j["digests"], sort_keys=True) for j in jobs}) > 1:
        errors.append("report files differ between jobs of one run")
    if micro is not None:
        errors += micro["gate_errors"]

    metrics: dict[str, float] = {}
    if not trace and jobs:
        metrics = {
            "wall_s": statistics.median(j["wall_s"] for j in jobs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
            # throughput over every query of the run, not a median of jobs:
            # the host alternates between a fast and a slow phase for seconds
            # at a time, and the median of such a mixture jumps between them
            "queries_per_s": sum(j["queries"] for j in jobs) / sum(j["query_s"] for j in jobs),
        }
    traced_jobs = [j for j in jobs if j["traced"]]
    if trace and traced_jobs:
        from tracer import EXACT_COUNTS

        layers = [j["layers"] for j in traced_jobs]
        for key in EXACT_COUNTS:
            if len({layer[key] for layer in layers}) > 1:
                errors.append(f"count {key} differs between traced jobs")
        metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        untraced = [j["wall_s"] for j in jobs if not j["traced"]]
        metrics["trace_overhead_s"] = (
            statistics.median(j["wall_s"] for j in traced_jobs) - statistics.median(untraced)
        )
        if micro is not None:
            metrics.update(micro["layers"])
    # a run-level error (differing reports or counts, a failed micro case)
    # fails the run even when each job passed on its own
    failed = attempted - len(jobs) + sum(1 for j in jobs if j["gate_errors"])
    if errors and not failed:
        failed = 1
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "errors": errors,
        "metrics": metrics,
        "jobs": [{k: v for k, v in j.items() if k != "digests"} for j in jobs],
        "digests": jobs[0]["digests"] if jobs else {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that the finally clauses stop the job
    # processes and remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "eigentrack" / "__init__.py").is_file():
        print(f"error: no eigentrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from job import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    units = declared_units()
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    runs = []
    for name in names:
        tag = f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        work = ROOT / ".bench_work" / tag
        work.mkdir(parents=True)
        try:
            run = run_workload(
                name, args.seed, args.seconds, args.trace, work, results / f"{tag}-spans"
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)   # snapshot caches and report files
        run["environment"] = env
        (results / f"{tag}.json").write_text(json.dumps(run, indent=1) + "\n")
        runs.append(run)
        for err in run["errors"]:
            print(f"{name}: GATE {err}", file=sys.stderr)
        for key, value in sorted(run["metrics"].items()):
            print(f"{name} {key} {value:.6g} {units[key]}")

    def label(run, key):
        return key if len(runs) == 1 else f"{run['workload']}/{key}"

    correct = all(not r["errors"] and r["failed"] == 0 for r in runs)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            label(r, k): {"value": v, "unit": units[k]}
            for r in runs
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
