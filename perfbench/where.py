"""Where the time of a traced job went, recomputed from its spans.

Usage:  python3 perfbench/where.py .bench_work/results/<run>.json

Reads the run record that ``run.py --trace 1`` writes, takes each traced
job's span file, and prints the self time of every span name (its duration
minus the part its child spans cover) as a share of the job's wall_s.  The
set-up spans (mesh and mass assembly) and the surrogate queries lie outside
wall_s and are listed after it.
"""
from __future__ import annotations

import json
import statistics
import sys

OUTSIDE_WALL = ("fem.build_mesh", "fem.assemble_mass", "surrogate.eval_surrogate")


def self_times(spans) -> dict[str, float]:
    inner = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), child in zip(spans, inner):
        out[name] = out.get(name, 0.0) + end - start - child
    return out


def main(path: str) -> int:
    run = json.loads(open(path).read())
    traced = [j for j in run["jobs"] if j["traced"]]
    if not traced:
        print(f"{path} has no traced job", file=sys.stderr)
        return 1
    per_job = []
    for job in traced:
        spans = json.loads(open(job["spans"]).read())
        times = self_times(spans)
        root = sum(e - s for n, s, e, p in spans if p < 0 and n not in OUTSIDE_WALL)
        times["(outside any span)"] = job["wall_s"] - root
        per_job.append((job["wall_s"], times))
    wall = statistics.median(w for w, _ in per_job)
    names = sorted({n for _, t in per_job for n in t})
    median = {n: statistics.median(t.get(n, 0.0) for _, t in per_job) for n in names}
    print(f"{run['workload']}: traced wall_s {wall:.3f} s (median of {len(per_job)} job(s))")
    for name in sorted(median, key=median.get, reverse=True):
        if name in OUTSIDE_WALL:
            continue
        print(f"  {name:34s} {median[name]:8.3f} s  {100 * median[name] / wall:5.1f} %")
    for name in OUTSIDE_WALL:
        print(f"  {name:34s} {median.get(name, 0.0):8.3f} s  (outside wall_s)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
